//! Offline verification and repair of a store's on-disk state.
//!
//! `iokc fsck [--repair]` runs these checks without bringing the store
//! fully online. A store is the manifest at the nominal path, the
//! active generation's log at `.wal-<epoch>` and the sealed segments:
//! logs of earlier epochs a seal adopted, and `.seg-<id>` logs that
//! compaction or repair wrote ([`crate::knowledge_store`]).
//!
//! 1. **Manifest** — the document at the nominal path must verify its
//!    checksum footer and decode as a manifest, read the one way `open`
//!    reads it. One that does not — a `.seg-` segment document an older
//!    binary wrote included — is one unrepairable finding, and no other
//!    file of the store is checked, swept or rewritten: the manifest is
//!    what says which log and which segments are the store, so without
//!    it no file can be called a stray. A `--journal` is not the
//!    store's: it is checked (and repaired) all the same.
//! 2. **Active generation** — the epoch's log must replay onto the
//!    manifest's counters and summarize, as `open` requires. A torn
//!    trailing record (a crash mid-append) is reported and, on repair,
//!    truncated, exactly like a campaign journal's (check 7); a record
//!    that verifies but does not apply is unrepairable.
//! 3. **Segments** — every referenced segment must read back — rows
//!    decoded, summaries derived; its file must be exactly the records
//!    of the length the manifest recorded, since it was whole when the
//!    manifest named it. One that does not is dropped from the manifest
//!    on repair (data loss, noted), never salvaged as a torn tail. A
//!    stale index block (metadata not matching the body) is recomputed.
//! 4. **Tombstones** — tombstones must reference runs that exist in
//!    some segment; stale ones are dropped on repair.
//! 5. **Strays** — crash-orphaned files at deterministic names: `.tmp`
//!    siblings of files written whole, logs of any epoch the manifest
//!    neither reads nor adopted, segment files the manifest does not
//!    reference, and the `.bak` copies of documents that earlier
//!    binaries kept and nothing reads. Removed on repair.
//! 6. **Referential integrity** (segments) — checksums only prove the
//!    file is the one that was written, not that it is *sensible*: rows
//!    whose foreign keys point at deleted parents (e.g. from a
//!    half-applied external import) are reported and, on repair, deleted
//!    cascade-wise until the segment is closed under its foreign keys,
//!    then the body is written as a log of one record to a fresh
//!    `.seg-<id>`, with its index block recomputed; the body it replaces
//!    is unlinked only once the manifest names the new one. The active
//!    generation gets no such scan: its log holds what FK-checked
//!    inserts wrote.
//! 7. **Journal tail** (with `--journal`) — a torn trailing record is
//!    reported and, on repair, truncated (idempotently) via
//!    [`crate::journal::truncate_torn_tail_vfs`].
//!
//! The repair pass is designed so that a second `fsck` over the repaired
//! state is clean; anything still reported afterwards is genuinely
//! unrepairable and the store should be served via
//! [`crate::KnowledgeStore::open_or_degraded`].

use crate::database::Database;
use crate::journal;
use crate::knowledge_store::{load_active, warning_owner, Manifest};
use crate::persist;
use crate::query::RunKind;
use crate::segment::{
    read_segment_vfs, write_segment_vfs, BodyFile, SegmentBody, SegmentData, SegmentMeta,
};
use crate::vfs::Vfs;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// What `fsck` should do.
#[derive(Debug, Clone, Default)]
pub struct FsckOptions {
    /// Repair what can be repaired instead of only reporting.
    pub repair: bool,
    /// Also check (and on repair, salvage) this journal's tail.
    pub journal: Option<PathBuf>,
}

/// One problem found in the on-disk state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckFinding {
    /// What is wrong.
    pub what: String,
    /// Whether the repair pass fixed it.
    pub repaired: bool,
}

/// Everything one `fsck` pass found.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Problems, in check order.
    pub findings: Vec<FsckFinding>,
    /// Informational notes (which generation is authoritative, …).
    pub notes: Vec<String>,
}

impl FsckReport {
    /// No problems at all.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Problems the repair pass fixed.
    #[must_use]
    pub fn repaired(&self) -> usize {
        self.findings.iter().filter(|f| f.repaired).count()
    }

    /// Problems left standing (repair off, or unrepairable).
    #[must_use]
    pub fn unrepaired(&self) -> usize {
        self.findings.len() - self.repaired()
    }

    fn push(&mut self, what: impl Into<String>, repaired: bool) {
        self.findings.push(FsckFinding {
            what: what.into(),
            repaired,
        });
    }

    fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

/// Verify (and optionally repair) the store layout rooted at `path`.
#[must_use]
pub fn fsck(path: &Path, vfs: &dyn Vfs, opts: &FsckOptions) -> FsckReport {
    let mut report = FsckReport::default();
    if vfs.exists(path) {
        match Manifest::read(path, vfs) {
            Ok((manifest, _)) => check_layout(manifest, path, vfs, opts, &mut report),
            Err(e) => {
                report.push(e.to_string(), false);
                report.note(
                    "without a manifest no other file of the store was checked, swept or rewritten",
                );
            }
        }
    } else {
        check_stray_tmp(path, vfs, opts, &mut report);
        report.note("no manifest on disk: nothing to check");
    }

    if let Some(journal_path) = &opts.journal {
        check_journal(journal_path, vfs, opts, &mut report);
    }

    report
}

/// Where earlier binaries kept the previous copy of a document. Nothing
/// reads it: a stray.
fn backup_path(path: &Path) -> PathBuf {
    persist::sibling(path, ".bak")
}

/// Everything the manifest names: active generation, segments,
/// tombstones, strays.
fn check_layout(
    mut manifest: Manifest,
    path: &Path,
    vfs: &dyn Vfs,
    opts: &FsckOptions,
    report: &mut FsckReport,
) {
    let unread = "previous copy of a document, which nothing reads";
    check_stray_tmp(path, vfs, opts, report);
    check_stray_file(&backup_path(path), unread, vfs, opts, report);
    let mut manifest_changed = false;

    // Active generation: the epoch's log replays (a torn tail is
    // truncated first, on repair). Its rows get no referential scan: the
    // log holds what FK-checked inserts wrote.
    let log = persist::wal_path(path, manifest.active_epoch);
    check_journal(&log, vfs, opts, report);
    let active = load_active(path, &manifest, vfs).and_then(|(db, _)| SegmentData::from_db(db));
    if let Err(e) = active {
        report.push(format!("active generation unusable: {e}"), false);
    }

    // Segments: each referenced segment must read back; its rows must be
    // closed under foreign keys; its index block must match its body.
    // The files of the bodies, before the repair and after it: a body
    // that a repair retires is unlinked after the manifest commit, not
    // swept as a stray.
    let mut bodies: BTreeSet<PathBuf> = manifest.segments.iter().map(|m| m.file(path)).collect();
    let mut kept: Vec<SegmentMeta> = Vec::new();
    let mut live_runs: BTreeSet<(RunKind, u64)> = BTreeSet::new();
    // Bodies the repair dropped or replaced: the manifest on disk names
    // them until the repaired one is committed, so they are unlinked
    // only then.
    let mut retired = Vec::new();
    for meta in std::mem::take(&mut manifest.segments) {
        let seg_path = meta.file(path);
        // A body's summaries are derived from its rows on load; deleting
        // orphans is the one thing here that changes the rows.
        let loaded = read_segment_vfs(&seg_path, vfs, meta.body.len).and_then(|mut data| {
            let dirty = check_segment_rows(&mut data.db, meta.id, opts, report);
            if dirty {
                data = SegmentData::from_db(data.db)?;
            }
            Ok((data, dirty))
        });
        match loaded {
            Err(e) => {
                report.push(
                    format!("segment {} unusable: {e}", seg_path.display()),
                    opts.repair,
                );
                if opts.repair {
                    report.note(format!(
                        "DATA LOSS: segment {} dropped from the manifest",
                        meta.id
                    ));
                    manifest_changed = true;
                    retired.push(seg_path);
                } else {
                    kept.push(meta);
                }
            }
            Ok((data, mut dirty)) => {
                let recomputed = SegmentMeta::compute(meta.id, data.summaries.values(), meta.body);
                if !dirty && recomputed != meta {
                    report.push(
                        format!("segment {} index block does not match its body", meta.id),
                        opts.repair,
                    );
                    dirty = true;
                }
                if dirty && opts.repair {
                    // A repaired body is written whole to a fresh
                    // `.seg-<id>`, as compaction writes its output: the
                    // body the manifest on disk names keeps its bytes.
                    let id = manifest.next_segment;
                    match write_segment_vfs(&persist::segment_path(path, id), vfs, &data) {
                        Err(e) => {
                            report.push(format!("segment {} rewrite failed: {e}", meta.id), false);
                            kept.push(meta);
                        }
                        Ok(len) => {
                            manifest.next_segment += 1;
                            manifest_changed = true;
                            live_runs.extend(data.summaries.keys());
                            retired.push(seg_path);
                            let body = SegmentBody {
                                file: BodyFile::Written,
                                len,
                            };
                            kept.push(SegmentMeta::compute(id, data.summaries.values(), body));
                        }
                    }
                } else {
                    live_runs.extend(data.summaries.keys());
                    kept.push(meta);
                }
            }
        }
    }
    manifest.segments = kept;
    bodies.extend(manifest.segments.iter().map(|meta| meta.file(path)));

    // Tombstones must shadow a run that exists in some segment.
    let stale: Vec<(RunKind, u64)> = manifest
        .tombstones
        .iter()
        .filter(|t| !live_runs.contains(t))
        .copied()
        .collect();
    for (kind, id) in stale {
        let repaired = opts.repair && manifest.tombstones.remove(&(kind, id));
        manifest_changed |= repaired;
        report.push(
            format!(
                "tombstone for {} run {id} which no segment holds",
                kind.as_str()
            ),
            repaired,
        );
    }

    // Strays at deterministic names: logs of epochs the manifest
    // neither reads nor adopted, and `.seg-<id>` files it does not name
    // (a crash between a seal/compaction's file writes and its manifest
    // commit, or between the commit and the cleanup, leaves exactly
    // these).
    for epoch in 0..=manifest.active_epoch + 2 {
        let log = persist::wal_path(path, epoch);
        if epoch != manifest.active_epoch && !bodies.contains(&log) {
            let why = "log neither current nor adopted by a segment";
            check_stray_file(&log, why, vfs, opts, report);
        }
    }
    for id in 0..=manifest.next_segment {
        let seg_path = persist::segment_path(path, id);
        check_stray_file(&backup_path(&seg_path), unread, vfs, opts, report);
        if bodies.contains(&seg_path) {
            check_stray_tmp(&seg_path, vfs, opts, report);
        } else {
            // A `.seg-<id>` file is written through `.tmp`; an adopted
            // log is appended in place and has none.
            let why = "segment not referenced by the manifest";
            let tmp = persist::temp_path(&seg_path);
            for stray in [seg_path, tmp] {
                check_stray_file(&stray, why, vfs, opts, report);
            }
        }
    }

    if manifest_changed && opts.repair {
        match persist::write_document_vfs(path, vfs, &manifest.to_json()) {
            Ok(()) => retired.iter().for_each(|body| drop(vfs.remove_file(body))),
            Err(e) => report.push(format!("manifest rewrite after repair failed: {e}"), false),
        }
    }
}

/// Referential-integrity scan of one segment's database: every foreign
/// key (and the polymorphic `warnings.owner_id`) must reference a live
/// parent row. Repair deletes orphans to a fixpoint — removing an
/// orphaned summary may orphan its results — and the caller rewrites the
/// file. Returns whether anything was deleted.
fn check_segment_rows(
    db: &mut Database,
    segment_id: u64,
    opts: &FsckOptions,
    report: &mut FsckReport,
) -> bool {
    let mut deleted_any = false;
    loop {
        let orphans = find_orphans(db);
        if orphans.is_empty() {
            break;
        }
        for (table, id) in &orphans {
            let repaired = opts.repair && db.retain(table, |row| row.id != *id).is_ok();
            report.push(
                format!("segment {segment_id}: {table} row {id} references a missing parent"),
                repaired,
            );
            deleted_any |= repaired;
        }
        if !opts.repair {
            break;
        }
    }
    deleted_any
}

fn check_stray_tmp(path: &Path, vfs: &dyn Vfs, opts: &FsckOptions, report: &mut FsckReport) {
    let tmp = persist::temp_path(path);
    if vfs.exists(&tmp) {
        let repaired = opts.repair && vfs.remove_file(&tmp).is_ok();
        report.push(
            format!("stray temp image {} (crash mid-save)", tmp.display()),
            repaired,
        );
    }
}

/// Report (and on repair remove) a file that no current layout entry
/// references.
fn check_stray_file(
    path: &Path,
    why: &str,
    vfs: &dyn Vfs,
    opts: &FsckOptions,
    report: &mut FsckReport,
) {
    if vfs.exists(path) {
        let repaired = opts.repair && vfs.remove_file(path).is_ok();
        report.push(format!("stray file {} ({why})", path.display()), repaired);
    }
}

/// Rows whose declared foreign keys (or `warnings`' implied ones) point
/// at parents that do not exist.
fn find_orphans(db: &Database) -> Vec<(String, i64)> {
    let mut orphans = Vec::new();
    for table in db.table_names() {
        let (Ok(schema), Ok(rows)) = (db.schema(table), db.rows(table)) else {
            continue;
        };
        if schema.foreign_keys.is_empty() && table != "warnings" {
            continue;
        }
        let missing = |parent_table: &str, parent_id: i64| {
            !matches!(db.get(parent_table, parent_id), Ok(Some(_)))
        };
        for row in rows {
            let mut orphan = schema.foreign_keys.iter().any(|fk| {
                let parent = schema.column_index(&fk.column);
                let parent = parent.and_then(|ci| row.values.get(ci)?.as_int());
                parent.is_some_and(|id| missing(&fk.references_table, id))
            });
            if table == "warnings" {
                let owner = warning_owner(row);
                orphan |= owner.is_some_and(|(kind, id)| missing(kind.table(), id as i64));
            }
            if orphan {
                orphans.push((table.to_owned(), row.id));
            }
        }
    }
    orphans
}

fn check_journal(journal_path: &Path, vfs: &dyn Vfs, opts: &FsckOptions, report: &mut FsckReport) {
    match journal::read_journal_vfs(journal_path, vfs) {
        Ok(journal_report) if journal_report.torn_tail => {
            let repaired = opts.repair
                && journal::truncate_torn_tail_vfs(journal_path, vfs)
                    .map(|r| !r.torn_tail || r.dropped_bytes > 0)
                    .is_ok();
            report.push(
                format!(
                    "journal {} has a torn tail ({} bytes after {} valid records)",
                    journal_path.display(),
                    journal_report.dropped_bytes,
                    journal_report.records.len()
                ),
                repaired,
            );
        }
        Ok(journal_report) => {
            report.note(format!(
                "journal {}: {} records, tail intact",
                journal_path.display(),
                journal_report.records.len()
            ));
        }
        Err(e) => {
            report.push(
                format!("journal {} unreadable: {e}", journal_path.display()),
                false,
            );
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::database::DbError;
    use crate::knowledge_store::KnowledgeStore;
    use crate::vfs::FaultVfs;
    use iokc_core::model::{Knowledge, KnowledgeSource};
    use iokc_util::json::Json;
    use std::sync::Arc;

    fn kb() -> PathBuf {
        PathBuf::from("/kb.json")
    }

    /// A disk holding a store with two saved runs, returned as a fresh
    /// fault-free filesystem.
    fn two_generations() -> FaultVfs {
        let vfs = Arc::new(FaultVfs::pristine());
        {
            let mut store =
                KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>).unwrap();
            store
                .save_knowledge(&Knowledge::new(KnowledgeSource::Ior, "gen-one"))
                .unwrap();
            store
                .save_knowledge(&Knowledge::new(KnowledgeSource::Ior, "gen-two"))
                .unwrap();
        }
        FaultVfs::from_state(vfs.durable_state())
    }

    fn repair_pass(vfs: &FaultVfs) -> FsckReport {
        let repair = FsckOptions {
            repair: true,
            journal: None,
        };
        fsck(&kb(), vfs, &repair)
    }

    #[test]
    fn clean_store_reports_clean() {
        let vfs = two_generations();
        let report = fsck(&kb(), &vfs, &FsckOptions::default());
        assert!(report.clean(), "{report:?}");
    }

    /// What a binary that rotated documents to `.bak` left behind is
    /// swept under a good manifest, and only there.
    #[test]
    fn backup_copies_an_earlier_binary_left_are_strays() {
        let vfs = Arc::new(FaultVfs::pristine());
        let mut store = KnowledgeStore::open_with_vfs(kb(), vfs.clone()).unwrap();
        store
            .save_knowledge(&Knowledge::new(KnowledgeSource::Ior, "sealed"))
            .unwrap();
        store.seal_active().unwrap();
        drop(store);
        let strays = [
            backup_path(&kb()),
            backup_path(&persist::segment_path(&kb(), 0)),
        ];
        for stray in &strays {
            let mut file = vfs.create(stray).unwrap();
            file.write_all(b"{}").unwrap();
            file.sync().unwrap();
        }
        let detect = fsck(&kb(), vfs.as_ref(), &FsckOptions::default());
        assert_eq!(detect.unrepaired(), 2, "{detect:?}");
        let repair = repair_pass(&vfs);
        assert_eq!(
            (repair.repaired(), repair.unrepaired()),
            (2, 0),
            "{repair:?}"
        );
        assert!(strays.iter().all(|stray| !vfs.exists(stray)));
        assert!(fsck(&kb(), vfs.as_ref(), &FsckOptions::default()).clean());
        let store = KnowledgeStore::open_with_vfs(kb(), vfs).unwrap();
        assert_eq!(store.knowledge_count(), 1);
    }

    #[test]
    fn stray_temp_image_is_removed() {
        let vfs = two_generations();
        let mut file = vfs.create(&persist::temp_path(&kb())).unwrap();
        file.write_all(b"half-written garbage").unwrap();
        file.sync().unwrap();

        let repair = repair_pass(&vfs);
        assert_eq!(repair.repaired(), 1, "{repair:?}");
        assert!(fsck(&kb(), &vfs, &FsckOptions::default()).clean());
    }

    /// The manifest at `/kb.json` on `vfs`, decoded.
    fn manifest_of(vfs: &dyn Vfs) -> Manifest {
        Manifest::read(&kb(), vfs).unwrap().0
    }

    #[test]
    fn orphan_rows_are_detected_and_deleted() {
        let vfs = Arc::new(FaultVfs::pristine());
        let mut store = KnowledgeStore::open_with_vfs(kb(), vfs.clone()).unwrap();
        store
            .save_knowledge(&Knowledge::new(KnowledgeSource::Ior, "keeper"))
            .unwrap();
        store.seal_active().unwrap();
        drop(store);
        // A checksum-valid segment can still contain rows whose parents
        // were deleted by a buggy external tool: forge one, as a record
        // of the adopted log that the manifest's length covers (no such
        // performance 12345).
        let mut manifest = manifest_of(vfs.as_ref());
        let seg_path = manifest.segments[0].file(&kb());
        let orphan = r#"{"rows":{"summaries":[[999,{"i":12345},"write",null,null,null,null,null,null,null]]}}"#;
        journal::JournalWriter::open_vfs(&seg_path, vfs.as_ref())
            .unwrap()
            .append(orphan)
            .unwrap();
        manifest.segments[0].body.len = vfs.len(&seg_path).unwrap();
        persist::write_document_vfs(&kb(), vfs.as_ref(), &manifest.to_json()).unwrap();

        let check_vfs = FaultVfs::from_state(vfs.durable_state());
        let detect = fsck(&kb(), &check_vfs, &FsckOptions::default());
        assert_eq!(detect.unrepaired(), 1, "{detect:?}");
        let repair = repair_pass(&check_vfs);
        assert!(repair.repaired() >= 1, "{repair:?}");
        assert!(fsck(&kb(), &check_vfs, &FsckOptions::default()).clean());
        // The repaired body is a fresh segment's own file; the log it
        // replaces is gone.
        let repaired = &manifest_of(&check_vfs).segments[0];
        assert_eq!((repaired.id, repaired.body.file), (1, BodyFile::Written));
        let written = persist::segment_path(&kb(), 1);
        assert_eq!(repaired.body.len, check_vfs.len(&written).unwrap());
        assert!(!check_vfs.exists(&seg_path));
        let store = KnowledgeStore::open_with_vfs(
            kb(),
            Arc::new(FaultVfs::from_state(check_vfs.durable_state())),
        )
        .unwrap();
        let rows = store.snapshot().materialize().unwrap();
        assert_eq!(rows.row_count("summaries").unwrap(), 0);
        assert_eq!(rows.row_count("performances").unwrap(), 1);
        assert!(store.indexes_consistent().unwrap());
    }

    /// An adopted log was whole when the manifest named it: a record
    /// inside the length it recorded that no longer verifies, a byte past
    /// that length, or a byte short of it make the segment unusable —
    /// never a torn tail whose prefix is salvaged.
    #[test]
    fn an_adopted_log_is_whole_or_unusable() {
        let vfs = Arc::new(FaultVfs::pristine());
        let mut store = KnowledgeStore::open_with_vfs(kb(), vfs.clone()).unwrap();
        for command in ["first", "second"] {
            store
                .save_knowledge(&Knowledge::new(KnowledgeSource::Ior, command))
                .unwrap();
        }
        store.seal_active().unwrap();
        drop(store);
        let log = persist::wal_path(&kb(), 0);
        let sealed = vfs.read(&log).unwrap();
        let mut flipped = sealed.clone();
        let in_last_record = flipped.len() - 3;
        flipped[in_last_record] ^= 1;
        let longer = [sealed.as_slice(), b"\n"].concat();
        let shorter = sealed[..sealed.len() - 1].to_vec();
        for bytes in [flipped, longer, shorter] {
            let mut image = vfs.durable_state();
            image.insert(log.clone(), bytes);
            let damaged = Arc::new(FaultVfs::from_state(image));
            // Run 1 is in the first record, which still verifies.
            let store = KnowledgeStore::open_with_vfs(kb(), damaged.clone()).unwrap();
            let err = store.load_knowledge(1).unwrap_err();
            assert!(
                matches!(&err, DbError::Corrupt(e) if e.contains("sealed at")),
                "{err}"
            );
            let detect = fsck(&kb(), damaged.as_ref(), &FsckOptions::default());
            assert_eq!(detect.unrepaired(), 1, "{detect:?}");
            assert!(detect.findings[0].what.contains("unusable"), "{detect:?}");
        }
    }

    /// A crash can cut a record inside a multi-byte character: that line
    /// is a torn tail like any other, not a log that cannot be read.
    #[test]
    fn a_log_torn_inside_a_character_keeps_its_acknowledged_prefix() {
        let vfs = Arc::new(FaultVfs::pristine());
        let run = Knowledge::new(KnowledgeSource::Ior, "ior -o /scratch/müller/x");
        let mut store = KnowledgeStore::open_with_vfs(kb(), vfs.clone()).unwrap();
        for _ in 0..2 {
            store.save_knowledge(&run).unwrap();
        }
        drop(store);
        let log = persist::wal_path(&kb(), 0);
        let bytes = vfs.read(&log).unwrap();
        let u_umlaut = bytes.windows(2).rposition(|w| w == "ü".as_bytes()).unwrap();
        vfs.set_len(&log, u_umlaut as u64 + 1).unwrap();

        let store = KnowledgeStore::open_with_vfs(kb(), vfs.clone()).unwrap();
        assert_eq!(store.knowledge_count(), 1);
        drop(store);
        let detect = fsck(&kb(), vfs.as_ref(), &FsckOptions::default());
        assert_eq!(detect.unrepaired(), 1, "{detect:?}");
        let repair = repair_pass(&vfs);
        assert_eq!(
            (repair.repaired(), repair.unrepaired()),
            (1, 0),
            "{repair:?}"
        );
        assert!(fsck(&kb(), vfs.as_ref(), &FsckOptions::default()).clean());
        let mut store = KnowledgeStore::open_with_vfs(kb(), vfs.clone()).unwrap();
        store.save_knowledge(&run).unwrap();
        drop(store);
        let store = KnowledgeStore::open_with_vfs(kb(), vfs).unwrap();
        assert_eq!(store.knowledge_count(), 2);
    }

    #[test]
    fn a_document_that_is_not_a_manifest_is_corrupt_not_another_layout() {
        let mut no_counters = manifest_of(&two_generations()).to_json();
        if let Json::Obj(fields) = &mut no_counters {
            fields.remove("next_ids");
        }
        let single_image = Json::obj(vec![("format", Json::from("iokc-store"))]);
        for (doc, why) in [(no_counters, "next_ids"), (single_image, "format tag")] {
            let vfs = Arc::new(FaultVfs::pristine());
            persist::write_document_vfs(&kb(), vfs.as_ref(), &doc).unwrap();
            let Err(err) = KnowledgeStore::open_with_vfs(kb(), vfs.clone()) else {
                panic!("opened a store without {why}");
            };
            assert!(
                matches!(&err, DbError::Corrupt(e) if e.contains(why)),
                "{err}"
            );
            let report = fsck(&kb(), vfs.as_ref(), &FsckOptions::default());
            assert_eq!(report.unrepaired(), 1, "{report:?}");
            assert!(report.findings[0].what.contains("manifest undecodable"));
            assert!(KnowledgeStore::open_or_degraded_with_vfs(kb(), vfs).is_read_only());
        }
    }

    /// A segment body the decoder rejects — a log record, framed and
    /// checksummed, in which a row id occurs twice — under a valid
    /// manifest: corrupt to a query, one finding for fsck, dropped (and
    /// said so) on repair. Never an empty block.
    #[test]
    fn a_segment_body_the_decoder_rejects_is_unusable_and_dropped_on_repair() {
        let why = "IOFHsRuns: row 1 occurs twice";
        let vfs = Arc::new(FaultVfs::pristine());
        let mut store = KnowledgeStore::open_with_vfs(kb(), vfs.clone()).unwrap();
        store
            .save_knowledge(&Knowledge::new(KnowledgeSource::Ior, "sealed"))
            .unwrap();
        store.seal_active().unwrap();
        // Name segment 0 by its own `.seg-` log, as compaction does, and
        // forge the body there.
        let mut manifest = manifest_of(vfs.as_ref());
        vfs.remove_file(&manifest.segments[0].file(&kb())).unwrap();
        manifest.segments[0].body.file = BodyFile::Written;
        let seg_path = manifest.segments[0].file(&kb());
        journal::JournalWriter::open_vfs(&seg_path, vfs.as_ref())
            .unwrap()
            .append(r#"{"rows":{"IOFHsRuns":[[1,null,null],[1,null,null]]}}"#)
            .unwrap();
        manifest.segments[0].body.len = vfs.len(&seg_path).unwrap();
        persist::write_document_vfs(&kb(), vfs.as_ref(), &manifest.to_json()).unwrap();

        let store = KnowledgeStore::open_with_vfs(kb(), vfs.clone()).unwrap();
        let err = store.load_knowledge(1).unwrap_err();
        assert!(
            matches!(&err, DbError::Corrupt(e) if e.contains(why)),
            "{err}"
        );
        let detect = fsck(&kb(), vfs.as_ref(), &FsckOptions::default());
        assert_eq!(detect.unrepaired(), 1, "{detect:?}");
        let what = &detect.findings[0].what;
        assert!(what.contains("unusable") && what.contains(why), "{what}");
        let repair = repair_pass(&vfs);
        assert_eq!(
            (repair.repaired(), repair.unrepaired()),
            (1, 0),
            "{repair:?}"
        );
        assert!(repair
            .notes
            .iter()
            .any(|n| n.contains("DATA LOSS: segment 0")));
        assert!(fsck(&kb(), vfs.as_ref(), &FsckOptions::default()).clean());
        assert_eq!(
            KnowledgeStore::open_with_vfs(kb(), vfs)
                .unwrap()
                .knowledge_count(),
            0
        );
    }

    /// A valid record appended a second time re-inserts ids the block
    /// already holds: corruption, not a silent overwrite.
    #[test]
    fn a_log_record_that_occurs_twice_is_corruption() {
        let vfs = Arc::new(two_generations());
        let log = persist::wal_path(&kb(), 0);
        let records = vfs.read(&log).unwrap();
        let mut file = vfs.create(&log).unwrap();
        file.write_all(&records.repeat(2)).unwrap();
        file.sync().unwrap();

        let Err(err) = KnowledgeStore::open_with_vfs(kb(), vfs.clone()) else {
            panic!("opened a log that inserts run 1 twice");
        };
        let named = |e: &str| e.contains("record 2") && e.contains("row 1 occurs twice");
        assert!(matches!(&err, DbError::Corrupt(e) if named(e)), "{err}");
        let report = fsck(&kb(), vfs.as_ref(), &FsckOptions::default());
        assert_eq!(report.unrepaired(), 1, "{report:?}");
        assert!(report.findings[0]
            .what
            .contains("active generation unusable"));
    }

    #[test]
    fn corrupt_manifest_is_unrepairable_moves_nothing_and_the_store_degrades() {
        let vfs = two_generations();
        vfs.set_len(&kb(), 7).unwrap();
        // Files a repair would sweep under a good manifest — the copy an
        // earlier binary would have promoted among them.
        for stray in [
            persist::temp_path(&kb()),
            persist::wal_path(&kb(), 1),
            backup_path(&kb()),
        ] {
            let mut file = vfs.create(&stray).unwrap();
            file.write_all(b"stray").unwrap();
            file.sync().unwrap();
        }
        let before = vfs.durable_state();

        let repair = repair_pass(&vfs);
        assert_eq!(
            (repair.repaired(), repair.unrepaired()),
            (0, 1),
            "{repair:?}"
        );
        assert!(repair.findings[0].what.contains("manifest unusable"));
        assert_eq!(vfs.durable_state(), before);

        let store = KnowledgeStore::open_or_degraded_with_vfs(
            kb(),
            Arc::new(FaultVfs::from_state(vfs.durable_state())),
        );
        assert!(store.is_read_only());
        assert_eq!(store.health().status(), "degraded");
        // Reads keep working over the empty schema instead of erroring.
        assert_eq!(store.knowledge_count(), 0);
        assert!(store.load_knowledge(1).unwrap().is_none());
    }

    #[test]
    fn torn_journal_tail_is_salvaged() {
        let vfs = two_generations();
        let journal_path = PathBuf::from("/events.journal");
        {
            let mut writer = journal::JournalWriter::open_vfs(&journal_path, &vfs).unwrap();
            writer.append("alpha").unwrap();
            writer.append("beta").unwrap();
        }
        let len = vfs.len(&journal_path).unwrap();
        vfs.set_len(&journal_path, len - 4).unwrap();

        let opts = FsckOptions {
            repair: true,
            journal: Some(journal_path.clone()),
        };
        let repair = fsck(&kb(), &vfs, &opts);
        assert_eq!(repair.repaired(), 1, "{repair:?}");
        let after = fsck(&kb(), &vfs, &opts);
        assert!(after.clean(), "{after:?}");
        let report = journal::read_journal_vfs(&journal_path, &vfs).unwrap();
        assert_eq!(report.records, vec!["alpha".to_owned()]);
    }

    /// A `--journal` is not one of the store's files: beside an unusable
    /// manifest it is still checked and repaired, and the note says so.
    #[test]
    fn a_torn_journal_is_repaired_beside_an_unusable_manifest() {
        let vfs = two_generations();
        vfs.set_len(&kb(), 100).unwrap();
        let store_files = vfs.durable_state();
        let journal_path = PathBuf::from("/campaign.journal");
        let mut writer = journal::JournalWriter::open_vfs(&journal_path, &vfs).unwrap();
        writer.append("alpha").unwrap();
        writer.append("beta").unwrap();
        vfs.set_len(&journal_path, vfs.len(&journal_path).unwrap() - 5)
            .unwrap();
        let opts = FsckOptions {
            repair: true,
            journal: Some(journal_path.clone()),
        };
        let repair = fsck(&kb(), &vfs, &opts);
        let found: Vec<_> = (repair.findings.iter())
            .map(|f| (f.what.contains("manifest unusable"), f.repaired))
            .collect();
        assert_eq!(found, [(true, false), (false, true)], "{repair:?}");
        assert!(repair.findings[1].what.contains("torn tail"));
        let note = "without a manifest no other file of the store was checked, swept or rewritten";
        assert_eq!(repair.notes, [note]);
        let report = journal::read_journal_vfs(&journal_path, &vfs).unwrap();
        assert_eq!((report.records.len(), report.torn_tail), (1, false));
        let mut after = vfs.durable_state();
        after.remove(&journal_path);
        assert_eq!(after, store_files);
    }
}
