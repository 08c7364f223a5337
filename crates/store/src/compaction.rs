//! Background compaction for the segmented store.
//!
//! Sealing ([`KnowledgeStore::seal_active`]) produces many small,
//! immutable segments — each the log of the epoch it sealed — and
//! deleting a segment-resident run only hides it behind a tombstone.
//! Compaction is the maintenance pass that folds both back: it merges
//! every sealed segment into one, the log `<path>.seg-<id>`, physically
//! drops tombstoned runs, rewrites the merged segment's index block
//! ([`crate::SegmentMeta`]) and publishes the result with a single
//! manifest write — the commit point, exactly like sealing — after
//! which the input files are unlinked.
//!
//! A pass costs what it changes, not the size of the corpus: an input
//! with no tombstoned run whose file is one `rows` record is spliced
//! into the output as its bytes, once their framing and checksum verify
//! (else [`DbError::Corrupt`], before anything is written); each run of
//! other inputs is re-encoded from memory as one record, in input order
//! so that ids still ascend on replay. After the commit, the new body
//! takes the inputs' rows by move, copying only what a snapshot holds.
//!
//! Compaction never touches the active generation and never changes the
//! store's write [`crate::Snapshot::generation`]: it moves rows between
//! layers without changing what any read returns. Open snapshots
//! are immune — the bodies of every input segment are preloaded into
//! their shared [`crate::Segment`] handles *before* the old files are
//! unlinked, so a snapshot taken before the compaction keeps answering
//! from the pre-compaction layout for as long as it lives.
//!
//! Crash safety rides the same protocol as sealing: the merged segment
//! file is written first (a failure leaves it as a stray for `fsck` to
//! sweep, memory untouched), then the manifest (a failure there reloads
//! from disk, because either manifest generation may be durable). The
//! whole pass runs under a `store.compact` span with
//! `store.compaction.*` counters, and every I/O goes through the
//! store's [`crate::Vfs`]: `crash_at_every` in `tests/tests/store_model.rs`
//! replays seal and compaction with a power loss at every operation and
//! reopens every image `FaultVfs::crash_states()` exposes.

use crate::database::DbError;
use crate::journal;
use crate::knowledge_store::{delete_runs, KnowledgeStore, Manifest};
use crate::persist;
use crate::query::RunKind;
use crate::segment::{push_rows_record, BodyFile, Segment, SegmentBody, SegmentData, SegmentMeta};
use crate::vfs::Vfs;
use iokc_obs::SpanStatus;
use std::collections::BTreeSet;
use std::sync::Arc;

/// What a compaction pass would do, before doing it. The CLI's
/// `iokc compact` prints this; the explorer surfaces it as maintenance
/// pressure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionPlan {
    /// Ids of the sealed segments that would be merged, oldest first.
    pub input_segments: Vec<u64>,
    /// Tombstoned runs that would be physically dropped.
    pub tombstones_to_drop: usize,
}

impl CompactionPlan {
    /// True when compaction would change nothing: fewer than two
    /// segments and no tombstones.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.input_segments.len() < 2 && self.tombstones_to_drop == 0
    }
}

/// What a compaction pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Sealed segments merged away.
    pub segments_merged: usize,
    /// Tombstoned runs physically dropped.
    pub tombstones_dropped: usize,
    /// Live runs rewritten into the merged segment.
    pub runs_rewritten: usize,
    /// Id of the merged output segment, or `None` when the pass was a
    /// no-op or every input run was tombstoned.
    pub output_segment: Option<u64>,
    /// Bytes of the output spliced in from input files as they were.
    pub bytes_copied: u64,
    /// Bytes of the output encoded from memory. With `bytes_copied`,
    /// the output's length.
    pub bytes_encoded: u64,
}

impl KnowledgeStore {
    /// What [`KnowledgeStore::compact`] would do right now.
    #[must_use]
    pub fn compaction_plan(&self) -> CompactionPlan {
        CompactionPlan {
            input_segments: self.segments.iter().map(|s| s.meta.id).collect(),
            tombstones_to_drop: self.tombstones.len(),
        }
    }

    /// Merge all sealed segments into one, dropping tombstoned runs and
    /// rewriting the index block. No-op for stores with nothing to
    /// merge, and a [`DbError::ReadOnly`] for degraded ones. See the
    /// module docs for the crash and snapshot contracts.
    pub fn compact(&mut self) -> Result<CompactionReport, DbError> {
        self.ensure_writable()?;
        let plan = self.compaction_plan();
        if plan.is_noop() {
            return Ok(CompactionReport::default());
        }
        let recorder = Arc::clone(&self.obs.recorder);
        let span = recorder.start_span("store.compact", None, Some("analysis"), Some("store"));
        let result = self.compact_inner(&plan);
        let metrics = recorder.metrics();
        metrics.counter("store.compaction.runs").inc();
        match &result {
            Ok(report) => {
                metrics
                    .counter("store.compaction.segments_merged")
                    .add(report.segments_merged as u64);
                metrics
                    .counter("store.compaction.tombstones_dropped")
                    .add(report.tombstones_dropped as u64);
                metrics
                    .counter("store.compaction.bytes_copied")
                    .add(report.bytes_copied);
                metrics
                    .counter("store.compaction.bytes_encoded")
                    .add(report.bytes_encoded);
                recorder.end_span(&span, SpanStatus::Ok);
            }
            Err(e) => {
                recorder.log(Some(span.id), &format!("WARN store.compact failed: {e}"));
                recorder.end_span(&span, SpanStatus::Failed);
            }
        }
        result
    }

    fn compact_inner(&mut self, plan: &CompactionPlan) -> Result<CompactionReport, DbError> {
        // Preload every input body through the *shared* handles before
        // anything is unlinked: open snapshots hold the same `Arc`s and
        // keep reading the pre-compaction layout from memory. Build the
        // output log on the way, in input order: a block whose file can
        // be spliced in goes in as those bytes; a run of neighbours that
        // cannot — copied and trimmed when they lose rows — as one
        // table-major record. Re-encoding does not lengthen a block, so
        // the inputs' lengths are the output's capacity.
        let vfs = self.vfs.as_ref();
        let bound: u64 = self.segments.iter().map(|s| s.meta.body.len).sum();
        let mut image = Vec::with_capacity(bound.try_into().unwrap_or(0));
        let (mut inputs, mut pending, mut bytes_copied, mut bytes_encoded) = (vec![], 0..0, 0, 0);
        for (at, seg) in self.segments.iter().enumerate() {
            let data = seg.data(vfs)?;
            let tombstones = self.tombstones.as_ref();
            let spliced = if tombstones
                .iter()
                .any(|run| data.summaries.contains_key(run))
            {
                let mut trimmed = SegmentData::clone(&data);
                delete_runs(&mut trimmed.db, tombstones)?;
                trimmed.summaries.retain(|run, _| !tombstones.contains(run));
                inputs.push(Arc::new(trimmed));
                None
            } else {
                inputs.push(data);
                spliceable(seg, vfs)?
            };
            if let Some(bytes) = spliced {
                bytes_encoded += encode(&mut image, &inputs[pending]);
                image.extend_from_slice(&bytes);
                bytes_copied += bytes.len() as u64;
                pending = at + 1..at + 1;
            } else {
                pending.end = at + 1;
            }
        }
        bytes_encoded += encode(&mut image, &inputs[pending]);

        let live: usize = inputs.iter().map(|input| input.summaries.len()).sum();
        let output = if live == 0 {
            None
        } else {
            let seg_id = self.next_segment;
            let seg_path = persist::segment_path(&self.path, seg_id);
            persist::write_image(&seg_path, vfs, &image).map_err(|e| {
                persist::classify_io_error(&format!("compact segment {}", seg_path.display()), &e)
            })?;
            // The index block sees the runs kind by kind, ids ascending,
            // as it would over the merged body.
            let runs: Vec<_> = [RunKind::Benchmark, RunKind::Io500]
                .into_iter()
                .flat_map(|kind| inputs.iter().flat_map(move |i| i.of_kind(kind)))
                .collect();
            let body = SegmentBody {
                file: BodyFile::Written,
                len: image.len() as u64,
            };
            let meta = SegmentMeta::compute(seg_id, runs.into_iter(), body);
            Some((seg_path, meta))
        };
        drop(image);
        let manifest = Manifest {
            active_epoch: self.active_epoch,
            next_ids: self.epoch_base.clone(),
            next_segment: output
                .as_ref()
                .map_or(self.next_segment, |(_, meta)| meta.id + 1),
            tombstones: BTreeSet::new(),
            segments: output
                .as_ref()
                .map(|(_, meta)| vec![meta.clone()])
                .unwrap_or_default(),
        };
        if let Err(e) = persist::write_document_vfs(&self.path, vfs, &manifest.to_json()) {
            let classified = persist::classify_io_error(
                &format!("compact manifest {}", self.path.display()),
                &e,
            );
            self.reload_from_disk();
            return Err(classified);
        }

        // Commit point passed: swap memory and sweep the input files.
        // The write generation is untouched — no read changes.
        let report = CompactionReport {
            segments_merged: plan.input_segments.len(),
            tombstones_dropped: self.tombstones.len(),
            runs_rewritten: live,
            output_segment: output.as_ref().map(|(_, meta)| meta.id),
            bytes_copied: output.as_ref().map_or(0, |_| bytes_copied),
            bytes_encoded: output.as_ref().map_or(0, |_| bytes_encoded),
        };
        self.next_segment = manifest.next_segment;
        self.state.tombstones = Arc::default();
        self.manifest_dirty = false;
        // Drop the store's handles first, so that an input body no
        // snapshot holds is ours alone and moves instead of copying.
        let old_segments = std::mem::take(&mut self.state.segments);
        let stale: Vec<_> = old_segments
            .iter()
            .map(|s| s.path().to_path_buf())
            .collect();
        drop(old_segments);
        if let Some((seg_path, meta)) = output {
            // Each body is moved out of its handle unless a snapshot
            // still holds it. One that would not join (it cannot: ids
            // ascend from block to block) is read back from the file.
            let bodies = inputs.into_iter().map(Arc::unwrap_or_clone).collect();
            let segment = match SegmentData::concat(bodies) {
                Ok(merged) => Segment::preloaded(meta, seg_path, Arc::new(merged)),
                Err(_) => Segment::new(meta, seg_path),
            };
            self.state.segments = Arc::new(vec![Arc::new(segment)]);
        }
        for stale in stale {
            for file in [persist::temp_path(&stale), stale] {
                let _ = self.vfs.remove_file(&file);
            }
        }
        Ok(report)
    }
}

/// Append the blocks of `inputs`, if any, to `image` as one rows
/// record; returns its length.
fn encode(image: &mut Vec<u8>, inputs: &[Arc<SegmentData>]) -> u64 {
    if inputs.is_empty() {
        return 0;
    }
    let blocks: Vec<_> = inputs.iter().map(|input| &input.db).collect();
    push_rows_record(image, &blocks)
}

/// The file of `seg` when it can be spliced into a compaction's output
/// as it is — a log that is one record, of rows — its checksum and
/// framing verified; `None` when the body must be re-encoded instead (a
/// log of several records, a delete record). A file of another length
/// than its manifest recorded, or whose one record does not verify, is
/// corrupt.
fn spliceable(seg: &Segment, vfs: &dyn Vfs) -> Result<Option<Vec<u8>>, DbError> {
    let path = seg.path();
    let corrupt = |what: &str| DbError::Corrupt(format!("{}: {what}", path.display()));
    let bytes = vfs.read(path).map_err(|e| corrupt(&e.to_string()))?;
    if seg.meta.body.len != bytes.len() as u64 {
        return Err(corrupt("not the length its manifest recorded"));
    }
    match bytes.split_last() {
        Some((b'\n', first)) if first.contains(&b'\n') => return Ok(None),
        Some((b'\n', _)) => {}
        _ => return Err(corrupt("a log without a whole record")),
    }
    let (records, valid) = journal::valid_records(&bytes);
    if valid != bytes.len() {
        return Err(corrupt("its record does not verify"));
    }
    let rows = records.first().is_some_and(|r| r.starts_with("{\"rows\":"));
    Ok(rows.then_some(bytes))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::knowledge_store::Snapshot;
    use crate::query::{Query, RunKind, RunPredicate};
    use crate::value::Value;
    use crate::vfs::FaultVfs;
    use iokc_core::model::{Knowledge, KnowledgeItem, KnowledgeSource};
    use iokc_obs::DeadlineToken;
    use std::path::PathBuf;

    fn knowledge(i: usize) -> Knowledge {
        let mut k = Knowledge::new(KnowledgeSource::Ior, &format!("ior -w run-{i}"));
        k.pattern.api = if i.is_multiple_of(2) {
            "POSIX"
        } else {
            "MPIIO"
        }
        .into();
        k.pattern.tasks = 8 + i as u32;
        k
    }

    fn store_with_segments(
        seal_every: usize,
        runs: usize,
    ) -> (KnowledgeStore, Arc<FaultVfs>, PathBuf) {
        let path = PathBuf::from("/kb.json");
        let vfs = Arc::new(FaultVfs::pristine());
        let mut store =
            KnowledgeStore::open_with_vfs(path.clone(), Arc::<FaultVfs>::clone(&vfs)).unwrap();
        store.set_seal_threshold(seal_every);
        for i in 0..runs {
            store.save_knowledge(&knowledge(i)).unwrap();
        }
        (store, vfs, path)
    }

    fn commands(store: &KnowledgeStore) -> Vec<String> {
        store
            .query_summaries(&Query::all(), &DeadlineToken::unbounded())
            .unwrap()
            .into_iter()
            .map(|s| s.command)
            .collect()
    }

    #[test]
    fn compaction_merges_segments_and_drops_tombstones() {
        let (mut store, vfs, path) = store_with_segments(2, 6);
        assert_eq!(store.segment_metas().len(), 3);
        // Delete a sealed run: becomes a tombstone, not a row removal.
        assert!(store.delete_knowledge(1).unwrap());
        assert_eq!(store.tombstone_count(), 1);
        let before = commands(&store);
        assert_eq!(before.len(), 5);

        let report = store.compact().unwrap();
        assert_eq!(report.segments_merged, 3);
        assert_eq!(report.tombstones_dropped, 1);
        assert_eq!(report.runs_rewritten, 5);
        assert!(report.output_segment.is_some());
        assert_eq!(store.segment_metas().len(), 1);
        assert_eq!(store.tombstone_count(), 0);
        assert_eq!(commands(&store), before);

        // The merged layout survives a reopen.
        let reopened = KnowledgeStore::open_with_vfs(path, vfs).unwrap();
        assert_eq!(reopened.segment_metas().len(), 1);
        assert_eq!(commands(&reopened), before);
        assert!(reopened.load_knowledge(1).unwrap().is_none());
    }

    #[test]
    fn compaction_is_a_noop_without_pressure() {
        let (mut store, _vfs, _path) = store_with_segments(2, 2);
        assert_eq!(store.segment_metas().len(), 1);
        assert!(store.compaction_plan().is_noop());
        let report = store.compact().unwrap();
        assert_eq!(report, CompactionReport::default());
        assert_eq!(store.segment_metas().len(), 1);
    }

    #[test]
    fn compaction_can_empty_the_store() {
        let (mut store, vfs, path) = store_with_segments(1, 2);
        assert_eq!(store.segment_metas().len(), 2);
        assert!(store.delete_knowledge(1).unwrap());
        assert!(store.delete_knowledge(2).unwrap());
        let report = store.compact().unwrap();
        assert_eq!(report.output_segment, None);
        assert_eq!(report.tombstones_dropped, 2);
        assert_eq!(store.segment_metas().len(), 0);
        assert_eq!(store.count(&RunPredicate::True).unwrap(), 0);
        let reopened = KnowledgeStore::open_with_vfs(path, vfs).unwrap();
        assert_eq!(reopened.count(&RunPredicate::True).unwrap(), 0);
    }

    #[test]
    fn snapshot_survives_compaction_and_file_removal() {
        let (mut store, _vfs, _path) = store_with_segments(2, 6);
        assert!(store.delete_knowledge(3).unwrap());
        let snapshot = store.snapshot();
        let report = store.compact().unwrap();
        assert!(report.output_segment.is_some());
        // The snapshot still sees the pre-compaction state: 5 live runs
        // (the tombstone was already hiding run 3) served from the
        // preloaded bodies of segments whose files are now gone.
        let summaries = snapshot
            .query_summaries(&Query::all(), &DeadlineToken::unbounded())
            .unwrap();
        assert_eq!(summaries.len(), 5);
        assert!(snapshot.load_knowledge(3).unwrap().is_none());
        assert!(snapshot.load_knowledge(4).unwrap().is_some());
    }

    #[test]
    fn compaction_counters_and_generation() {
        let (mut store, _vfs, _path) = store_with_segments(2, 4);
        let recorder = Arc::new(iokc_obs::Recorder::disabled());
        store.attach_recorder(Arc::clone(&recorder));
        let generation = store.generation();
        store.compact().unwrap();
        assert_eq!(store.generation(), generation);
        let counters = recorder.metrics().counters();
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("store.compaction.runs"), 1);
        assert_eq!(get("store.compaction.segments_merged"), 2);
    }

    /// Two one-batch blocks of 10 runs each, their bodies resident: both
    /// are spliced into the output as their files.
    fn two_clean_blocks() -> (KnowledgeStore, Arc<FaultVfs>, PathBuf) {
        let (mut store, vfs, path) = store_with_segments(1 << 20, 0);
        for block in 0..2 {
            let batch: Vec<KnowledgeItem> = (block * 10..block * 10 + 10)
                .map(|i| KnowledgeItem::Benchmark(knowledge(i)))
                .collect();
            store.save_batch(&batch).unwrap();
            store.seal_active().unwrap();
        }
        assert_eq!(commands(&store).len(), 20);
        (store, vfs, path)
    }

    /// Where the first text cell of the first `performances` row of a
    /// block keeps its bytes: the same address means the row was moved.
    fn first_text_at(db: &Database) -> usize {
        let row = &db.rows("performances").unwrap()[0];
        let text = row.values.iter().find_map(Value::as_text).unwrap();
        text.as_ptr() as usize
    }

    #[test]
    fn a_flipped_byte_in_a_spliced_block_aborts_before_anything_is_written() {
        let (mut store, vfs, path) = two_clean_blocks();
        let log = store.segments[0].path().to_path_buf();
        let mut bytes = vfs.read(&log).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        assert_ne!(bytes[at], b'\n');
        let mut file = vfs.create(&log).unwrap();
        file.write_all(&bytes).unwrap();
        file.sync().unwrap();
        drop(file);
        let (disk, metas, before) = (vfs.durable_state(), store.segment_metas(), commands(&store));

        let err = store.compact().unwrap_err();
        assert!(
            matches!(&err, DbError::Corrupt(e) if e.contains("does not verify")),
            "{err}"
        );
        assert_eq!(vfs.durable_state(), disk, "no file written or removed");
        assert_eq!(store.segment_metas(), metas);
        assert_eq!(commands(&store), before);
        let (manifest, _) = Manifest::read(&path, vfs.as_ref()).unwrap();
        assert_eq!(manifest.segments, metas);
    }

    #[test]
    fn a_pinned_snapshot_keeps_its_rows_and_the_merged_body_copies_them() {
        let (mut store, vfs, _path) = two_clean_blocks();
        let snap = store.snapshot();
        let pinned = snapshot_view(&snap);
        let before = first_text_at(&snap.segments[0].data(vfs.as_ref()).unwrap().db);
        let report = store.compact().unwrap();
        assert_eq!(report.bytes_encoded, 0, "both blocks spliced");
        assert_eq!(snapshot_view(&snap), pinned);
        let kept = snap.segments[0].data(vfs.as_ref()).unwrap();
        assert_eq!(first_text_at(&kept.db), before);
        let merged = store.segments[0].data(vfs.as_ref()).unwrap();
        assert_ne!(first_text_at(&merged.db), before, "copied, not moved");
    }

    #[test]
    fn with_nothing_pinned_the_merged_body_takes_the_rows_by_move() {
        let (mut store, vfs, _path) = two_clean_blocks();
        let before = first_text_at(&store.segments[0].data(vfs.as_ref()).unwrap().db);
        let report = store.compact().unwrap();
        assert_eq!(report.runs_rewritten, 20);
        let merged = store.segments[0].data(vfs.as_ref()).unwrap();
        assert_eq!(first_text_at(&merged.db), before, "moved, not copied");
    }

    /// Everything a snapshot answers, as one comparable value: the
    /// pinned generation, every summary row, and a full deserialization
    /// of each benchmark run.
    fn snapshot_view(snap: &Snapshot) -> (u64, Vec<(RunKind, u64, String)>, usize) {
        let rows = snap
            .query_summaries(&Query::all(), &DeadlineToken::unbounded())
            .unwrap();
        let loaded = rows
            .iter()
            .filter(|r| r.kind == RunKind::Benchmark)
            .filter(|r| snap.load_knowledge(r.id).unwrap().is_some())
            .count();
        (
            snap.generation(),
            rows.into_iter()
                .map(|r| (r.kind, r.id, r.command))
                .collect(),
            loaded,
        )
    }

    mod properties {
        use super::*;
        use crate::database::Row;
        use crate::knowledge_store::{build_schema, copy_all_rows};
        use crate::query::RunKind;
        use iokc_core::model::Io500Knowledge;
        use proptest::prelude::*;

        /// The merge compaction did before it spliced blocks: every
        /// input's rows copied, oldest first, then one cascade delete of
        /// every tombstone.
        fn model_merge(store: &KnowledgeStore) -> SegmentData {
            let mut merged = SegmentData::empty(build_schema());
            for seg in store.segments.iter() {
                let data = seg.data(store.vfs()).unwrap();
                copy_all_rows(&data.db, &mut merged.db).unwrap();
                let live = data
                    .summaries
                    .iter()
                    .filter(|(run, _)| !store.tombstones.contains(run));
                merged
                    .summaries
                    .extend(live.map(|(run, s)| (*run, s.clone())));
            }
            delete_runs(&mut merged.db, &store.tombstones).unwrap();
            merged
        }

        fn tables(db: &Database) -> Vec<(&String, &Vec<Row>)> {
            db.tables.iter().map(|(name, t)| (name, &t.rows)).collect()
        }

        /// Whether compaction may splice a block's file in: no tombstoned
        /// run, and one record, of rows.
        fn spliceable_file(store: &KnowledgeStore, seg: &Segment, bytes: &[u8]) -> bool {
            let data = seg.data(store.vfs()).unwrap();
            let clean = !store
                .tombstones
                .iter()
                .any(|run| data.summaries.contains_key(run));
            let records = bytes.iter().filter(|&&b| b == b'\n').count();
            // A magic (`j2 `, or the legacy `j1 `), 16 checksum digits
            // and a space frame the payload.
            clean
                && (bytes.starts_with(b"j2 ") || bytes.starts_with(b"j1 "))
                && records == 1
                && bytes[20..].starts_with(b"{\"rows\":")
        }

        fn item(n: usize) -> KnowledgeItem {
            if n % 5 == 4 {
                return KnowledgeItem::Io500(Io500Knowledge {
                    id: None,
                    tasks: n as u32,
                    bw_score: 1.5,
                    md_score: 10.0,
                    total_score: 3.9,
                    testcases: Vec::new(),
                    options: std::iter::once(("n".to_owned(), n.to_string())).collect(),
                    system: None,
                    start_time: 0,
                    warnings: vec!["partial".into(); n % 2],
                });
            }
            let run = knowledge(n);
            KnowledgeItem::Benchmark(if n.is_multiple_of(7) {
                run.with_warning("w")
            } else {
                run
            })
        }

        #[derive(Debug, Clone)]
        enum Step {
            Save(usize),
            Delete(u16),
            Seal,
            Compact,
        }

        fn arb_step() -> impl Strategy<Value = Step> {
            (0u8..11, 1usize..41, any::<u16>()).prop_map(|(kind, n, pick)| match kind {
                0..=3 => Step::Save(n),
                4..=6 => Step::Delete(pick),
                7 | 8 => Step::Seal,
                _ => Step::Compact,
            })
        }

        /// Compact, and hold the pass to [`model_merge`]: the same rows
        /// and summaries, in memory and after a reopen; an output exactly
        /// as long as what it copied and encoded; every block it could
        /// splice in there as its bytes.
        fn compact_and_check(
            store: &mut KnowledgeStore,
            vfs: &Arc<FaultVfs>,
            path: &std::path::Path,
        ) {
            if store.compaction_plan().is_noop() {
                prop_assert_eq!(store.compact().unwrap(), CompactionReport::default());
                return;
            }
            let model = model_merge(store);
            let mut spliced = Vec::new();
            for seg in store.segments.iter() {
                let bytes = vfs.read(seg.path()).unwrap();
                if spliceable_file(store, seg, &bytes) {
                    spliced.push(bytes);
                }
            }
            let report = store.compact().unwrap();
            prop_assert_eq!(report.runs_rewritten, model.summaries.len());
            let Some(seg) = store.segments.first() else {
                prop_assert!(model.summaries.is_empty());
                return;
            };
            let body = seg.data(vfs.as_ref()).unwrap();
            prop_assert_eq!(tables(&body.db), tables(&model.db));
            prop_assert_eq!(&body.summaries, &model.summaries);
            let reopened =
                KnowledgeStore::open_with_vfs(path.to_path_buf(), Arc::<FaultVfs>::clone(vfs))
                    .unwrap();
            let again = reopened.segments[0].data(vfs.as_ref()).unwrap();
            prop_assert_eq!(tables(&again.db), tables(&model.db));
            prop_assert_eq!(&again.summaries, &model.summaries);
            let file = vfs.read(seg.path()).unwrap();
            prop_assert_eq!(
                report.bytes_copied + report.bytes_encoded,
                file.len() as u64
            );
            let copied: usize = spliced.iter().map(Vec::len).sum();
            prop_assert_eq!(report.bytes_copied, copied as u64);
            let records: Vec<&[u8]> = file.split_inclusive(|&b| b == b'\n').collect();
            for bytes in &spliced {
                prop_assert!(records.contains(&bytes.as_slice()));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Compaction against the merge it replaced, over histories of
            /// batches of 1–40 runs of both kinds, deletes of active and
            /// sealed runs, seals and repeated compactions (whose outputs
            /// become inputs).
            #[test]
            fn compaction_equals_the_copying_merge(
                steps in proptest::collection::vec(arb_step(), 1..24),
                seal_every in 16usize..96,
            ) {
                let (mut store, vfs, path) = store_with_segments(seal_every, 0);
                let mut next = 0;
                for step in steps.into_iter().chain([Step::Compact]) {
                    match step {
                        Step::Save(n) => {
                            let batch: Vec<KnowledgeItem> = (next..next + n).map(item).collect();
                            next += n;
                            store.save_batch(&batch).unwrap();
                        }
                        Step::Delete(pick) => {
                            let live = store
                                .query_summaries(&Query::all(), &DeadlineToken::unbounded())
                                .unwrap();
                            if !live.is_empty() {
                                let run = &live[usize::from(pick) % live.len()];
                                let gone = match run.kind {
                                    RunKind::Benchmark => store.delete_knowledge(run.id),
                                    RunKind::Io500 => store.delete_io500(run.id),
                                };
                                prop_assert!(gone.unwrap());
                            }
                        }
                        Step::Seal => store.seal_active().unwrap(),
                        Step::Compact => compact_and_check(&mut store, &vfs, &path),
                    }
                }
            }

            /// MVCC immunity: a snapshot pinned before an arbitrary
            /// interleaving of saves, deletes, seals and compactions
            /// keeps answering exactly the pinned state, even though the
            /// mutations rewrite, merge and unlink the files under it.
            #[test]
            fn snapshot_reads_are_immune_to_concurrent_mutation(
                ops in proptest::collection::vec(0u8..4, 1..20),
                seal_every in 1usize..4,
            ) {
                let (mut store, _vfs, _path) = store_with_segments(seal_every, 5);
                let snap = store.snapshot();
                let pinned = snapshot_view(&snap);
                let mut next = 5usize;
                for op in ops {
                    match op {
                        0 => {
                            store.save_knowledge(&knowledge(next)).unwrap();
                            next += 1;
                        }
                        1 => {
                            let live = store
                                .query_summaries(&Query::all(), &DeadlineToken::unbounded())
                                .unwrap();
                            if let Some(first) =
                                live.iter().find(|r| r.kind == RunKind::Benchmark)
                            {
                                store.delete_knowledge(first.id).unwrap();
                            }
                        }
                        2 => store.seal_active().unwrap(),
                        _ => drop(store.compact().unwrap()),
                    }
                    prop_assert_eq!(snapshot_view(&snap), pinned.clone());
                }
            }
        }
    }
}
