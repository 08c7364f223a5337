//! The paper's knowledge schema bound onto the store's tables.
//!
//! §V-C: benchmark knowledge lives in four tables — `performances`
//! (pattern + command, one row per knowledge object), `summaries`
//! (per-operation statistics, FK `performance_id`), `results` (individual
//! iteration results, FK `summary_id`), `filesystems` (BeeGFS settings) —
//! plus `systeminfos` for the `/proc` statistics. IO500 knowledge is kept
//! in its own tables: `IOFHsRuns`, `IOFHsScores`, `IOFHsTestcases`,
//! `IOFHsOptions`, `IOFHsResults` and `IOFHsSystem`, keyed by `IOFH_id`.
//! A run's rows are inserted parent first, each child right after its
//! parent, so every foreign key is non-decreasing in id order and
//! `BlockReader` joins a block's runs back together by walking each
//! child table forward ([`ForeignKeyRows::walk`](crate::database::ForeignKeyRows::walk)).
//! `warnings` serves both kinds, so its `owner_id` is ordered per owner
//! only: a reader filters it for one run or groups it for many.
//!
//! [`KnowledgeStore`] implements [`iokc_core::Persister`] (the "local
//! database" of Fig. 4; a second store instance models the "global
//! database"). There is one kind of store: an in-memory one is a store
//! whose files live on a private [`FaultVfs`], as SQLite's `:memory:` is
//! the same engine on another pager.

use crate::database::{Column, Counters, Database, DbError, ForeignKeyWalk, Row, TableSchema};
use crate::persist;
use crate::query::{OpStat, Query, QueryObs, RunKind, RunPredicate, RunRef, RunSummary};
use crate::segment::{BodyFile, Segment, SegmentBody, SegmentData, SegmentMeta};
use crate::value::{ColumnType, Value};
use crate::vfs::{FaultVfs, StdVfs, Vfs};
use crate::wal::{self, Delta, Wal};
use iokc_core::ctx::PhaseCtx;
use iokc_core::model::{
    FilesystemInfo, Io500Knowledge, Io500Testcase, IoPattern, IterationResult, Knowledge,
    KnowledgeItem, KnowledgeSource, OperationSummary, SystemInfo,
};
use iokc_core::phases::{CycleError, Persister, PhaseKind};
use iokc_util::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Format tag of the manifest document at a store's nominal path. A
/// store on disk is that manifest, the active generation's log
/// `.wal-<epoch>` and the sealed segments — logs of earlier epochs a
/// seal adopted, and `.seg-<id>` logs compaction or repair wrote, each
/// of the length the manifest records; a file at the nominal path that
/// is anything else is `Corrupt`.
const MANIFEST_FORMAT: &str = "iokc-manifest";

/// Active generations seal into segments at this many logged operations
/// (runs saved plus active runs deleted) unless
/// [`KnowledgeStore::set_seal_threshold`] overrides it.
const DEFAULT_SEAL_THRESHOLD: usize = 1024;

/// How healthy a store is, from the perspective of anything serving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreHealth {
    /// The files loaded cleanly (or the store is fresh).
    Ok,
    /// Corruption (or an unreadable disk): the store is serving an
    /// empty schema read-only rather than refusing to open.
    Degraded {
        /// What went wrong.
        reason: String,
    },
}

impl StoreHealth {
    /// Whether the store is read-only because of corruption.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(self, StoreHealth::Degraded { .. })
    }

    /// The health as a stable lowercase token (`ok` / `degraded`) for
    /// health endpoints and logs.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            StoreHealth::Ok => "ok",
            StoreHealth::Degraded { .. } => "degraded",
        }
    }

    /// Human-readable detail when not `Ok`.
    #[must_use]
    pub fn detail(&self) -> Option<&str> {
        match self {
            StoreHealth::Ok => None,
            StoreHealth::Degraded { reason } => Some(reason),
        }
    }
}

/// The knowledge database.
///
/// Reads go through the store's [`Snapshot`] (the store dereferences to
/// it): `query_ids`, `query_summaries`, `query_items`, `count`,
/// `boxplot_series`, `aggregate`, `load_knowledge`, `load_io500` and
/// `generation` are the snapshot's methods, run against the live state.
pub struct KnowledgeStore {
    /// Everything a read needs — the active block, the sealed segments
    /// and the tombstones, each behind an `Arc`.
    /// [`KnowledgeStore::snapshot`] is a clone of this value; writers
    /// mutate the parts copy-on-write (`Arc::make_mut`), so a part is
    /// copied only while a pin on it is outstanding.
    pub(crate) state: Snapshot,
    /// The manifest's path: every write is made durable under it.
    pub(crate) path: PathBuf,
    /// Health at and since open: `Degraded` stores reject writes.
    health: StoreHealth,
    /// Epoch of the active generation's log (`<path>.wal-<epoch>`);
    /// bumped by every seal.
    pub(crate) active_epoch: u64,
    /// Every table's auto-increment counter when this epoch began: what
    /// the log replays onto.
    pub(crate) epoch_base: Counters,
    /// Operations (runs saved, active runs deleted) applied to the active
    /// block this epoch: the length of the log a reopen replays, counted
    /// against the seal threshold.
    epoch_ops: usize,
    /// The append side of this epoch's log.
    pub(crate) wal: Wal,
    /// The id the next sealed segment will take.
    pub(crate) next_segment: u64,
    /// Seal the active generation once its log holds this many
    /// operations.
    seal_threshold: usize,
    /// Whether the manifest at `path` needs rewriting on the next
    /// flush (new tombstone, fresh store).
    pub(crate) manifest_dirty: bool,
}

impl std::ops::Deref for KnowledgeStore {
    type Target = Snapshot;

    fn deref(&self) -> &Snapshot {
        &self.state
    }
}

impl KnowledgeStore {
    /// A store over an empty schema, whose first write commits its
    /// manifest.
    fn empty(path: PathBuf, vfs: Arc<dyn Vfs>, health: StoreHealth) -> KnowledgeStore {
        KnowledgeStore {
            state: Snapshot {
                active: Arc::new(SegmentData::empty(build_schema())),
                segments: Arc::default(),
                tombstones: Arc::default(),
                vfs,
                obs: Arc::default(),
                generation: 0,
            },
            path,
            health,
            active_epoch: 0,
            epoch_base: Counters::new(),
            epoch_ops: 0,
            wal: Wal::default(),
            next_segment: 0,
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            manifest_dirty: true,
        }
    }

    /// A fresh store whose files live on its own
    /// [`FaultVfs::pristine`] disk, at the nominal path `:memory:`: it
    /// logs, seals and compacts like any other store, and nothing
    /// outlives it.
    #[must_use]
    pub fn in_memory() -> KnowledgeStore {
        let vfs = Arc::new(FaultVfs::pristine());
        KnowledgeStore::empty(":memory:".into(), vfs, StoreHealth::Ok)
    }

    /// A file-backed store: loads what is on disk when the manifest
    /// exists, otherwise starts fresh; every write is durable when it
    /// returns. A manifest that does not verify is [`DbError::Corrupt`].
    /// Opening writes nothing: a log tail torn by a crash is salvaged in
    /// memory and truncated by the first write.
    pub fn open(path: PathBuf) -> Result<KnowledgeStore, DbError> {
        KnowledgeStore::open_with_vfs(path, Arc::new(StdVfs))
    }

    /// [`KnowledgeStore::open`] over an explicit [`Vfs`].
    ///
    /// Opening a segmented store maps the manifest's segment metadata —
    /// id ranges, counts, membership filters — without loading any
    /// segment body; only the (bounded) active generation is replayed
    /// from its log and summarized. Open cost is proportional
    /// to the active generation, not the corpus.
    pub fn open_with_vfs(path: PathBuf, vfs: Arc<dyn Vfs>) -> Result<KnowledgeStore, DbError> {
        let loaded = load_state(&path, vfs.as_ref())?;
        let mut store = KnowledgeStore::empty(path, vfs, StoreHealth::Ok);
        store.state.generation = loaded.identity;
        store.install(loaded);
        Ok(store)
    }

    /// Open a file-backed store, degrading instead of failing: when the
    /// files are corrupt, the store comes up read-only over an empty
    /// schema with [`KnowledgeStore::health`] reporting `Degraded`, so a
    /// serving layer stays up (answering `/healthz` honestly) rather
    /// than dying.
    #[must_use]
    pub fn open_or_degraded(path: PathBuf) -> KnowledgeStore {
        KnowledgeStore::open_or_degraded_with_vfs(path, Arc::new(StdVfs))
    }

    /// [`KnowledgeStore::open_or_degraded`] over an explicit [`Vfs`].
    #[must_use]
    pub fn open_or_degraded_with_vfs(path: PathBuf, vfs: Arc<dyn Vfs>) -> KnowledgeStore {
        match KnowledgeStore::open_with_vfs(path.clone(), Arc::clone(&vfs)) {
            Ok(store) => store,
            Err(e) => {
                let store = KnowledgeStore::empty(
                    path,
                    vfs,
                    StoreHealth::Degraded {
                        reason: e.to_string(),
                    },
                );
                store.obs.recorder.log(
                    None,
                    &format!(
                        "WARN store.open_degraded: serving read-only over an empty schema: {e}"
                    ),
                );
                store
            }
        }
    }

    /// The store's health: `Ok`, or `Degraded` (read-only over an empty
    /// schema).
    #[must_use]
    pub fn health(&self) -> &StoreHealth {
        &self.health
    }

    /// Whether writes are rejected because the store is degraded.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.health.is_degraded()
    }

    /// The filesystem this store flushes through.
    #[must_use]
    pub fn vfs(&self) -> &dyn Vfs {
        self.vfs.as_ref()
    }

    /// Whether the incrementally-maintained active summary block — the
    /// only derived structure a read consults — agrees with a bulk
    /// rebuild from the active generation's rows: the crash-consistency
    /// checker's invariant.
    pub fn indexes_consistent(&self) -> Result<bool, DbError> {
        Ok(BlockReader::many(&self.active.db).summaries()? == self.active.summaries)
    }

    pub(crate) fn ensure_writable(&self) -> Result<(), DbError> {
        match &self.health {
            StoreHealth::Degraded { reason } => Err(DbError::ReadOnly(reason.clone())),
            _ => Ok(()),
        }
    }

    /// Access the *active generation's* database. Sealed segments are
    /// not visible here — whole-corpus access (the SQL surface) goes
    /// through [`Snapshot::materialize`].
    #[must_use]
    pub fn database(&self) -> &Database {
        &self.active.db
    }

    /// Pin the store's current state into an immutable [`Snapshot`].
    ///
    /// O(1): a fixed number of refcount bumps, whatever the size of the
    /// active generation or the corpus. The snapshot keeps answering
    /// from exactly this generation while the store ingests, seals,
    /// deletes, or compacts underneath it; the first write after a pin
    /// copies the (bounded) active block it is about to change.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.state.clone()
    }

    /// The sealed segments' metadata, oldest first.
    #[must_use]
    pub fn segment_metas(&self) -> Vec<SegmentMeta> {
        self.segments.iter().map(|s| s.meta.clone()).collect()
    }

    /// How many runs deleted out of sealed segments await compaction.
    #[must_use]
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Override the operation count (runs saved plus active runs
    /// deleted) at which the active generation seals into a segment
    /// (default 1024). Test and benchmark harnesses lower it to exercise
    /// sealing on small corpora.
    pub fn set_seal_threshold(&mut self, threshold: usize) {
        self.seal_threshold = threshold.max(1);
    }

    /// The manifest describing this store's current on-disk layout.
    pub(crate) fn manifest(&self) -> Manifest {
        Manifest {
            active_epoch: self.active_epoch,
            next_ids: self.epoch_base.clone(),
            next_segment: self.next_segment,
            tombstones: BTreeSet::clone(&self.tombstones),
            segments: self.segment_metas(),
        }
    }

    /// Number of benchmark knowledge objects stored. Routed through the
    /// query engine's [`Snapshot::count`] fast path — no row is
    /// materialized and no `Knowledge` is deserialized.
    #[must_use]
    pub fn knowledge_count(&self) -> usize {
        self.count(&RunPredicate::Kind(RunKind::Benchmark))
            .unwrap_or(0)
    }

    /// Number of IO500 knowledge objects stored. Same count fast path as
    /// [`KnowledgeStore::knowledge_count`].
    #[must_use]
    pub fn io500_count(&self) -> usize {
        self.count(&RunPredicate::Kind(RunKind::Io500)).unwrap_or(0)
    }

    /// Make a write durable: the manifest when it is dirty (a new
    /// tombstone, a fresh store's first write), then `delta` — what the
    /// write changed in the active generation — as one log record. On
    /// failure the error is classified ([`DbError::Full`] for
    /// ENOSPC-like conditions — the CLI maps it to the transient exit
    /// code — [`DbError::Io`] otherwise), the log is truncated back to
    /// its acknowledged length and the in-memory state is *reloaded from
    /// the last durable layout*, so an unacknowledged write is never
    /// visible to later reads nor replayed by a later open: memory and
    /// disk stay in agreement.
    fn flush(&mut self, delta: Option<Delta>) -> Result<(), DbError> {
        let manifest = match self.manifest_dirty {
            true => persist::write_document_vfs(&self.path, self.vfs(), &self.manifest().to_json()),
            false => Ok(()),
        };
        let result = manifest.and_then(|()| match &delta {
            Some(delta) => self.append_to_log(delta),
            None => Ok(()),
        });
        match result {
            Ok(()) => {
                self.manifest_dirty = false;
                Ok(())
            }
            Err(e) => {
                let classified =
                    persist::classify_io_error(&format!("flush {}", self.path.display()), &e);
                self.reload_from_disk();
                Err(classified)
            }
        }
    }

    /// Append one record to this epoch's log. A failed append is rolled
    /// back before the error is reported; a log that cannot be rolled
    /// back may hold the record whole, so the store stops writing to it
    /// and — because the reload that follows may replay that record —
    /// moves to a new write generation.
    fn append_to_log(&mut self, delta: &Delta) -> Result<(), std::io::Error> {
        let log = persist::wal_path(&self.path, self.active_epoch);
        let vfs = Arc::clone(&self.state.vfs);
        let result = self.wal.append(&log, vfs.as_ref(), delta);
        if result.is_err() {
            if let Err(e) = self.wal.rollback(&log, vfs.as_ref()) {
                self.degrade(format!(
                    "{} not truncated after a failed append: {e}",
                    log.display()
                ));
                self.state.generation += 1;
            }
        }
        result
    }

    /// Make loaded on-disk state this store's state.
    fn install(&mut self, loaded: LoadedState) {
        self.state.active = Arc::new(loaded.active);
        self.state.segments = Arc::new(loaded.segments);
        self.state.tombstones = Arc::new(loaded.tombstones);
        self.active_epoch = loaded.active_epoch;
        self.epoch_base = loaded.epoch_base;
        self.epoch_ops = loaded.replay.ops;
        self.wal.restart(&loaded.replay);
        self.wal
            .obs
            .replayed_records
            .add(loaded.replay.records as u64);
        self.next_segment = loaded.next_segment;
        self.manifest_dirty = loaded.manifest_dirty;
    }

    /// Reload the last durable layout after a failed flush or a failed
    /// seal/compaction commit. Keeps the generation counter: a caller
    /// whose failed write the reload can still show bumps it itself. If
    /// even the reload fails (the disk is gone), the store degrades to
    /// read-only rather than serving rows it cannot prove were
    /// persisted.
    ///
    /// What is read back is what the filesystem shows now; a manifest
    /// rename whose directory sync failed shows, yet is not durable. So
    /// the next flush commits the manifest again before it acknowledges
    /// anything logged under it.
    pub(crate) fn reload_from_disk(&mut self) {
        match load_state(&self.path, self.vfs.as_ref()) {
            Ok(loaded) => {
                self.install(loaded);
                self.manifest_dirty = true;
            }
            Err(e) => self.degrade(format!("reload after failed flush: {e}")),
        }
    }

    fn degrade(&mut self, reason: String) {
        self.obs
            .recorder
            .log(None, &format!("WARN store.open_degraded: {reason}"));
        self.health = StoreHealth::Degraded { reason };
    }

    /// Seal the active generation when its operations reached the
    /// threshold. Operations, not live runs: saves and deletes that
    /// cancel out still lengthen the log and its replay.
    fn maybe_seal(&mut self) -> Result<(), DbError> {
        if self.seal_due() {
            self.seal_active()
        } else {
            Ok(())
        }
    }

    fn seal_due(&self) -> bool {
        !self.health.is_degraded() && self.epoch_ops >= self.seal_threshold
    }

    /// Seal the active generation into an immutable segment and start a
    /// fresh, empty active generation with an empty log.
    ///
    /// The epoch's log already holds every row of the generation, in the
    /// encoding a segment body uses, so the seal *adopts* it: the
    /// segment's body is `<path>.wal-<epoch>`, and only the manifest is
    /// written. Protocol (disk first, memory only after the commit
    /// point):
    ///
    /// 1. truncate a tail torn before the epoch was reopened, so the log
    ///    holds exactly its acknowledged records, and compute the
    ///    segment's index block ([`SegmentMeta`]) from the active block's
    ///    summaries, with the epoch and the log's length;
    /// 2. remove any file stranded at the next epoch's log name, then
    ///    write the new manifest (the commit point): it names the new
    ///    segment, the *next* epoch, and every table's auto-increment
    ///    counter, which the next epoch's log replays onto — ids stay
    ///    globally unique across all segments, which is what lets
    ///    compaction merge segment databases by plain row copy;
    /// 3. when every run of the generation was deleted again there is no
    ///    segment: remove the superseded log instead.
    ///
    /// A failure before step 2 leaves memory, the old manifest and the
    /// log's records untouched. A failure *in* step 2 reloads from disk,
    /// because either manifest generation may have become durable. A
    /// crash before step 3 leaves the old log as a stray. The write
    /// generation does not change: sealing moves rows between layers
    /// without changing what any read returns. Each adoption is counted
    /// in `store.seal.adopted`.
    pub fn seal_active(&mut self) -> Result<(), DbError> {
        self.ensure_writable()?;
        if self.epoch_ops == 0 {
            return Ok(());
        }
        let (path, vfs) = (self.path.clone(), Arc::clone(&self.state.vfs));
        let log = persist::wal_path(&path, self.active_epoch);
        let counters = self.active.db.next_ids();
        let mut manifest = self.manifest();
        manifest.active_epoch += 1;
        manifest.next_ids = counters.clone();
        let mut adopted = None;
        if !self.active.summaries.is_empty() {
            self.wal
                .truncate_torn_tail(&log, vfs.as_ref())
                .map_err(|e| persist::classify_io_error(&format!("seal {}", log.display()), &e))?;
            let body = SegmentBody {
                file: BodyFile::Adopted(self.active_epoch),
                len: self.wal.len(),
            };
            let meta =
                SegmentMeta::compute(self.next_segment, self.active.summaries.values(), body);
            manifest.next_segment += 1;
            manifest.segments.push(meta.clone());
            adopted = Some(meta);
        }
        // A file already at the next log's name (a crash can strand one)
        // would replay into the new generation.
        let next_log = persist::wal_path(&path, manifest.active_epoch);
        let commit = match vfs.exists(&next_log) {
            true => vfs.remove_file(&next_log),
            false => Ok(()),
        }
        .and_then(|()| persist::write_document_vfs(&path, vfs.as_ref(), &manifest.to_json()));
        if let Err(e) = commit {
            let classified =
                persist::classify_io_error(&format!("seal manifest {}", path.display()), &e);
            self.reload_from_disk();
            return Err(classified);
        }
        // Commit point passed: swap memory. The block the store already
        // holds becomes the segment's preloaded body, so open snapshots
        // and the next queries keep working without reading the log back.
        let mut fresh = build_schema();
        fresh.bump_next_ids(&counters);
        let sealed = std::mem::replace(&mut self.state.active, Arc::new(SegmentData::empty(fresh)));
        match adopted {
            Some(meta) => {
                Arc::make_mut(&mut self.state.segments)
                    .push(Arc::new(Segment::preloaded(meta, log, sealed)));
                self.obs.recorder.counter("store.seal.adopted").inc();
            }
            // Best-effort cleanup of the superseded epoch; a crash here
            // leaves a stray that fsck sweeps.
            None => drop(vfs.remove_file(&log)),
        }
        self.active_epoch += 1;
        self.epoch_base = counters;
        self.epoch_ops = 0;
        self.wal.restart(&wal::Replay::default());
        self.next_segment = manifest.next_segment;
        self.manifest_dirty = false;
        Ok(())
    }

    /// Persist a benchmark knowledge object; returns its id.
    pub fn save_knowledge(&mut self, k: &Knowledge) -> Result<u64, DbError> {
        self.save_one(RunKind::Benchmark, |db| insert_knowledge_rows(db, k))
    }

    /// Persist an IO500 knowledge object; returns its `IOFH_id`.
    pub fn save_io500(&mut self, k: &Io500Knowledge) -> Result<u64, DbError> {
        self.save_one(RunKind::Io500, |db| insert_io500_rows(db, k))
    }

    fn save_one(
        &mut self,
        kind: RunKind,
        insert: impl FnOnce(&mut Database) -> Result<(i64, usize), DbError>,
    ) -> Result<u64, DbError> {
        self.ensure_writable()?;
        // A generation reopened at its threshold seals before it takes
        // another run, as it would have had the process lived on.
        self.maybe_seal()?;
        let mark = self.active.db.next_ids();
        let id = self.insert_rows(kind, insert)?;
        self.flush(Delta::rows_since(&self.active.db, &mark))?;
        self.state.generation += 1;
        self.maybe_seal()?;
        Ok(id)
    }

    /// Insert one run's rows into the active block (copy-on-write) and
    /// derive its summary from those rows — without flushing: the shared
    /// body of the `save_*` methods. `insert` returns the run's id and
    /// how many warnings it wrote, so no save reads the block's
    /// `warnings` table.
    fn insert_rows(
        &mut self,
        kind: RunKind,
        insert: impl FnOnce(&mut Database) -> Result<(i64, usize), DbError>,
    ) -> Result<u64, DbError> {
        let active = Arc::make_mut(&mut self.state.active);
        let (id, warnings) = insert(&mut active.db)?;
        let id = id as u64;
        let summary = BlockReader::one(&active.db).run_summary(RunRef { kind, id }, warnings)?;
        active.summaries.insert((kind, id), summary);
        self.epoch_ops += 1;
        Ok(id)
    }

    /// Delete a benchmark knowledge object and its dependent rows
    /// (summaries, results, filesystem, system info, warnings). An
    /// active-generation run is deleted physically; a segment-resident
    /// run is tombstoned (hidden from every read, dropped at the next
    /// compaction). Returns whether the object existed; the generation
    /// is bumped only when it did, so deleting nothing invalidates
    /// nothing.
    pub fn delete_knowledge(&mut self, id: u64) -> Result<bool, DbError> {
        self.delete_run(RunKind::Benchmark, id)
    }

    /// Delete an IO500 knowledge object and its dependent rows (scores,
    /// testcases + their results, options, system info, warnings).
    /// Returns whether the object existed; like
    /// [`KnowledgeStore::delete_knowledge`], the generation is bumped
    /// only when it did.
    pub fn delete_io500(&mut self, id: u64) -> Result<bool, DbError> {
        self.delete_run(RunKind::Io500, id)
    }

    fn delete_run(&mut self, kind: RunKind, id: u64) -> Result<bool, DbError> {
        self.ensure_writable()?;
        if !self.active.summaries.contains_key(&(kind, id)) {
            return self.tombstone_delete(kind, id);
        }
        let active = Arc::make_mut(&mut self.state.active);
        active.summaries.remove(&(kind, id));
        delete_runs(&mut active.db, &BTreeSet::from([(kind, id)]))?;
        self.epoch_ops += 1;
        // A failed flush reloads the block from disk.
        self.flush(Some(Delta::delete(kind, id)))?;
        self.state.generation += 1;
        self.maybe_seal()?;
        Ok(true)
    }

    /// Tombstone a segment-resident run: the rows stay in their
    /// immutable segment, the manifest hides them from every read, and
    /// the next compaction drops them physically.
    fn tombstone_delete(&mut self, kind: RunKind, id: u64) -> Result<bool, DbError> {
        if self.locate(kind, id)?.is_none() {
            return Ok(false);
        }
        Arc::make_mut(&mut self.state.tombstones).insert((kind, id));
        self.manifest_dirty = true;
        // A failed flush reloads from disk: the delete is only
        // acknowledged once durable. The reload un-inserts the tombstone
        // unless the manifest rename landed and only its directory sync
        // failed — then reads changed although the delete is reported
        // failed.
        let flushed = self.flush(None);
        if flushed.is_ok() || self.tombstones.contains(&(kind, id)) {
            self.state.generation += 1;
        }
        flushed.map(|()| true)
    }

    /// Persist a batch of knowledge items with one durability point: the
    /// rows accumulate in the active generation, one log record covers
    /// what the batch added when it ends, and the write generation bumps
    /// once. A seal inside the batch first logs the batch's rows so far
    /// as one record, so the log it adopts holds its whole generation.
    /// Returns the assigned ids in input order. On error the store
    /// reloads the last durable layout: the only rows of a failed batch
    /// that stay visible are a prefix that a seal inside it logged, and
    /// then the write generation bumps.
    pub fn save_batch(&mut self, items: &[KnowledgeItem]) -> Result<Vec<u64>, DbError> {
        self.ensure_writable()?;
        // As in `save_one`: a generation reopened at its threshold seals
        // before it takes another run.
        self.maybe_seal()?;
        let before = (self.active_epoch, self.epoch_ops);
        match self.save_batch_inner(items) {
            Ok(ids) => Ok(ids),
            Err(e) => {
                self.reload_from_disk();
                if (self.active_epoch, self.epoch_ops) != before {
                    self.state.generation += 1;
                }
                Err(e)
            }
        }
    }

    fn save_batch_inner(&mut self, items: &[KnowledgeItem]) -> Result<Vec<u64>, DbError> {
        // A seal moves the rows it logged out of the active database, so
        // what is at or past this mark is always what is not logged yet.
        let mark = self.active.db.next_ids();
        let mut ids = Vec::with_capacity(items.len());
        for item in items {
            ids.push(match item {
                KnowledgeItem::Benchmark(k) => {
                    self.insert_rows(RunKind::Benchmark, |db| insert_knowledge_rows(db, k))?
                }
                KnowledgeItem::Io500(k) => {
                    self.insert_rows(RunKind::Io500, |db| insert_io500_rows(db, k))?
                }
            });
            // Sealing inside the batch keeps it from holding more than one
            // generation's worth of rows in memory. The rows it added so
            // far join the log first: the seal adopts the log whole.
            if self.seal_due() {
                self.flush(Delta::rows_since(&self.active.db, &mark))?;
                self.seal_active()?;
            }
        }
        self.flush(Delta::rows_since(&self.active.db, &mark))?;
        self.state.generation += 1;
        Ok(ids)
    }
}

/// Insert a benchmark knowledge object's rows; returns its
/// `performances` id and its number of warnings.
fn insert_knowledge_rows(db: &mut Database, k: &Knowledge) -> Result<(i64, usize), DbError> {
    let p = &k.pattern;
    let performance_id = db.insert(
        "performances",
        vec![
            Value::from(k.command.as_str()),
            Value::from(k.source.as_str()),
            Value::from(p.api.as_str()),
            Value::from(p.test_file.as_str()),
            Value::from(p.block_size),
            Value::from(p.transfer_size),
            Value::from(p.segments),
            Value::from(p.file_per_proc),
            Value::from(p.reorder_tasks),
            Value::from(p.fsync),
            Value::from(p.collective),
            Value::from(p.iterations),
            Value::from(p.tasks),
            Value::from(p.clients_per_node),
            Value::from(k.start_time),
            Value::from(k.end_time),
            k.derived_from.map(Value::from).unwrap_or(Value::Null),
        ],
    )?;
    for summary in &k.summaries {
        let summary_id = db.insert(
            "summaries",
            vec![
                Value::Int(performance_id),
                Value::from(summary.operation.as_str()),
                Value::from(summary.api.as_str()),
                Value::from(summary.max_mib),
                Value::from(summary.min_mib),
                Value::from(summary.mean_mib),
                Value::from(summary.stddev_mib),
                Value::from(summary.mean_ops),
                Value::from(summary.iterations),
            ],
        )?;
        for result in k
            .results
            .iter()
            .filter(|r| r.operation == summary.operation)
        {
            db.insert(
                "results",
                vec![
                    Value::Int(summary_id),
                    Value::from(result.iteration),
                    Value::from(result.bw_mib),
                    Value::from(result.ops),
                    Value::from(result.ops_per_sec),
                    Value::from(result.latency_s),
                    Value::from(result.open_s),
                    Value::from(result.wrrd_s),
                    Value::from(result.close_s),
                    Value::from(result.total_s),
                ],
            )?;
        }
    }
    if let Some(fs) = &k.filesystem {
        db.insert(
            "filesystems",
            vec![
                Value::Int(performance_id),
                Value::from(fs.fs_type.as_str()),
                Value::from(fs.entry_type.as_str()),
                Value::from(fs.entry_id.as_str()),
                Value::from(fs.metadata_node.as_str()),
                Value::from(fs.chunk_size),
                Value::from(fs.storage_targets),
                Value::from(fs.raid.as_str()),
                Value::from(fs.storage_pool.as_str()),
            ],
        )?;
    }
    if let Some(sys) = &k.system {
        db.insert(
            "systeminfos",
            vec![
                Value::Int(performance_id),
                Value::from(sys.system.as_str()),
                Value::from(sys.cpu_model.as_str()),
                Value::from(sys.cores),
                Value::from(sys.cpu_mhz),
                Value::from(sys.cache_kib),
                Value::from(sys.mem_kib),
            ],
        )?;
    }
    let warnings = insert_warnings(db, RunKind::Benchmark, performance_id, &k.warnings)?;
    Ok((performance_id, warnings))
}

/// Insert a run's warnings; returns how many rows that wrote.
fn insert_warnings(
    db: &mut Database,
    owner: RunKind,
    owner_id: i64,
    warnings: &[String],
) -> Result<usize, DbError> {
    for warning in warnings {
        db.insert(
            "warnings",
            vec![
                Value::from(owner.as_str()),
                Value::Int(owner_id),
                Value::from(warning.as_str()),
            ],
        )?;
    }
    Ok(warnings.len())
}

/// Insert an IO500 knowledge object's rows; returns its `IOFH_id` and
/// its number of warnings.
fn insert_io500_rows(db: &mut Database, k: &Io500Knowledge) -> Result<(i64, usize), DbError> {
    let iofh_id = db.insert(
        "IOFHsRuns",
        vec![Value::from(k.tasks), Value::from(k.start_time)],
    )?;
    db.insert(
        "IOFHsScores",
        vec![
            Value::Int(iofh_id),
            Value::from(k.bw_score),
            Value::from(k.md_score),
            Value::from(k.total_score),
        ],
    )?;
    for testcase in &k.testcases {
        let tc_id = db.insert(
            "IOFHsTestcases",
            vec![
                Value::Int(iofh_id),
                Value::from(testcase.name.as_str()),
                Value::from(testcase.unit.as_str()),
            ],
        )?;
        db.insert(
            "IOFHsResults",
            vec![
                Value::Int(tc_id),
                Value::from(testcase.value),
                Value::from(testcase.time_s),
            ],
        )?;
    }
    for (key, value) in &k.options {
        db.insert(
            "IOFHsOptions",
            vec![
                Value::Int(iofh_id),
                Value::from(key.as_str()),
                Value::from(value.as_str()),
            ],
        )?;
    }
    if let Some(sys) = &k.system {
        db.insert(
            "IOFHsSystem",
            vec![
                Value::Int(iofh_id),
                Value::from(sys.system.as_str()),
                Value::from(sys.cpu_model.as_str()),
                Value::from(sys.cores),
                Value::from(sys.cpu_mhz),
                Value::from(sys.cache_kib),
                Value::from(sys.mem_kib),
            ],
        )?;
    }
    let warnings = insert_warnings(db, RunKind::Io500, iofh_id, &k.warnings)?;
    Ok((iofh_id, warnings))
}

impl Persister for KnowledgeStore {
    fn name(&self) -> &str {
        "knowledge-store"
    }

    fn persist(
        &mut self,
        _ctx: &mut PhaseCtx,
        items: &[KnowledgeItem],
    ) -> Result<Vec<u64>, CycleError> {
        self.save_batch(items).map_err(CycleError::from)
    }

    fn load_all(&self, _ctx: &mut PhaseCtx) -> Result<Vec<KnowledgeItem>, CycleError> {
        self.query_items(&Query::all()).map_err(CycleError::from)
    }
}

/// The segmented store's manifest: what the file at the store's nominal
/// path holds. Names the active generation's epoch and the
/// auto-increment counters its log replays onto, every sealed segment's
/// metadata (id ranges, counts, membership filter — the per-segment
/// index block), and the tombstones.
pub(crate) struct Manifest {
    pub(crate) active_epoch: u64,
    /// Every table's auto-increment counter when the epoch began.
    pub(crate) next_ids: Counters,
    pub(crate) next_segment: u64,
    pub(crate) tombstones: BTreeSet<(RunKind, u64)>,
    pub(crate) segments: Vec<SegmentMeta>,
}

impl Manifest {
    pub(crate) fn to_json(&self) -> Json {
        let ids = |kind: RunKind| {
            Json::Arr(
                self.tombstones
                    .iter()
                    .filter(|(k, _)| *k == kind)
                    .map(|(_, id)| Json::from(*id))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("format", Json::from(MANIFEST_FORMAT)),
            ("version", Json::from(1u64)),
            ("active_epoch", Json::from(self.active_epoch)),
            ("next_segment", Json::from(self.next_segment)),
            (
                "tombstones",
                Json::obj(vec![
                    ("benchmark", ids(RunKind::Benchmark)),
                    ("io500", ids(RunKind::Io500)),
                ]),
            ),
            (
                "segments",
                Json::Arr(self.segments.iter().map(SegmentMeta::to_json).collect()),
            ),
            ("next_ids", persist::counters_to_json(&self.next_ids)),
        ])
    }

    /// Read the manifest at `path`, the one way `open` and `fsck` do,
    /// with the checksum its footer records. A `.seg-` block written
    /// before segment lengths were recorded takes its file's length here
    /// (the next manifest commit records it), so a damaged or missing
    /// file is an unusable segment at its body load, as it was before; a
    /// segment document is refused, never decoded. Until that commit,
    /// every open reads such a file once here and again at its load.
    pub(crate) fn read(path: &Path, vfs: &dyn Vfs) -> Result<(Manifest, u64), DbError> {
        let context = |what: &str, e: DbError| match e {
            DbError::Corrupt(e) => DbError::Corrupt(format!("manifest {what}: {e}")),
            e => e,
        };
        let (doc, checksum) =
            persist::read_document_and_checksum(path, vfs).map_err(|e| context("unusable", e))?;
        let unrecorded = |id| {
            let file = persist::segment_path(path, id);
            match vfs.read(&file) {
                Ok(bytes) if bytes.first() == Some(&b'{') => Err(DbError::Corrupt(format!(
                    "{} is a segment document, which is not read: rewrite it as a log \
                     with the previous binary's `iokc compact`, after a second seal with \
                     that binary (its `compact` does nothing on one segment and no \
                     tombstone; an `iokc corpus gen` that adds a run seals)",
                    file.display()
                ))),
                Ok(bytes) => Ok(bytes.len() as u64),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
                Err(e) => Err(persist::classify_io_error(
                    &format!("read {}", file.display()),
                    &e,
                )),
            }
        };
        let manifest =
            Manifest::from_json(&doc, unrecorded).map_err(|e| context("undecodable", e))?;
        Ok((manifest, checksum))
    }

    fn from_json(
        json: &Json,
        unrecorded: impl Fn(u64) -> Result<u64, DbError>,
    ) -> Result<Manifest, DbError> {
        if json.get("format").and_then(Json::as_str) != Some(MANIFEST_FORMAT) {
            return Err(DbError::Corrupt(format!(
                "manifest missing {MANIFEST_FORMAT} format tag"
            )));
        }
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| DbError::Corrupt(format!("manifest missing {key}")))
        };
        let mut tombstones = BTreeSet::new();
        for (key, kind) in [("benchmark", RunKind::Benchmark), ("io500", RunKind::Io500)] {
            for id in json
                .get("tombstones")
                .and_then(|t| t.get(key))
                .and_then(Json::as_arr)
                .unwrap_or(&[])
            {
                let id = id
                    .as_u64()
                    .ok_or_else(|| DbError::Corrupt("manifest: bad tombstone id".into()))?;
                tombstones.insert((kind, id));
            }
        }
        let mut segments = Vec::new();
        for seg in json
            .get("segments")
            .and_then(Json::as_arr)
            .ok_or_else(|| DbError::Corrupt("manifest missing segments".into()))?
        {
            segments.push(SegmentMeta::from_json(seg, &unrecorded)?);
        }
        Ok(Manifest {
            active_epoch: field("active_epoch")?,
            next_ids: json
                .get("next_ids")
                .map(persist::counters_from_json)
                .ok_or_else(|| DbError::Corrupt("manifest missing next_ids".into()))?,
            next_segment: field("next_segment")?,
            tombstones,
            segments,
        })
    }
}

/// What [`KnowledgeStore::open_with_vfs`] and
/// [`KnowledgeStore::reload_from_disk`] install, loaded in one place —
/// the single open path.
struct LoadedState {
    active: SegmentData,
    segments: Vec<Arc<Segment>>,
    tombstones: BTreeSet<(RunKind, u64)>,
    active_epoch: u64,
    epoch_base: Counters,
    replay: wal::Replay,
    next_segment: u64,
    manifest_dirty: bool,
    /// An identity of the files loaded — the manifest's checksum mixed
    /// with the log's valid length — which is where this open's write
    /// generations start. See [`Snapshot::generation`].
    identity: u64,
}

/// The active generation a manifest names, rebuilt from disk: the
/// epoch's log replayed onto an empty schema that starts at the
/// manifest's counters. Shared by the open path and `fsck`.
pub(crate) fn load_active(
    path: &Path,
    manifest: &Manifest,
    vfs: &dyn Vfs,
) -> Result<(Database, wal::Replay), DbError> {
    let mut db = build_schema();
    db.bump_next_ids(&manifest.next_ids);
    let log = persist::wal_path(path, manifest.active_epoch);
    let replay = wal::replay(&log, vfs, &mut db)?;
    Ok((db, replay))
}

/// Load a store's state from `path`: a fresh store when there is no
/// file yet (its first flush writes the manifest), otherwise the
/// manifest, the active epoch's log and the segment files, mapped
/// lazily. The active block's summaries are derived from the replayed
/// rows here.
fn load_state(path: &Path, vfs: &dyn Vfs) -> Result<LoadedState, DbError> {
    if !vfs.exists(path) {
        return Ok(LoadedState {
            active: SegmentData::empty(build_schema()),
            segments: Vec::new(),
            tombstones: BTreeSet::new(),
            active_epoch: 0,
            epoch_base: Counters::new(),
            replay: wal::Replay::default(),
            next_segment: 0,
            manifest_dirty: true,
            identity: 0,
        });
    }
    let (manifest, checksum) = Manifest::read(path, vfs)?;
    let (db, replay) = load_active(path, &manifest, vfs)?;
    Ok(LoadedState {
        active: SegmentData::from_db(db)?,
        segments: manifest
            .segments
            .into_iter()
            .map(|meta| {
                let file = meta.file(path);
                Arc::new(Segment::new(meta, file))
            })
            .collect(),
        tombstones: manifest.tombstones,
        active_epoch: manifest.active_epoch,
        epoch_base: manifest.next_ids,
        next_segment: manifest.next_segment,
        manifest_dirty: false,
        // Kept below 2^52: a generation counts up from here, and
        // `/healthz` prints it as a JSON number.
        identity: (checksum ^ replay.len.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 12,
        replay,
    })
}

/// An immutable, point-in-time view of the whole store — and the one
/// place every read is implemented: the active block, the sealed
/// segments, and the tombstone set, each shared by `Arc` and all pinned
/// at one [`Snapshot::generation`]. The store's own read
/// state is a value of this type, and [`KnowledgeStore::snapshot`] is
/// its `clone()`.
///
/// Reads through a snapshot are wait-free with respect to the store:
/// ingest, sealing, deletes and compaction never change what a snapshot
/// returns (a writer copies a shared part before changing it). Segment
/// bodies a snapshot has touched stay resident for the snapshot's
/// lifetime (they are never evicted from the shared [`Segment`]
/// handle), and compaction preloads the bodies of the segments it
/// replaces, so a snapshot keeps answering even after the segment files
/// it references are unlinked. `Send + Sync`: explorerd hands snapshots
/// to request threads and renders without holding the store lock.
#[derive(Clone)]
pub struct Snapshot {
    /// The active generation: a segment-shaped block not yet sealed.
    pub(crate) active: Arc<SegmentData>,
    /// Sealed, immutable segments, oldest first.
    pub(crate) segments: Arc<Vec<Arc<Segment>>>,
    /// Runs deleted out of sealed segments: hidden from every read,
    /// physically dropped at the next compaction. Active-generation
    /// deletes remove rows directly and never tombstone.
    pub(crate) tombstones: Arc<BTreeSet<(RunKind, u64)>>,
    /// The filesystem under every flush, reload and segment-body load —
    /// [`StdVfs`] for a store on disk, a [`FaultVfs`] for an in-memory
    /// one and in the crash tests.
    pub(crate) vfs: Arc<dyn Vfs>,
    /// Query-engine observability: recorder + counter handles.
    pub(crate) obs: Arc<QueryObs>,
    /// Write generation: starts at an identity of the files opened (0
    /// for a fresh store), bumped on every successful
    /// persist or delete.
    pub(crate) generation: u64,
}

impl Snapshot {
    /// The store's write generation at the moment this snapshot was
    /// taken: a monotonic counter bumped on every successful persist or
    /// delete. Two reads returning the same value bracket a window in
    /// which no knowledge changed, so read-through caches (the explorer
    /// service) key entries on it. It starts at an identity of the files
    /// opened (0 when there were none), not at 0: a value handed out by
    /// one process — an ETag — means the same rows to the next process
    /// over the same files and nothing over different ones.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Load a benchmark knowledge object by id — the full multi-table
    /// join, resolved to whichever block (active or sealed segment)
    /// holds the run. Counted by the `store.query.knowledge_deserialized`
    /// obs counter; count-style reads must keep it at zero.
    pub fn load_knowledge(&self, id: u64) -> Result<Option<Knowledge>, DbError> {
        let Some(block) = self.locate(RunKind::Benchmark, id)? else {
            return Ok(None);
        };
        self.obs.knowledge_deserialized.inc();
        BlockReader::one(&block.db).knowledge(id)
    }

    /// Load an IO500 knowledge object by `IOFH_id`, resolved to
    /// whichever block holds the run.
    pub fn load_io500(&self, id: u64) -> Result<Option<Io500Knowledge>, DbError> {
        let Some(block) = self.locate(RunKind::Io500, id)? else {
            return Ok(None);
        };
        self.obs.knowledge_deserialized.inc();
        BlockReader::one(&block.db).io500_knowledge(id)
    }

    /// Merge the pinned state into one database: every segment's rows,
    /// oldest first, then the active generation's, minus tombstoned
    /// runs. Ids grow from block to block in that order, so every table
    /// keeps its rows in id order. This is the whole-corpus surface the
    /// SQL layer queries — O(corpus) by construction, which is exactly
    /// why the query engine, not SQL, is the hot read path.
    pub fn materialize(&self) -> Result<Database, DbError> {
        let mut merged = build_schema();
        for seg in self.segments.iter() {
            copy_all_rows(&self.body(seg)?.db, &mut merged)?;
        }
        copy_all_rows(&self.active.db, &mut merged)?;
        delete_runs(&mut merged, &self.tombstones)?;
        Ok(merged)
    }
}

/// Append every row of every table of `src` to `dst` with ids
/// preserved. Sound because sealed generations forward auto-increment
/// counters: no two generations ever hold the same id in the same
/// table, and a later one holds only higher ids.
pub(crate) fn copy_all_rows(src: &Database, dst: &mut Database) -> Result<(), DbError> {
    for (name, table) in &src.tables {
        for row in &table.rows {
            dst.insert_raw(name, row.id, row.values.clone())?;
        }
    }
    Ok(())
}

/// Cascade-delete `runs` from `db`: the runs' rows, then, through every
/// declared foreign key, the rows that depended on them, and their
/// warnings — one pass over each table, however many runs.
pub(crate) fn delete_runs(
    db: &mut Database,
    runs: &BTreeSet<(RunKind, u64)>,
) -> Result<(), DbError> {
    if runs.is_empty() {
        return Ok(());
    }
    db.retain("warnings", |w| {
        !warning_owner(w).is_some_and(|run| runs.contains(&run))
    })?;
    for kind in [RunKind::Benchmark, RunKind::Io500] {
        let of_kind = runs.iter().filter(|(k, _)| *k == kind);
        let ids = of_kind.map(|(_, id)| *id as i64).collect();
        cascade(db, kind.table(), None, &ids)?;
    }
    Ok(())
}

/// Delete the rows of `table` whose `fk` column (the rowid when `None`)
/// holds one of `keys`, then the rows whose foreign keys referenced
/// them, down to the leaves.
fn cascade(
    db: &mut Database,
    table: &str,
    fk: Option<&str>,
    keys: &BTreeSet<i64>,
) -> Result<(), DbError> {
    if keys.is_empty() {
        return Ok(());
    }
    let ci = fk.map(|fk| db.schema(table)?.column(fk)).transpose()?;
    let mut deleted = BTreeSet::new();
    db.retain(table, |row| {
        let key = ci.map_or(Some(row.id), |ci| row.values[ci].as_int());
        let doomed = key.is_some_and(|key| keys.contains(&key));
        if doomed {
            deleted.insert(row.id);
        }
        !doomed
    })?;
    let children: Vec<(String, String)> = db
        .tables
        .values()
        .flat_map(|t| t.schema.foreign_keys.iter().map(|fk| (&t.schema.name, fk)))
        .filter(|(_, fk)| fk.references_table == table)
        .map(|(child, fk)| (child.clone(), fk.column.clone()))
        .collect();
    for (child, fk) in children {
        cascade(db, &child, Some(&fk), &deleted)?;
    }
    Ok(())
}

/// The run a `warnings` row belongs to.
pub(crate) fn warning_owner(row: &Row) -> Option<(RunKind, u64)> {
    let kind = match row.values[0].as_text()? {
        "benchmark" => RunKind::Benchmark,
        "io500" => RunKind::Io500,
        _ => return None,
    };
    Some((kind, row.values[1].as_int()? as u64))
}

/// One block's tables joined back into runs: the one place that knows
/// how a run's rows spread over the schema. Each foreign key is resolved
/// once per reader (per kind, on first use) and read through a
/// [`ForeignKeyWalk`], so a reader that visits a block's runs in id
/// order steps through every child table once; a run out of order costs
/// a binary search. A reader over one run filters `warnings` for it; a
/// reader over many groups the table by owner in one pass on first use.
pub(crate) struct BlockReader<'a> {
    db: &'a Database,
    bench: Option<BenchJoin<'a>>,
    io500: Option<Io500Join<'a>>,
    warnings: Warnings<'a>,
}

/// How a [`BlockReader`] finds a run's warnings.
enum Warnings<'a> {
    /// Filter the table: a reader over one run.
    Filter,
    /// The texts by run, grouped in one pass when first asked for: a
    /// reader over many runs.
    Grouped(Option<BTreeMap<(RunKind, u64), Vec<&'a str>>>),
}

/// The benchmark tables: `performances` and the walks below it.
struct BenchJoin<'a> {
    runs: &'a [Row],
    summaries: ForeignKeyWalk<'a>,
    results: ForeignKeyWalk<'a>,
    filesystems: ForeignKeyWalk<'a>,
    systeminfos: ForeignKeyWalk<'a>,
}

/// The IO500 tables: `IOFHsRuns` and the walks below it.
struct Io500Join<'a> {
    runs: &'a [Row],
    scores: ForeignKeyWalk<'a>,
    testcases: ForeignKeyWalk<'a>,
    results: ForeignKeyWalk<'a>,
    options: ForeignKeyWalk<'a>,
    system: ForeignKeyWalk<'a>,
}

/// Row `id` of a table's rows, if present.
fn row_of(runs: &[Row], id: u64) -> Option<&Row> {
    let at = runs.binary_search_by_key(&(id as i64), |row| row.id);
    at.ok().map(|at| &runs[at])
}

impl<'a> BlockReader<'a> {
    /// A reader for one run of `db`.
    pub(crate) fn one(db: &'a Database) -> BlockReader<'a> {
        BlockReader {
            db,
            bench: None,
            io500: None,
            warnings: Warnings::Filter,
        }
    }

    /// A reader for many runs of `db`.
    pub(crate) fn many(db: &'a Database) -> BlockReader<'a> {
        BlockReader {
            warnings: Warnings::Grouped(None),
            ..BlockReader::one(db)
        }
    }

    fn bench(&mut self) -> Result<&mut BenchJoin<'a>, DbError> {
        let db = self.db;
        let walk = |table: &str, fk: &str| Ok::<_, DbError>(db.foreign_key(table, fk)?.walk());
        Ok(match &mut self.bench {
            Some(join) => join,
            slot => slot.insert(BenchJoin {
                runs: db.rows("performances")?,
                summaries: walk("summaries", "performance_id")?,
                results: walk("results", "summary_id")?,
                filesystems: walk("filesystems", "performance_id")?,
                systeminfos: walk("systeminfos", "performance_id")?,
            }),
        })
    }

    fn io500(&mut self) -> Result<&mut Io500Join<'a>, DbError> {
        let db = self.db;
        let walk = |table: &str, fk: &str| Ok::<_, DbError>(db.foreign_key(table, fk)?.walk());
        Ok(match &mut self.io500 {
            Some(join) => join,
            slot => slot.insert(Io500Join {
                runs: db.rows("IOFHsRuns")?,
                scores: walk("IOFHsScores", "IOFH_id")?,
                testcases: walk("IOFHsTestcases", "IOFH_id")?,
                results: walk("IOFHsResults", "testcase_id")?,
                options: walk("IOFHsOptions", "IOFH_id")?,
                system: walk("IOFHsSystem", "IOFH_id")?,
            }),
        })
    }

    /// The warning texts of one run, in id order.
    fn warnings(&mut self, run: (RunKind, u64)) -> Result<Vec<&'a str>, DbError> {
        let text = |w: &'a Row| w.values[2].as_text().unwrap_or("");
        let grouped = match &mut self.warnings {
            Warnings::Grouped(Some(grouped)) => grouped,
            Warnings::Grouped(slot) => {
                let mut grouped: BTreeMap<_, Vec<_>> = BTreeMap::new();
                for w in self.db.rows("warnings")? {
                    if let Some(owner) = warning_owner(w) {
                        grouped.entry(owner).or_default().push(text(w));
                    }
                }
                slot.insert(grouped)
            }
            Warnings::Filter => {
                let rows = self.db.rows("warnings")?.iter();
                let of_run = rows.filter(|w| warning_owner(w) == Some(run));
                return Ok(of_run.map(text).collect());
            }
        };
        Ok(grouped.get(&run).cloned().unwrap_or_default())
    }

    /// The full benchmark knowledge object `id` — the body of
    /// [`Snapshot::load_knowledge`] and of full-projection queries, so
    /// active and sealed blocks load identically.
    pub(crate) fn knowledge(&mut self, id: u64) -> Result<Option<Knowledge>, DbError> {
        let join = self.bench()?;
        let Some(row) = row_of(join.runs, id) else {
            return Ok(None);
        };
        let text = |i: usize| row.values[i].as_text().unwrap_or("");
        let int = |i: usize| row.values[i].as_int().unwrap_or(0);
        let mut k = Knowledge::new(KnowledgeSource::parse(text(1)), text(0));
        k.id = Some(id);
        k.pattern = IoPattern {
            api: text(2).to_owned(),
            test_file: text(3).to_owned(),
            block_size: int(4) as u64,
            transfer_size: int(5) as u64,
            segments: int(6) as u64,
            file_per_proc: int(7) != 0,
            reorder_tasks: int(8) != 0,
            fsync: int(9) != 0,
            collective: int(10) != 0,
            iterations: int(11) as u32,
            tasks: int(12) as u32,
            clients_per_node: int(13) as u32,
        };
        k.start_time = int(14) as u64;
        k.end_time = int(15) as u64;
        k.derived_from = row.values[16].as_int().map(|v| v as u64);

        for srow in join.summaries.children(id as i64) {
            k.summaries.push(OperationSummary {
                operation: srow.values[1].as_text().unwrap_or("").to_owned(),
                api: srow.values[2].as_text().unwrap_or("").to_owned(),
                max_mib: srow.values[3].as_real().unwrap_or(0.0),
                min_mib: srow.values[4].as_real().unwrap_or(0.0),
                mean_mib: srow.values[5].as_real().unwrap_or(0.0),
                stddev_mib: srow.values[6].as_real().unwrap_or(0.0),
                mean_ops: srow.values[7].as_real().unwrap_or(0.0),
                iterations: srow.values[8].as_int().unwrap_or(0) as u32,
            });
            let operation = srow.values[1].as_text().unwrap_or("");
            for rrow in join.results.children(srow.id) {
                k.results.push(IterationResult {
                    operation: operation.to_owned(),
                    iteration: rrow.values[1].as_int().unwrap_or(0) as u32,
                    bw_mib: rrow.values[2].as_real().unwrap_or(0.0),
                    ops: rrow.values[3].as_int().unwrap_or(0) as u64,
                    ops_per_sec: rrow.values[4].as_real().unwrap_or(0.0),
                    latency_s: rrow.values[5].as_real().unwrap_or(0.0),
                    open_s: rrow.values[6].as_real().unwrap_or(0.0),
                    wrrd_s: rrow.values[7].as_real().unwrap_or(0.0),
                    close_s: rrow.values[8].as_real().unwrap_or(0.0),
                    total_s: rrow.values[9].as_real().unwrap_or(0.0),
                });
            }
        }

        let fs = join.filesystems.children(id as i64).first();
        k.filesystem = fs.map(|frow| FilesystemInfo {
            fs_type: frow.values[1].as_text().unwrap_or("").to_owned(),
            entry_type: frow.values[2].as_text().unwrap_or("").to_owned(),
            entry_id: frow.values[3].as_text().unwrap_or("").to_owned(),
            metadata_node: frow.values[4].as_text().unwrap_or("").to_owned(),
            chunk_size: frow.values[5].as_int().unwrap_or(0) as u64,
            storage_targets: frow.values[6].as_int().unwrap_or(0) as u32,
            raid: frow.values[7].as_text().unwrap_or("").to_owned(),
            storage_pool: frow.values[8].as_text().unwrap_or("").to_owned(),
        });
        k.system = join
            .systeminfos
            .children(id as i64)
            .first()
            .map(system_info);
        let warnings = self.warnings((RunKind::Benchmark, id))?;
        k.warnings = warnings.into_iter().map(str::to_owned).collect();
        Ok(Some(k))
    }

    /// The full IO500 knowledge object `id` — the IO500 twin of
    /// [`BlockReader::knowledge`].
    pub(crate) fn io500_knowledge(&mut self, id: u64) -> Result<Option<Io500Knowledge>, DbError> {
        let join = self.io500()?;
        let Some(run) = row_of(join.runs, id) else {
            return Ok(None);
        };
        let mut testcases = Vec::new();
        for tc in join.testcases.children(id as i64) {
            let result = join.results.children(tc.id).first();
            let cell = |i: usize| result.and_then(|r| r.values[i].as_real()).unwrap_or(0.0);
            testcases.push(Io500Testcase {
                name: tc.values[1].as_text().unwrap_or("").to_owned(),
                unit: tc.values[2].as_text().unwrap_or("").to_owned(),
                value: cell(1),
                time_s: cell(2),
            });
        }
        let options = join.options.children(id as i64).iter();
        let options = options
            .map(|opt| {
                let text = |i: usize| opt.values[i].as_text().unwrap_or("").to_owned();
                (text(1), text(2))
            })
            .collect();
        let scores = join.scores.children(id as i64).first();
        let score = |i: usize| scores.and_then(|s| s.values[i].as_real()).unwrap_or(0.0);
        let system = join.system.children(id as i64).first().map(system_info);
        let mut k = Io500Knowledge {
            id: Some(id),
            tasks: run.values[0].as_int().unwrap_or(0) as u32,
            start_time: run.values[1].as_int().unwrap_or(0) as u64,
            bw_score: score(1),
            md_score: score(2),
            total_score: score(3),
            testcases,
            options,
            system,
            warnings: Vec::new(),
        };
        let warnings = self.warnings((RunKind::Io500, id))?;
        k.warnings = warnings.into_iter().map(str::to_owned).collect();
        Ok(Some(k))
    }

    /// The [`RunSummary`] of every run in the block, keyed `(kind, id)` —
    /// how a block's summaries are built from its rows: the replayed log
    /// on open, a segment body on load, and the from-rows side of
    /// [`KnowledgeStore::indexes_consistent`].
    pub(crate) fn summaries(&mut self) -> Result<BTreeMap<(RunKind, u64), RunSummary>, DbError> {
        let mut summaries = BTreeMap::new();
        for kind in [RunKind::Benchmark, RunKind::Io500] {
            for row in self.db.rows(kind.table())? {
                let warnings = self.warnings((kind, row.id as u64))?.len();
                summaries.insert((kind, row.id as u64), self.summary_of(kind, row, warnings)?);
            }
        }
        Ok(summaries)
    }

    /// The [`RunSummary`] of `run`, which has `warning_count` warnings:
    /// what a save derives from the rows it just inserted.
    pub(crate) fn run_summary(
        &mut self,
        run: RunRef,
        warning_count: usize,
    ) -> Result<RunSummary, DbError> {
        let row = self.db.get(run.kind.table(), run.id as i64)?;
        let row = row.ok_or_else(|| {
            DbError::Corrupt(format!("{} run {} has no row", run.kind.as_str(), run.id))
        })?;
        self.summary_of(run.kind, row, warning_count)
    }

    /// The [`RunSummary`] projection of a run's row — the single
    /// definition every block's summaries are derived by.
    fn summary_of(
        &mut self,
        kind: RunKind,
        row: &Row,
        warning_count: usize,
    ) -> Result<RunSummary, DbError> {
        let id = row.id as u64;
        let int = |i: usize| row.values[i].as_int().unwrap_or(0);
        Ok(match kind {
            RunKind::Benchmark => RunSummary {
                kind,
                id,
                command: row.values[0].as_text().unwrap_or("").to_owned(),
                api: row.values[2].as_text().unwrap_or("").to_owned(),
                tasks: int(12) as u32,
                block_size: int(4) as u64,
                transfer_size: int(5) as u64,
                segments: int(6) as u64,
                clients_per_node: int(13) as u32,
                ops: (self.bench()?.summaries.children(row.id).iter())
                    .map(|srow| OpStat {
                        operation: srow.values[1].as_text().unwrap_or("").to_owned(),
                        max_mib: srow.values[3].as_real().unwrap_or(0.0),
                        mean_mib: srow.values[5].as_real().unwrap_or(0.0),
                        mean_ops: srow.values[7].as_real().unwrap_or(0.0),
                    })
                    .collect(),
                bw_score: 0.0,
                md_score: 0.0,
                total_score: 0.0,
                warning_count,
            },
            RunKind::Io500 => {
                let scores = self.io500()?.scores.children(row.id).first();
                let score = |i: usize| scores.and_then(|s| s.values[i].as_real()).unwrap_or(0.0);
                RunSummary {
                    kind,
                    id,
                    command: "io500".to_owned(),
                    api: String::new(),
                    tasks: int(0) as u32,
                    block_size: 0,
                    transfer_size: 0,
                    segments: 0,
                    clients_per_node: 0,
                    ops: Vec::new(),
                    bw_score: score(1),
                    md_score: score(2),
                    total_score: score(3),
                    warning_count,
                }
            }
        })
    }

    /// The per-iteration bandwidths of benchmark run `id` for one
    /// operation, in id order — a box-plot series.
    pub(crate) fn series(&mut self, id: u64, operation: &str) -> Result<Vec<f64>, DbError> {
        let join = self.bench()?;
        let mut series = Vec::new();
        for srow in join.summaries.children(id as i64) {
            if srow.values[1].as_text() == Some(operation) {
                let results = join.results.children(srow.id).iter();
                series.extend(results.map(|rrow| rrow.values[2].as_real().unwrap_or(0.0)));
            }
        }
        Ok(series)
    }
}

/// A `systeminfos` or `IOFHsSystem` row.
fn system_info(row: &Row) -> SystemInfo {
    SystemInfo {
        system: row.values[1].as_text().unwrap_or("").to_owned(),
        cpu_model: row.values[2].as_text().unwrap_or("").to_owned(),
        cores: row.values[3].as_int().unwrap_or(0) as u32,
        cpu_mhz: row.values[4].as_real().unwrap_or(0.0),
        cache_kib: row.values[5].as_int().unwrap_or(0) as u64,
        mem_kib: row.values[6].as_int().unwrap_or(0) as u64,
    }
}

/// Map a database error onto the cycle's error taxonomy: on-disk
/// corruption is its own class (the CLI exits 5 on it and retries are
/// pointless); a full disk is transient (retry after cleanup, exit
/// code 3); everything else is a permanent logic/schema error.
impl From<DbError> for CycleError {
    fn from(e: DbError) -> CycleError {
        match &e {
            DbError::Corrupt(_) => {
                CycleError::corrupt(PhaseKind::Persistence, "knowledge-store", e)
            }
            DbError::Full(_) => CycleError::transient(PhaseKind::Persistence, "knowledge-store", e),
            _ => CycleError::permanent(PhaseKind::Persistence, "knowledge-store", e),
        }
    }
}

/// Build the paper's schema.
pub(crate) fn build_schema() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "performances",
        vec![
            Column::required("command", ColumnType::Text),
            Column::required("source", ColumnType::Text),
            Column::new("api", ColumnType::Text),
            Column::new("testFileName", ColumnType::Text),
            Column::new("block_size", ColumnType::Integer),
            Column::new("transfer_size", ColumnType::Integer),
            Column::new("segments", ColumnType::Integer),
            Column::new("filePerProc", ColumnType::Integer),
            Column::new("reorderTasks", ColumnType::Integer),
            Column::new("fsync", ColumnType::Integer),
            Column::new("collective", ColumnType::Integer),
            Column::new("iterations", ColumnType::Integer),
            Column::new("tasks", ColumnType::Integer),
            Column::new("clientsPerNode", ColumnType::Integer),
            Column::new("start_time", ColumnType::Integer),
            Column::new("end_time", ColumnType::Integer),
            Column::new("derived_from", ColumnType::Integer),
        ],
    ))
    .expect("fresh database accepts schema");
    db.create_table(
        TableSchema::new(
            "summaries",
            vec![
                Column::required("performance_id", ColumnType::Integer),
                Column::required("operation", ColumnType::Text),
                Column::new("api", ColumnType::Text),
                Column::new("max_mib", ColumnType::Real),
                Column::new("min_mib", ColumnType::Real),
                Column::new("mean_mib", ColumnType::Real),
                Column::new("stddev_mib", ColumnType::Real),
                Column::new("mean_ops", ColumnType::Real),
                Column::new("iterations", ColumnType::Integer),
            ],
        )
        .with_fk("performance_id", "performances"),
    )
    .expect("fresh database accepts schema");
    db.create_table(
        TableSchema::new(
            "results",
            vec![
                Column::required("summary_id", ColumnType::Integer),
                Column::new("iteration", ColumnType::Integer),
                Column::new("bw_mib", ColumnType::Real),
                Column::new("ops", ColumnType::Integer),
                Column::new("ops_per_sec", ColumnType::Real),
                Column::new("latency_s", ColumnType::Real),
                Column::new("open_s", ColumnType::Real),
                Column::new("wrRd_s", ColumnType::Real),
                Column::new("close_s", ColumnType::Real),
                Column::new("total_s", ColumnType::Real),
            ],
        )
        .with_fk("summary_id", "summaries"),
    )
    .expect("fresh database accepts schema");
    db.create_table(
        TableSchema::new(
            "filesystems",
            vec![
                Column::required("performance_id", ColumnType::Integer),
                Column::new("fs_type", ColumnType::Text),
                Column::new("entry_type", ColumnType::Text),
                Column::new("entry_id", ColumnType::Text),
                Column::new("metadata_node", ColumnType::Text),
                Column::new("chunk_size", ColumnType::Integer),
                Column::new("storage_targets", ColumnType::Integer),
                Column::new("raid", ColumnType::Text),
                Column::new("storage_pool", ColumnType::Text),
            ],
        )
        .with_fk("performance_id", "performances"),
    )
    .expect("fresh database accepts schema");
    db.create_table(
        TableSchema::new(
            "systeminfos",
            vec![
                Column::required("performance_id", ColumnType::Integer),
                Column::new("system", ColumnType::Text),
                Column::new("cpu_model", ColumnType::Text),
                Column::new("cores", ColumnType::Integer),
                Column::new("cpu_mhz", ColumnType::Real),
                Column::new("cache_kib", ColumnType::Integer),
                Column::new("mem_kib", ColumnType::Integer),
            ],
        )
        .with_fk("performance_id", "performances"),
    )
    .expect("fresh database accepts schema");

    db.create_table(TableSchema::new(
        "IOFHsRuns",
        vec![
            Column::new("tasks", ColumnType::Integer),
            Column::new("start_time", ColumnType::Integer),
        ],
    ))
    .expect("fresh database accepts schema");
    db.create_table(
        TableSchema::new(
            "IOFHsScores",
            vec![
                Column::required("IOFH_id", ColumnType::Integer),
                Column::new("bw_score", ColumnType::Real),
                Column::new("md_score", ColumnType::Real),
                Column::new("total_score", ColumnType::Real),
            ],
        )
        .with_fk("IOFH_id", "IOFHsRuns"),
    )
    .expect("fresh database accepts schema");
    db.create_table(
        TableSchema::new(
            "IOFHsTestcases",
            vec![
                Column::required("IOFH_id", ColumnType::Integer),
                Column::required("name", ColumnType::Text),
                Column::new("unit", ColumnType::Text),
            ],
        )
        .with_fk("IOFH_id", "IOFHsRuns"),
    )
    .expect("fresh database accepts schema");
    db.create_table(
        TableSchema::new(
            "IOFHsResults",
            vec![
                Column::required("testcase_id", ColumnType::Integer),
                Column::new("value", ColumnType::Real),
                Column::new("time_s", ColumnType::Real),
            ],
        )
        .with_fk("testcase_id", "IOFHsTestcases"),
    )
    .expect("fresh database accepts schema");
    db.create_table(
        TableSchema::new(
            "IOFHsOptions",
            vec![
                Column::required("IOFH_id", ColumnType::Integer),
                Column::required("key", ColumnType::Text),
                Column::new("value", ColumnType::Text),
            ],
        )
        .with_fk("IOFH_id", "IOFHsRuns"),
    )
    .expect("fresh database accepts schema");
    db.create_table(
        TableSchema::new(
            "IOFHsSystem",
            vec![
                Column::required("IOFH_id", ColumnType::Integer),
                Column::new("system", ColumnType::Text),
                Column::new("cpu_model", ColumnType::Text),
                Column::new("cores", ColumnType::Integer),
                Column::new("cpu_mhz", ColumnType::Real),
                Column::new("cache_kib", ColumnType::Integer),
                Column::new("mem_kib", ColumnType::Integer),
            ],
        )
        .with_fk("IOFH_id", "IOFHsRuns"),
    )
    .expect("fresh database accepts schema");
    // Extraction warnings for either knowledge kind ("benchmark" rows
    // key off performances ids, "io500" rows off IOFHsRuns ids) — the
    // partiality of a salvaged run must survive persistence.
    db.create_table(TableSchema::new(
        "warnings",
        vec![
            Column::required("owner", ColumnType::Text),
            Column::required("owner_id", ColumnType::Integer),
            Column::required("message", ColumnType::Text),
        ],
    ))
    .expect("fresh database accepts schema");
    db
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_knowledge() -> Knowledge {
        let mut k = Knowledge::new(KnowledgeSource::Ior, "ior -a mpiio -b 4m -t 2m -s 40");
        k.pattern = IoPattern {
            api: "MPIIO".into(),
            test_file: "/scratch/test80".into(),
            block_size: 4 << 20,
            transfer_size: 2 << 20,
            segments: 40,
            file_per_proc: true,
            reorder_tasks: true,
            fsync: true,
            collective: false,
            iterations: 2,
            tasks: 80,
            clients_per_node: 20,
        };
        k.summaries.push(OperationSummary {
            operation: "write".into(),
            api: "MPIIO".into(),
            max_mib: 2850.12,
            min_mib: 1251.0,
            mean_mib: 2050.56,
            stddev_mib: 799.56,
            mean_ops: 1025.28,
            iterations: 2,
        });
        for (i, bw) in [2850.12, 1251.0].into_iter().enumerate() {
            k.results.push(IterationResult {
                operation: "write".into(),
                iteration: i as u32,
                bw_mib: bw,
                ops: 6400,
                ops_per_sec: bw / 2.0,
                latency_s: 0.0007,
                open_s: 0.002,
                wrrd_s: 4.4,
                close_s: 0.001,
                total_s: 4.5,
            });
        }
        k.filesystem = Some(FilesystemInfo {
            fs_type: "BeeGFS".into(),
            entry_type: "file".into(),
            entry_id: "A-1".into(),
            metadata_node: "meta01".into(),
            chunk_size: 512 * 1024,
            storage_targets: 4,
            raid: "RAID0".into(),
            storage_pool: "Default".into(),
        });
        k.system = Some(SystemInfo {
            system: "FUCHS-CSC".into(),
            cpu_model: "E5-2670v2".into(),
            cores: 20,
            cpu_mhz: 2500.0,
            cache_kib: 25600,
            mem_kib: 134_217_728,
        });
        k.start_time = 100;
        k.end_time = 200;
        k
    }

    fn sample_io500() -> Io500Knowledge {
        Io500Knowledge {
            id: None,
            tasks: 40,
            bw_score: 1.2,
            md_score: 11.0,
            total_score: (1.2f64 * 11.0).sqrt(),
            testcases: vec![
                Io500Testcase {
                    name: "ior-easy-write".into(),
                    value: 2.5,
                    unit: "GiB/s".into(),
                    time_s: 31.0,
                },
                Io500Testcase {
                    name: "mdtest-easy-write".into(),
                    value: 14.2,
                    unit: "kIOPS".into(),
                    time_s: 8.4,
                },
            ],
            options: BTreeMap::from([("dir".to_owned(), "/scratch/io500".to_owned())]),
            system: Some(SystemInfo {
                system: "FUCHS-CSC".into(),
                cpu_model: "E5-2670v2".into(),
                cores: 20,
                cpu_mhz: 2500.0,
                cache_kib: 25600,
                mem_kib: 134_217_728,
            }),
            start_time: 7777,
            warnings: Vec::new(),
        }
    }

    #[test]
    fn extraction_warnings_roundtrip() {
        let mut store = KnowledgeStore::in_memory();
        let partial = sample_knowledge().with_warning("rows truncated after iteration 1");
        let id = store.save_knowledge(&partial).unwrap();
        let loaded = store.load_knowledge(id).unwrap().unwrap();
        assert_eq!(loaded.warnings, partial.warnings);
        assert!(loaded.is_partial());

        let mut io500 = sample_io500();
        io500.warnings.push("no [SCORE ] line".to_owned());
        let id = store.save_io500(&io500).unwrap();
        let loaded = store.load_io500(id).unwrap().unwrap();
        assert_eq!(loaded.warnings, io500.warnings);
        // Warnings attach to their own object, not to every one.
        let clean_id = store.save_knowledge(&sample_knowledge()).unwrap();
        let clean = store.load_knowledge(clean_id).unwrap().unwrap();
        assert!(clean.warnings.is_empty());
    }

    #[test]
    fn knowledge_roundtrip() {
        let mut store = KnowledgeStore::in_memory();
        let original = sample_knowledge();
        let id = store.save_knowledge(&original).unwrap();
        let mut loaded = store.load_knowledge(id).unwrap().unwrap();
        assert_eq!(loaded.id, Some(id));
        loaded.id = None;
        assert_eq!(loaded, original);
        assert!(store.load_knowledge(99).unwrap().is_none());
    }

    #[test]
    fn io500_roundtrip() {
        let mut store = KnowledgeStore::in_memory();
        let original = sample_io500();
        let id = store.save_io500(&original).unwrap();
        let mut loaded = store.load_io500(id).unwrap().unwrap();
        assert_eq!(loaded.id, Some(id));
        loaded.id = None;
        assert_eq!(loaded, original);
    }

    #[test]
    fn rows_land_in_paper_tables() {
        let mut store = KnowledgeStore::in_memory();
        store.save_knowledge(&sample_knowledge()).unwrap();
        store.save_io500(&sample_io500()).unwrap();
        let db = store.database();
        assert_eq!(db.row_count("performances").unwrap(), 1);
        assert_eq!(db.row_count("summaries").unwrap(), 1);
        assert_eq!(db.row_count("results").unwrap(), 2);
        assert_eq!(db.row_count("filesystems").unwrap(), 1);
        assert_eq!(db.row_count("systeminfos").unwrap(), 1);
        assert_eq!(db.row_count("IOFHsRuns").unwrap(), 1);
        assert_eq!(db.row_count("IOFHsScores").unwrap(), 1);
        assert_eq!(db.row_count("IOFHsTestcases").unwrap(), 2);
        assert_eq!(db.row_count("IOFHsResults").unwrap(), 2);
        assert_eq!(db.row_count("IOFHsOptions").unwrap(), 1);
        assert_eq!(db.row_count("IOFHsSystem").unwrap(), 1);
    }

    #[test]
    fn sql_surface_reaches_knowledge() {
        let mut store = KnowledgeStore::in_memory();
        store.save_knowledge(&sample_knowledge()).unwrap();
        let rows = crate::sql::query(
            store.database(),
            "SELECT * FROM performances WHERE api = 'MPIIO'",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        let rows = crate::sql::query(
            store.database(),
            "SELECT * FROM results WHERE bw_mib < 2000",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn persister_trait_roundtrip() {
        let mut store = KnowledgeStore::in_memory();
        let items = vec![
            KnowledgeItem::Benchmark(sample_knowledge()),
            KnowledgeItem::Io500(sample_io500()),
        ];
        let mut ctx = PhaseCtx::detached(PhaseKind::Persistence, "knowledge-store");
        let ids = store.persist(&mut ctx, &items).unwrap();
        assert_eq!(ids, vec![1, 1]); // separate id spaces, as in the paper
        let loaded = Persister::load_all(&store, &mut ctx).unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(matches!(loaded[0], KnowledgeItem::Benchmark(_)));
        assert!(matches!(loaded[1], KnowledgeItem::Io500(_)));
    }

    #[test]
    fn file_backed_store_survives_reopen() {
        // The layout is several sibling files (manifest,
        // `.wal-<epoch>`): a directory of its own, removed whole.
        let dir = crate::persist::tests::scratch_dir("kstore-reopen");
        let path = dir.join("knowledge.iokc.json");
        {
            let mut store = KnowledgeStore::open(path.clone()).unwrap();
            store.save_knowledge(&sample_knowledge()).unwrap();
        }
        let store = KnowledgeStore::open(path).unwrap();
        assert_eq!(store.knowledge_count(), 1);
        let k = store.load_knowledge(1).unwrap().unwrap();
        assert_eq!(k.pattern.tasks, 80);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Counters travel in the manifest, not in the blocks: an id is not
    /// reissued although the run that held it is gone from every block.
    #[test]
    fn ids_are_not_reissued_across_seal_delete_and_reopen() {
        let vfs = Arc::new(crate::vfs::FaultVfs::pristine());
        let open = || {
            let mut store = KnowledgeStore::open_with_vfs("/kb.json".into(), vfs.clone()).unwrap();
            store.set_seal_threshold(2);
            store
        };
        let mut store = open();
        for _ in 0..3 {
            store.save_knowledge(&sample_knowledge()).unwrap();
        }
        // The delete is the epoch's second operation: it seals an empty
        // block, leaving run 3's id in the manifest's counters only.
        assert!(store.delete_knowledge(3).unwrap());
        assert_eq!(store.active_epoch, 2);
        drop(store);
        let mut store = open();
        assert_eq!(store.knowledge_count(), 2);
        assert_eq!(store.save_knowledge(&sample_knowledge()).unwrap(), 4);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_summary() -> impl Strategy<Value = OperationSummary> {
            (
                "[a-z]{3,8}",
                0.0f64..1e5,
                0.0f64..1e5,
                0.0f64..1e5,
                0u32..20,
            )
                .prop_map(|(operation, max, min, mean, iterations)| OperationSummary {
                    operation,
                    api: "POSIX".into(),
                    max_mib: max,
                    min_mib: min,
                    mean_mib: mean,
                    stddev_mib: 0.0,
                    mean_ops: mean / 2.0,
                    iterations,
                })
        }

        fn arb_knowledge() -> impl Strategy<Value = Knowledge> {
            (
                "[ -~]{1,60}",
                proptest::collection::vec(arb_summary(), 0..4),
                0u64..1u64 << 40,
                0u64..1u64 << 30,
                1u32..512,
                proptest::option::of(0u64..1000),
            )
                .prop_map(|(command, summaries, block, xfer, tasks, _)| {
                    let mut k = Knowledge::new(KnowledgeSource::Ior, &command);
                    // Deduplicate operations: the store keys results by
                    // operation within a knowledge object.
                    let mut seen = std::collections::BTreeSet::new();
                    for summary in summaries {
                        if seen.insert(summary.operation.clone()) {
                            for i in 0..summary.iterations.min(3) {
                                k.results.push(IterationResult {
                                    operation: summary.operation.clone(),
                                    iteration: i,
                                    bw_mib: summary.mean_mib + f64::from(i),
                                    ops: 10,
                                    ops_per_sec: 5.0,
                                    latency_s: 0.001,
                                    open_s: 0.002,
                                    wrrd_s: 1.5,
                                    close_s: 0.003,
                                    total_s: 1.6,
                                });
                            }
                            k.summaries.push(summary);
                        }
                    }
                    k.pattern.block_size = block;
                    k.pattern.transfer_size = xfer;
                    k.pattern.tasks = tasks;
                    k.pattern.api = "POSIX".into();
                    k
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn arbitrary_knowledge_roundtrips(k in arb_knowledge()) {
                let mut store = KnowledgeStore::in_memory();
                let id = store.save_knowledge(&k).unwrap();
                let mut loaded = store.load_knowledge(id).unwrap().unwrap();
                loaded.id = None;
                prop_assert_eq!(loaded, k);
            }

            #[test]
            fn many_objects_keep_distinct_ids(
                ks in proptest::collection::vec(arb_knowledge(), 1..6)
            ) {
                let mut store = KnowledgeStore::in_memory();
                let mut ids = Vec::new();
                for k in &ks {
                    ids.push(store.save_knowledge(k).unwrap());
                }
                let mut unique = ids.clone();
                unique.sort_unstable();
                unique.dedup();
                prop_assert_eq!(unique.len(), ids.len());
                for (id, original) in ids.iter().zip(&ks) {
                    let mut loaded = store.load_knowledge(*id).unwrap().unwrap();
                    loaded.id = None;
                    prop_assert_eq!(&loaded, original);
                }
            }
        }
    }

    mod robustness {
        use super::*;
        use crate::vfs::{DiskFault, FaultVfs, Vfs};
        use crate::FaultPlan;
        use std::path::PathBuf;
        use std::sync::Arc;

        fn kb() -> PathBuf {
            PathBuf::from("/kb.json")
        }

        fn cmd_knowledge(i: usize) -> Knowledge {
            Knowledge::new(KnowledgeSource::Ior, &format!("cmd-{i}"))
        }

        fn stored_commands(store: &KnowledgeStore) -> Vec<String> {
            store
                .database()
                .rows("performances")
                .unwrap()
                .iter()
                .map(|row| row.values[0].as_text().unwrap_or("").to_owned())
                .collect()
        }

        #[test]
        fn enospc_mid_flush_is_transient_and_the_store_stays_coherent() {
            // Probe the op range the second save occupies.
            let probe = Arc::new(FaultVfs::pristine());
            let mut store =
                KnowledgeStore::open_with_vfs(kb(), probe.clone() as Arc<dyn Vfs>).unwrap();
            store.save_knowledge(&cmd_knowledge(0)).unwrap();
            let start = probe.op_count();
            store.save_knowledge(&cmd_knowledge(1)).unwrap();
            let end = probe.op_count();
            assert!(end > start);

            for op in start..end {
                let vfs = Arc::new(FaultVfs::new(FaultPlan::at(op, DiskFault::Enospc)));
                let mut store =
                    KnowledgeStore::open_with_vfs(kb(), vfs.clone() as Arc<dyn Vfs>).unwrap();
                store.save_knowledge(&cmd_knowledge(0)).unwrap();
                let generation = store.generation();
                let err = store.save_knowledge(&cmd_knowledge(1)).unwrap_err();
                assert!(matches!(err, DbError::Full(_)), "op {op}: {err}");
                assert!(vfs.faults_injected() >= 1);
                // The failed write bumped nothing and left memory equal
                // to the last loadable image — fully absent or (when the
                // fault hit the final directory sync, after the data
                // already reached the file) fully present, never torn.
                assert_eq!(store.generation(), generation, "op {op}");
                assert!(store.indexes_consistent().unwrap(), "op {op}");
                let commands = stored_commands(&store);
                assert!(
                    commands == vec!["cmd-0".to_owned()]
                        || commands == vec!["cmd-0".to_owned(), "cmd-1".to_owned()],
                    "op {op}: {commands:?}"
                );
                // The fault is one-shot, so a retry succeeds.
                if commands.len() == 1 {
                    store.save_knowledge(&cmd_knowledge(1)).unwrap();
                    assert_eq!(store.generation(), generation + 1);
                    assert_eq!(
                        stored_commands(&store),
                        vec!["cmd-0".to_owned(), "cmd-1".to_owned()]
                    );
                }
            }
        }

        /// What each kind of write asks of the filesystem, as (operations,
        /// of which fsyncs). A document — manifest or segment — is create,
        /// write, fsync, ONE rename, directory fsync.
        #[test]
        fn what_a_write_costs_the_filesystem() {
            let vfs = Arc::new(FaultVfs::pristine());
            let mut store =
                KnowledgeStore::open_with_vfs(kb(), vfs.clone() as Arc<dyn Vfs>).unwrap();
            let counts = || (vfs.op_count(), vfs.sync_count());
            let since =
                |before: (u64, u64)| (vfs.op_count() - before.0, vfs.sync_count() - before.1);
            // A fresh store: the manifest, then the log's open, write,
            // fsync and directory fsync.
            let before = counts();
            store.save_knowledge(&cmd_knowledge(0)).unwrap();
            assert_eq!(since(before), (9, 4));
            // Ever after: the record's write and its fsync.
            let before = counts();
            store.save_knowledge(&cmd_knowledge(1)).unwrap();
            assert_eq!(since(before), (2, 1));
            // A seal: the manifest, which adopts the log as the segment.
            let before = counts();
            store.seal_active().unwrap();
            assert_eq!(since(before), (5, 2));
            // A tombstone: the manifest.
            let before = counts();
            assert!(store.delete_knowledge(1).unwrap());
            assert_eq!(since(before), (5, 2));
        }

        /// A save whose log append fails — torn by a short write, refused
        /// outright, or written whole and then failing its fsync — is
        /// not visible, and nothing acknowledged later makes it durable.
        #[test]
        fn a_failed_append_is_neither_visible_nor_replayed_later() {
            // With the log open and the manifest clean, a save is two
            // filesystem operations: the record's write and its fsync.
            let probe = Arc::new(FaultVfs::pristine());
            let mut store =
                KnowledgeStore::open_with_vfs(kb(), probe.clone() as Arc<dyn Vfs>).unwrap();
            store.save_knowledge(&cmd_knowledge(0)).unwrap();
            let (write, fsync) = (probe.op_count(), probe.sync_count());
            store.save_knowledge(&cmd_knowledge(1)).unwrap();
            assert_eq!(probe.op_count(), write + 2);

            for plan in [
                (write, DiskFault::ShortWrite),
                (write, DiskFault::Eio),
                (write + 1, DiskFault::Eio),
                (fsync, DiskFault::FailSync),
            ] {
                let vfs = Arc::new(FaultVfs::new(FaultPlan::from_iter([plan])));
                let mut store =
                    KnowledgeStore::open_with_vfs(kb(), vfs.clone() as Arc<dyn Vfs>).unwrap();
                store.save_knowledge(&cmd_knowledge(0)).unwrap();
                let generation = store.generation();
                assert!(store.save_knowledge(&cmd_knowledge(1)).is_err(), "{plan:?}");
                assert_eq!(stored_commands(&store), vec!["cmd-0"], "{plan:?}");
                assert_eq!(store.generation(), generation, "{plan:?}");
                assert!(!store.is_read_only(), "{plan:?}");
                // The id the failed save took is issued again.
                assert_eq!(store.save_knowledge(&cmd_knowledge(2)).unwrap(), 2);
                for state in vfs.crash_states() {
                    let reopened =
                        KnowledgeStore::open_with_vfs(kb(), Arc::new(FaultVfs::from_state(state)))
                            .unwrap();
                    assert_eq!(
                        stored_commands(&reopened),
                        vec!["cmd-0", "cmd-2"],
                        "{plan:?}"
                    );
                    assert!(reopened.load_knowledge(2).unwrap().is_some());
                }
            }
        }

        /// When the failed append cannot be undone either, the log may
        /// hold a record nobody acknowledged: the store stops writing.
        #[test]
        fn a_failed_append_that_cannot_be_truncated_degrades_the_store() {
            let probe = Arc::new(FaultVfs::pristine());
            let mut store =
                KnowledgeStore::open_with_vfs(kb(), probe.clone() as Arc<dyn Vfs>).unwrap();
            store.save_knowledge(&cmd_knowledge(0)).unwrap();
            let write = probe.op_count();
            // The fsync fails, and so does the truncate that follows it.
            let vfs = Arc::new(FaultVfs::new(FaultPlan::from_iter([
                (write + 1, DiskFault::Eio),
                (write + 2, DiskFault::Eio),
            ])));
            let mut store =
                KnowledgeStore::open_with_vfs(kb(), vfs.clone() as Arc<dyn Vfs>).unwrap();
            store.save_knowledge(&cmd_knowledge(0)).unwrap();
            let generation = store.generation();
            assert!(store.save_knowledge(&cmd_knowledge(1)).is_err());
            assert!(store.is_read_only());
            assert!(matches!(
                store.save_knowledge(&cmd_knowledge(2)),
                Err(DbError::ReadOnly(_))
            ));
            // The log holds that record whole and the reload replayed it:
            // reads changed under a save reported failed, so the
            // generation moved with them.
            assert_eq!(stored_commands(&store), vec!["cmd-0", "cmd-1"]);
            assert!(store.generation() > generation);
        }

        fn open_sealing_every_two(vfs: &Arc<FaultVfs>) -> KnowledgeStore {
            let mut store =
                KnowledgeStore::open_with_vfs(kb(), vfs.clone() as Arc<dyn Vfs>).unwrap();
            store.set_seal_threshold(2);
            store
        }

        fn cmd_batch(n: usize) -> Vec<KnowledgeItem> {
            (0..n)
                .map(|i| KnowledgeItem::Benchmark(cmd_knowledge(i)))
                .collect()
        }

        /// A batch that fails after a seal inside it committed a prefix
        /// keeps that prefix visible — under a new generation.
        #[test]
        fn a_batch_failing_after_its_mid_batch_seal_bumps_the_generation() {
            // A two-item batch ends with its seal, so the next operation
            // of a three-item batch is the flush of the unsealed tail.
            let probe = Arc::new(FaultVfs::pristine());
            open_sealing_every_two(&probe)
                .save_batch(&cmd_batch(2))
                .unwrap();
            let vfs = Arc::new(FaultVfs::new(FaultPlan::at(
                probe.op_count(),
                DiskFault::Eio,
            )));
            let mut store = open_sealing_every_two(&vfs);
            let generation = store.generation();
            assert!(store.save_batch(&cmd_batch(3)).is_err());
            assert_eq!(store.knowledge_count(), 2);
            assert!(store.generation() > generation);
            assert!(!store.is_read_only());
        }

        /// A tombstone whose manifest rename landed and whose directory
        /// sync failed hides the run after the reload — under a new
        /// generation, although the delete is reported failed.
        #[test]
        fn a_tombstone_failing_at_its_directory_sync_bumps_the_generation() {
            // The directory sync is the last operation of the delete.
            let probe = Arc::new(FaultVfs::pristine());
            let mut store = open_sealing_every_two(&probe);
            store.save_batch(&cmd_batch(2)).unwrap();
            assert!(store.delete_knowledge(1).unwrap());
            let vfs = Arc::new(FaultVfs::new(FaultPlan::at(
                probe.op_count() - 1,
                DiskFault::Eio,
            )));
            let mut store = open_sealing_every_two(&vfs);
            store.save_batch(&cmd_batch(2)).unwrap();
            let generation = store.generation();
            assert!(store.delete_knowledge(1).is_err());
            assert_eq!(store.knowledge_count(), 1);
            assert!(store.generation() > generation);
            // A delete that fails before the rename changes nothing.
            let vfs = Arc::new(FaultVfs::new(FaultPlan::at(
                probe.op_count() - 2,
                DiskFault::Eio,
            )));
            let mut store = open_sealing_every_two(&vfs);
            store.save_batch(&cmd_batch(2)).unwrap();
            assert!(store.delete_knowledge(1).is_err());
            assert_eq!(store.knowledge_count(), 2);
            assert_eq!(store.generation(), generation);
        }

        #[test]
        fn log_counters_register_on_attach_and_carry_what_open_replayed() {
            let disk = Arc::new(FaultVfs::pristine());
            let recorder = Arc::new(iokc_obs::Recorder::disabled());
            let counter = |name: &str| recorder.metrics().counter(name).get();
            {
                let mut store =
                    KnowledgeStore::open_with_vfs(kb(), disk.clone() as Arc<dyn Vfs>).unwrap();
                store.save_knowledge(&cmd_knowledge(0)).unwrap();
                store.attach_recorder(Arc::clone(&recorder));
                store.save_knowledge(&cmd_knowledge(1)).unwrap();
                assert_eq!(counter("store.wal.appends"), 2);
                let log = persist::wal_path(&kb(), 0);
                assert_eq!(counter("store.wal.bytes"), disk.len(&log).unwrap());
                assert_eq!(counter("store.wal.replayed_records"), 0);
                disk.set_len(&log, disk.len(&log).unwrap() - 3).unwrap();
            }
            let recorder = Arc::new(iokc_obs::Recorder::disabled());
            let counter = |name: &str| recorder.metrics().counter(name).get();
            let mut store = KnowledgeStore::open_with_vfs(kb(), disk as Arc<dyn Vfs>).unwrap();
            store.attach_recorder(Arc::clone(&recorder));
            assert_eq!(counter("store.wal.replayed_records"), 1);
            assert_eq!(counter("store.wal.torn_tails_truncated"), 0);
            store.save_knowledge(&cmd_knowledge(2)).unwrap();
            assert_eq!(counter("store.wal.torn_tails_truncated"), 1);
            assert_eq!(stored_commands(&store), vec!["cmd-0", "cmd-2"]);
        }

        /// A seal adopts the epoch's log as the segment — the manifest is
        /// all it writes — after cutting a tail a crash tore before the
        /// reopen; that cut, and the one a first append makes, each log
        /// what was cut and why.
        #[test]
        fn a_seal_adopts_its_log_and_logs_every_torn_tail_cut() {
            let disk = Arc::new(FaultVfs::pristine());
            let sink = Arc::new(iokc_obs::MemorySink::new());
            let recorder = Arc::new(iokc_obs::Recorder::new(
                iokc_obs::Clock::wall(),
                Arc::clone(&sink) as Arc<dyn iokc_obs::EventSink>,
            ));
            let open = || {
                let mut store =
                    KnowledgeStore::open_with_vfs(kb(), disk.clone() as Arc<dyn Vfs>).unwrap();
                store.attach_recorder(Arc::clone(&recorder));
                store
            };
            // Save `runs`, then tear the last record: the bytes a reopen
            // drops with it.
            let save_and_tear = |store: &mut KnowledgeStore, log: &Path, runs: &[usize]| {
                let mut acked = 0;
                for &i in runs {
                    acked = disk.len(log).unwrap_or(0);
                    store.save_knowledge(&cmd_knowledge(i)).unwrap();
                }
                let torn = disk.len(log).unwrap() - 3;
                disk.set_len(log, torn).unwrap();
                torn - acked
            };
            let (sealed, active) = (persist::wal_path(&kb(), 0), persist::wal_path(&kb(), 1));
            let cut_sealed = save_and_tear(&mut open(), &sealed, &[0, 1, 2]);
            let mut store = open();
            store.seal_active().unwrap();
            let len = disk.len(&sealed).unwrap();
            assert_eq!(
                store.segment_metas()[0].body,
                SegmentBody {
                    file: BodyFile::Adopted(0),
                    len
                }
            );
            assert!(!disk.exists(&persist::segment_path(&kb(), 0)));
            let cut_active = save_and_tear(&mut store, &active, &[3, 4]);
            drop(store);
            let mut store = open();
            store.save_knowledge(&cmd_knowledge(5)).unwrap();
            assert_eq!(stored_commands(&store), vec!["cmd-3", "cmd-5"]);
            assert_eq!(store.knowledge_count(), 4);

            let logged: Vec<String> = sink
                .snapshot()
                .into_iter()
                .filter_map(|event| match event.kind {
                    iokc_obs::EventKind::Log { message, .. } => Some(message),
                    _ => None,
                })
                .collect();
            let warning = |log: &Path, cut: u64, records: usize| {
                format!(
                    "WARN store.wal.torn_tail_truncated {}: {cut} bytes after {records} records",
                    log.display()
                )
            };
            assert_eq!(
                logged,
                vec![
                    warning(&sealed, cut_sealed, 2),
                    warning(&active, cut_active, 1)
                ]
            );
            let counter = |name: &str| recorder.metrics().counter(name).get();
            assert_eq!(counter("store.seal.adopted"), 1);
            assert_eq!(counter("store.wal.torn_tails_truncated"), 2);
        }

        #[test]
        fn store_is_send_and_sync() {
            fn assert_send_sync<T: Send + Sync>() {}
            assert_send_sync::<KnowledgeStore>();
        }

        /// A store holding one run whose manifest was then cut short,
        /// opened degraded.
        fn degraded() -> KnowledgeStore {
            let disk = Arc::new(FaultVfs::pristine());
            let mut store =
                KnowledgeStore::open_with_vfs(kb(), disk.clone() as Arc<dyn Vfs>).unwrap();
            store.save_knowledge(&cmd_knowledge(0)).unwrap();
            disk.set_len(&kb(), 9).unwrap();
            KnowledgeStore::open_or_degraded_with_vfs(kb(), disk)
        }

        #[test]
        fn degraded_store_rejects_writes_with_read_only() {
            let mut store = degraded();
            assert!(store.is_read_only());
            assert!(matches!(
                store.save_knowledge(&cmd_knowledge(1)),
                Err(DbError::ReadOnly(_))
            ));
            assert!(matches!(
                store.delete_knowledge(1),
                Err(DbError::ReadOnly(_))
            ));
            // Reads still answer (over the empty schema).
            assert_eq!(store.knowledge_count(), 0);
            // The Persister mapping surfaces it as a permanent error.
            let mut ctx = PhaseCtx::detached(PhaseKind::Persistence, "knowledge-store");
            assert!(store
                .persist(&mut ctx, &[KnowledgeItem::Benchmark(cmd_knowledge(1))])
                .is_err());
        }

        #[test]
        fn robustness_counters_register_on_attach() {
            let mut store = degraded();
            let recorder = Arc::new(iokc_obs::Recorder::disabled());
            store.attach_recorder(Arc::clone(&recorder));
            let metrics = recorder.metrics();
            assert_eq!(metrics.counter("store.open_degraded").get(), 1);
            assert_eq!(metrics.counter("store.fsck_repairs").get(), 0);
            // A healthy store does not bump the degraded counter.
            let mut healthy = KnowledgeStore::in_memory();
            let recorder2 = Arc::new(iokc_obs::Recorder::disabled());
            healthy.attach_recorder(Arc::clone(&recorder2));
            assert_eq!(recorder2.metrics().counter("store.open_degraded").get(), 0);
        }
    }

    #[test]
    fn generation_bumps_on_writes_and_deletes_only() {
        let mut store = KnowledgeStore::in_memory();
        let opened = store.generation();
        let id = store.save_knowledge(&sample_knowledge()).unwrap();
        assert_eq!(store.generation(), opened + 1);
        store.save_io500(&sample_io500()).unwrap();
        assert_eq!(store.generation(), opened + 2);
        // Reads do not invalidate.
        store.load_knowledge(id).unwrap();
        store.query_items(&Query::all()).unwrap();
        assert_eq!(store.generation(), opened + 2);
        // Deleting an absent object is a no-op for the generation.
        assert!(!store.delete_knowledge(999).unwrap());
        assert_eq!(store.generation(), opened + 2);
        assert!(store.delete_knowledge(id).unwrap());
        assert_eq!(store.generation(), opened + 3);
    }

    #[test]
    fn delete_knowledge_cascades_to_dependents() {
        let mut store = KnowledgeStore::in_memory();
        let keep = store
            .save_knowledge(&sample_knowledge().with_warning("partial"))
            .unwrap();
        let gone = store
            .save_knowledge(&sample_knowledge().with_warning("other"))
            .unwrap();
        assert!(store.delete_knowledge(gone).unwrap());
        assert!(store.load_knowledge(gone).unwrap().is_none());
        let db = store.database();
        assert_eq!(db.row_count("performances").unwrap(), 1);
        assert_eq!(db.row_count("summaries").unwrap(), 1);
        assert_eq!(db.row_count("results").unwrap(), 2);
        assert_eq!(db.row_count("filesystems").unwrap(), 1);
        assert_eq!(db.row_count("systeminfos").unwrap(), 1);
        assert_eq!(db.row_count("warnings").unwrap(), 1);
        // The surviving object is intact, warnings included.
        let survivor = store.load_knowledge(keep).unwrap().unwrap();
        assert_eq!(survivor.warnings, vec!["partial".to_owned()]);
    }

    #[test]
    fn derived_from_is_persisted() {
        let mut store = KnowledgeStore::in_memory();
        let parent = store.save_knowledge(&sample_knowledge()).unwrap();
        let mut child = sample_knowledge();
        child.derived_from = Some(parent);
        let child_id = store.save_knowledge(&child).unwrap();
        let loaded = store.load_knowledge(child_id).unwrap().unwrap();
        assert_eq!(loaded.derived_from, Some(parent));
    }
}
