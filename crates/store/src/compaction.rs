//! Background compaction for the segmented store.
//!
//! Sealing ([`KnowledgeStore::seal_active`]) produces many small,
//! immutable segments — each the log of the epoch it sealed — and
//! deleting a segment-resident run only hides it behind a tombstone.
//! Compaction is the maintenance pass that folds both back: it merges
//! every sealed segment into one segment document, physically drops
//! tombstoned runs, rewrites the merged segment's index block
//! ([`crate::SegmentMeta`]) and publishes the result with a single
//! manifest write — the commit point, exactly like sealing — after
//! which the input files, adopted logs and documents alike, are
//! unlinked.
//!
//! Compaction never touches the active generation and never changes the
//! store's write [`Snapshot::generation`]: it moves rows between
//! layers without changing what any read returns. Open [`Snapshot`]s
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
//! store's [`crate::Vfs`] — the crash-consistency harness drives
//! `FaultVfs::crash_states()` straight through it.

use crate::database::DbError;
use crate::knowledge_store::{
    build_schema, copy_all_rows, delete_runs, KnowledgeStore, Manifest, Snapshot,
};
use crate::persist;
use crate::segment::{write_segment_vfs, Segment, SegmentData, SegmentMeta};
use iokc_obs::SpanStatus;
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
    /// rewriting the index block. No-op for in-memory stores, stores
    /// with nothing to merge, and a [`DbError::ReadOnly`] for degraded
    /// ones. See the module docs for the crash and snapshot contracts.
    pub fn compact(&mut self) -> Result<CompactionReport, DbError> {
        self.ensure_writable()?;
        let plan = self.compaction_plan();
        let Some(path) = self.path.clone() else {
            return Ok(CompactionReport::default());
        };
        if plan.is_noop() {
            return Ok(CompactionReport::default());
        }
        let recorder = Arc::clone(&self.obs.recorder);
        let span = recorder.start_span("store.compact", None, Some("analysis"), Some("store"));
        let result = self.compact_inner(&path, &plan);
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
                recorder.end_span(&span, SpanStatus::Ok);
            }
            Err(e) => {
                recorder.log(Some(span.id), &format!("WARN store.compact failed: {e}"));
                recorder.end_span(&span, SpanStatus::Failed);
            }
        }
        result
    }

    fn compact_inner(
        &mut self,
        path: &std::path::Path,
        plan: &CompactionPlan,
    ) -> Result<CompactionReport, DbError> {
        // Preload every input body through the *shared* handles before
        // anything is unlinked: open snapshots hold the same `Arc`s and
        // keep reading the pre-compaction layout from memory.
        let vfs = self.vfs.as_ref();
        let mut inputs: Vec<Arc<SegmentData>> = Vec::with_capacity(self.segments.len());
        for seg in self.segments.iter() {
            inputs.push(seg.data(vfs)?);
        }

        // Merge in memory: ids are globally unique across generations
        // and grow from segment to segment (sealing forwards every
        // auto-increment counter), so the merge is a plain row copy,
        // oldest first, followed by one cascade delete of every
        // tombstone.
        let mut merged = SegmentData::empty(build_schema());
        for data in &inputs {
            copy_all_rows(&data.db, &mut merged.db)?;
            merged.summaries.extend(
                data.summaries
                    .iter()
                    .filter(|(key, _)| !self.tombstones.contains(key))
                    .map(|(key, s)| (*key, s.clone())),
            );
        }
        delete_runs(&mut merged.db, &self.tombstones)?;

        // Write the output segment (if anything survived), then commit
        // with one manifest write.
        let output = if merged.summaries.is_empty() {
            None
        } else {
            let seg_id = self.next_segment;
            let seg_path = persist::segment_path(path, seg_id);
            write_segment_vfs(&seg_path, vfs, seg_id, &merged).map_err(|e| {
                persist::classify_io_error(&format!("compact segment {}", seg_path.display()), &e)
            })?;
            let meta = SegmentMeta::compute(seg_id, merged.summaries.values());
            Some((seg_id, seg_path, meta))
        };
        let manifest = Manifest {
            active_epoch: self.active_epoch,
            next_ids: self.epoch_base.clone(),
            next_segment: output
                .as_ref()
                .map_or(self.next_segment, |(id, _, _)| id + 1),
            tombstones: std::collections::BTreeSet::new(),
            segments: output
                .as_ref()
                .map(|(_, _, meta)| vec![meta.clone()])
                .unwrap_or_default(),
        };
        if let Err(e) = persist::write_document_vfs(path, vfs, &manifest.to_json()) {
            let classified =
                persist::classify_io_error(&format!("compact manifest {}", path.display()), &e);
            self.reload_from_disk(path);
            return Err(classified);
        }

        // Commit point passed: swap memory and sweep the input files.
        // The write generation is untouched — no read changes.
        let report = CompactionReport {
            segments_merged: plan.input_segments.len(),
            tombstones_dropped: self.tombstones.len(),
            runs_rewritten: merged.summaries.len(),
            output_segment: output.as_ref().map(|(id, _, _)| *id),
        };
        self.next_segment = manifest.next_segment;
        self.state.tombstones = Arc::default();
        self.manifest_dirty = false;
        let old_segments = std::mem::replace(
            &mut self.state.segments,
            Arc::new(
                output
                    .map(|(_, seg_path, meta)| {
                        Arc::new(Segment::preloaded(meta, seg_path, Arc::new(merged)))
                    })
                    .into_iter()
                    .collect(),
            ),
        );
        for seg in old_segments.iter() {
            for stale in [seg.path().to_path_buf(), persist::temp_path(seg.path())] {
                let _ = self.vfs.remove_file(&stale);
            }
        }
        Ok(report)
    }

    /// [`KnowledgeStore::compact`], then report against the snapshot
    /// taken *before* the pass — a convenience for tests asserting
    /// snapshot immunity.
    pub fn compact_with_snapshot(&mut self) -> Result<(Snapshot, CompactionReport), DbError> {
        let snapshot = self.snapshot();
        let report = self.compact()?;
        Ok((snapshot, report))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::query::{Query, RunKind, RunPredicate};
    use crate::vfs::FaultVfs;
    use iokc_core::model::{Knowledge, KnowledgeSource};
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
        let (snapshot, report) = store.compact_with_snapshot().unwrap();
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

    #[test]
    fn in_memory_compaction_is_a_noop() {
        let mut store = KnowledgeStore::in_memory();
        store.save_knowledge(&knowledge(0)).unwrap();
        assert_eq!(store.compact().unwrap(), CompactionReport::default());
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
        use crate::query::RunKind;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

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
