//! `ingest_churn`: the store's write side and nothing else. Batched
//! saves of pre-built items, deletes of sealed runs, seals and
//! compactions, then reopen and read everything back.

use super::{account_device, reopen_and_fsck, timed, Ctx, Round, StoreFs, Workload};
use crate::synth;
use crate::vfs::VfsCounts;
use iokc_core::model::KnowledgeItem;
use std::collections::BTreeSet;

/// One pre-built batch and its user bytes per item.
struct Batch {
    items: Vec<KnowledgeItem>,
    item_bytes: Vec<u64>,
}

/// See the module docs.
pub struct IngestChurn {
    batches: Vec<Batch>,
}

impl IngestChurn {
    fn run(&self, ctx: &Ctx, batches: &[Batch]) -> Round {
        let scale = &ctx.scale;
        let mut round = Round::default();
        let tracer = &ctx.tracer;
        let fs = StoreFs::pristine();
        let mut store = fs.open(scale.ingest_seal_threshold);

        // Acknowledged benchmark ids with their user bytes, in id order;
        // IO500 ids likewise. Deletes take the lowest live benchmark ids
        // that a segment already holds.
        let mut bench: Vec<(u64, u64)> = Vec::new();
        let mut io500: Vec<(u64, u64)> = Vec::new();
        let mut deleted: BTreeSet<u64> = BTreeSet::new();
        let mut delete_cursor = 0usize;
        let mut runs_rewritten = 0u64;

        let ((), main_s) = timed(|| {
            for (b, batch) in batches.iter().enumerate() {
                tracer.next_op();
                let (ids, secs) =
                    timed(|| tracer.span("store.save_batch", || store.save_batch(&batch.items)));
                round.op_ms.push(secs * 1e3);
                let ids = ids.unwrap_or_default();
                round.check(
                    ids.len() == batch.items.len(),
                    "save_batch acknowledges every item",
                );
                round.ops += ids.len() as u64;
                for ((item, id), bytes) in batch.items.iter().zip(ids).zip(&batch.item_bytes) {
                    match item {
                        KnowledgeItem::Benchmark(_) => bench.push((id, *bytes)),
                        KnowledgeItem::Io500(_) => io500.push((id, *bytes)),
                    }
                }
                if (b + 1) % scale.ingest_delete_every == 0 {
                    let sealed_to = store
                        .segment_metas()
                        .iter()
                        .filter_map(|m| m.bench_ids.map(|(_, hi)| hi))
                        .max()
                        .unwrap_or(0);
                    tracer.next_op();
                    for _ in 0..scale.ingest_deletes {
                        let Some(&(id, _)) = bench.get(delete_cursor).filter(|e| e.0 <= sealed_to)
                        else {
                            break;
                        };
                        delete_cursor += 1;
                        let gone = tracer.span("store.delete", || store.delete_knowledge(id));
                        round.check(gone.unwrap_or(false), "delete of a sealed run succeeds");
                        deleted.insert(id);
                    }
                }
                if (b + 1) % scale.ingest_compact_every == 0 {
                    tracer.next_op();
                    let report = tracer.span("store.compact", || store.compact());
                    round.check(report.is_ok(), "compaction succeeds");
                    runs_rewritten += report.map_or(0, |r| r.runs_rewritten as u64);
                }
            }
        });
        round.main_s = main_s;
        drop(store);

        let store = reopen_and_fsck(ctx, &fs, scale.ingest_seal_threshold, &mut round);
        tracer.next_op();
        let ((live, wrong), secs) = timed(|| {
            tracer.span("store.readback", || {
                let mut live = 0u64;
                let mut wrong = 0u64;
                for &(id, _) in &bench {
                    let found = store.load_knowledge(id).ok().flatten().is_some();
                    live += u64::from(found);
                    wrong += u64::from(found == deleted.contains(&id));
                }
                for &(id, _) in &io500 {
                    let found = store.load_io500(id).ok().flatten().is_some();
                    live += u64::from(found);
                    wrong += u64::from(!found);
                }
                (live, wrong)
            })
        });
        round.readback_s = secs;
        round.readback_rows = live;
        round.check(
            wrong == 0,
            "every acknowledged id loads after reopen and every deleted id is absent",
        );
        round.user_bytes = bench.iter().chain(&io500).map(|e| e.1).sum();
        round.live_user_bytes = round.user_bytes
            - bench
                .iter()
                .filter(|e| deleted.contains(&e.0))
                .map(|e| e.1)
                .sum::<u64>();
        account_device(&fs, VfsCounts::default(), &mut round);
        round
            .counts
            .insert("store.compact.runs_rewritten", runs_rewritten as f64);
        round.store = Some(store);
        round
    }
}

impl Workload for IngestChurn {
    /// Build the IO500 pool and every batch of the round, then ingest
    /// the first few batches into a scratch store as warm-up.
    fn setup(ctx: &Ctx) -> IngestChurn {
        let scale = &ctx.scale;
        let pool = synth::io500_pool(ctx.seed, scale.io500_pool, &ctx.tracer);
        let n = scale.ingest_batch_items;
        let batches = (0..scale.ingest_batches)
            .map(|b| {
                let items = synth::items(ctx.seed, &pool, b * n, (b + 1) * n);
                let item_bytes = items
                    .iter()
                    .map(|item| synth::user_bytes(std::slice::from_ref(item)))
                    .collect();
                Batch { items, item_bytes }
            })
            .collect();
        let workload = IngestChurn { batches };
        let warm = scale.ingest_batches.min(8);
        let warmup = workload.run(ctx, &workload.batches[..warm]);
        assert_eq!(warmup.failed, 0, "warm-up ingest must be healthy");
        workload
    }

    fn round(&mut self, ctx: &Ctx) -> Round {
        self.run(ctx, &self.batches)
    }
}
