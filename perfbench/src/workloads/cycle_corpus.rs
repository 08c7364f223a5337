//! `cycle_corpus`: the `iokc corpus gen` → `iokc agg --outliers` path,
//! in process. The simulator and the IO500 driver do nearly all of the
//! work, so a change to either shows here and a store change must not.

use super::{
    account_device, attach_registry, read_store_registry, reopen_and_fsck, timed, Ctx, Round,
    StoreFs, Workload, DEFAULT_SEAL_THRESHOLD,
};
use crate::synth;
use crate::vfs::VfsCounts;
use iokc_analysis::{CorpusBoxes, Verdict, DEFAULT_HIGH_Q, DEFAULT_MARGIN};
use iokc_benchmarks::CorpusSpec;
use iokc_core::model::KnowledgeItem;
use iokc_core::phases::PhaseKind;
use iokc_core::PhaseCtx;
use iokc_jube::campaign::Record;
use iokc_store::journal::JournalWriter;
use iokc_store::{
    AggregateQuery, AggregateResult, DeadlineToken, Factor, GroupBy, KnowledgeStore, Query,
    RunKind, RunPredicate,
};
use std::collections::BTreeSet;
use std::path::Path;

/// Where the campaign journal lives, next to the store.
const JOURNAL_PATH: &str = "/perf/knowledge.iokc.json.corpus/journal";

/// Lower quantile of the expectation boxes. One point in 32 (3.1 %) is
/// a planted outlier, so the default 1 % band would sit inside the
/// outliers themselves at corpus scale; 5 % puts its edge on a healthy
/// run once a task group holds more than 1 / (0.05 - 1/32) = 54 runs.
const LOW_Q: f64 = 0.05;

/// Points from which each of the three task groups is large enough for
/// [`LOW_Q`] to clear the planted outliers; smaller corpora (the
/// warm-up) skip the outlier check.
pub const MIN_POINTS_FOR_OUTLIER_CHECK: usize = 192;

/// See the module docs.
pub struct CycleCorpus;

/// Group statistics agree: counts and order statistics exactly, the
/// Welford moments to within rounding of a different fold order.
fn aggregates_agree(a: &AggregateResult, b: &AggregateResult) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    a.rows_aggregated == b.rows_aggregated
        && a.groups.len() == b.groups.len()
        && a.groups.iter().zip(&b.groups).all(|(g, h)| {
            g.key == h.key
                && g.count == h.count
                && g.min == h.min
                && g.max == h.max
                && g.percentiles == h.percentiles
                && g.histogram == h.histogram
                && close(g.mean, h.mean)
                && close(g.stddev, h.stddev)
        })
}

impl CycleCorpus {
    fn run(ctx: &Ctx, points: usize) -> Round {
        let mut round = Round::default();
        let tracer = &ctx.tracer;
        let fs = StoreFs::pristine();
        let mut store = fs.open(DEFAULT_SEAL_THRESHOLD);
        let registry = ctx.trace_run.then(|| attach_registry(&mut store));
        let spec = CorpusSpec::new(points, ctx.seed);
        let mut journal = JournalWriter::open_vfs(Path::new(JOURNAL_PATH), fs.vfs.as_ref())
            .expect("journal opens");
        let mut append = |record: Record| {
            tracer.span("store.journal.append", || {
                journal
                    .append(&record.encode())
                    .expect("journal append succeeds");
            });
        };
        append(Record::Campaign {
            benchmark: "io500-corpus".to_owned(),
            fingerprint: spec.fingerprint(),
            total: spec.runs,
        });

        let mut pctx = PhaseCtx::detached(PhaseKind::Extraction, "perf-corpus");
        let mut batch: Vec<KnowledgeItem> = Vec::new();
        let mut batch_wps: Vec<usize> = Vec::new();
        let mut extracted = 0u64;
        let mut saved = 0u64;
        let mut kept: Vec<Vec<KnowledgeItem>> = Vec::new();
        // Persist-then-journal in chunks, as `iokc corpus gen` does.
        let mut flush = |store: &mut KnowledgeStore,
                         batch: &mut Vec<KnowledgeItem>,
                         batch_wps: &mut Vec<usize>,
                         append: &mut dyn FnMut(Record)| {
            if batch.is_empty() {
                return;
            }
            let ids = tracer.span("store.save_batch", || store.save_batch(batch));
            saved += ids.map_or(0, |ids| ids.len() as u64);
            for wp in batch_wps.drain(..) {
                append(Record::Done {
                    wp,
                    attempts: 1,
                    elapsed_ms: 0,
                    commands: Vec::new(),
                    outputs: Vec::new(),
                });
            }
            kept.push(std::mem::take(batch));
        };

        let (analysis, main_s) = timed(|| {
            for index in 0..points {
                tracer.next_op();
                let ((), secs) = timed(|| {
                    append(Record::Start { wp: index });
                    let items = synth::corpus_point(&spec, index, &mut pctx, tracer);
                    extracted += items.len() as u64;
                    batch.extend(items);
                    batch_wps.push(index);
                    if batch.len() >= ctx.scale.corpus_chunk {
                        flush(&mut store, &mut batch, &mut batch_wps, &mut append);
                    }
                });
                round.op_ms.push(secs * 1e3);
            }
            tracer.next_op();
            flush(&mut store, &mut batch, &mut batch_wps, &mut append);
            let sealed = tracer.span("store.seal", || store.seal_active());

            // `iokc agg --group tasks --factor total_score --outliers`.
            tracer.next_op();
            let query = AggregateQuery::new(GroupBy::TasksLog2, Factor::TotalScore)
                .with_predicate(RunPredicate::Kind(RunKind::Io500))
                .with_percentiles(&[LOW_Q, 0.25, 0.5, 0.75, DEFAULT_HIGH_Q]);
            let result = tracer.span("store.aggregate", || {
                store.aggregate(&query, &DeadlineToken::unbounded())
            });
            let boxes = result.as_ref().ok().map(|result| {
                tracer.span("analysis.corpus_boxes", || {
                    CorpusBoxes::fit(
                        result,
                        GroupBy::TasksLog2,
                        Factor::TotalScore,
                        LOW_Q,
                        DEFAULT_HIGH_Q,
                        DEFAULT_MARGIN,
                    )
                })
            });
            let rows = tracer.span("store.query", || {
                store.query_summaries(
                    &Query::new(RunPredicate::Kind(RunKind::Io500)),
                    &DeadlineToken::unbounded(),
                )
            });
            let flagged = boxes.zip(rows.ok()).map(|(boxes, rows)| {
                tracer.span("analysis.corpus_boxes", || boxes.flag(rows.iter()))
            });
            (sealed.is_ok(), query, result.ok(), flagged)
        });
        let (sealed, query, result, flagged) = analysis;
        round.main_s = main_s;
        round.ops = points as u64;
        round.check(
            sealed && saved == points as u64,
            "every point is saved and the tail seals",
        );
        // Ids are assigned 1.. in index order, so the planted outliers
        // (every 32nd point) are the ids divisible by 32.
        let flagged = flagged.unwrap_or_default();
        let below: BTreeSet<u64> = flagged
            .iter()
            .filter(|o| o.verdict == Verdict::Below)
            .map(|o| o.id)
            .collect();
        // A crippled run on an already slow configuration can stay within
        // the box's 5 % slack, so not every planted outlier is flagged; in
        // every corpus measured four in five are, and nothing else is.
        if points >= MIN_POINTS_FOR_OUTLIER_CHECK {
            let planted = points / 32;
            round.check(
                below.iter().all(|id| id % 32 == 0) && below.len() * 3 >= planted * 2,
                "runs flagged below their group's box are planted outliers, two thirds of them or more",
            );
        }
        if let Some(registry) = &registry {
            read_store_registry(registry, &mut round);
        }
        drop(store);

        let store = reopen_and_fsck(ctx, &fs, DEFAULT_SEAL_THRESHOLD, &mut round);
        tracer.next_op();
        let (rows, secs) = timed(|| {
            tracer.span("store.readback", || {
                store.query_summaries(&Query::all(), &DeadlineToken::unbounded())
            })
        });
        let rows = rows.unwrap_or_default();
        round.readback_s = secs;
        round.readback_rows = rows.len() as u64;
        round.check(
            rows.len() == points && store.io500_count() == points,
            "every corpus run reads back after reopen",
        );
        round.check(
            result.is_some_and(|r| aggregates_agree(&r, &query.evaluate_rows(rows.iter()))),
            "pushed-down aggregate equals the aggregate over the rows",
        );
        round.user_bytes = kept.iter().map(|batch| synth::user_bytes(batch)).sum();
        round.live_user_bytes = round.user_bytes;
        account_device(&fs, VfsCounts::default(), &mut round);
        round.counts.insert("extract.items", extracted as f64);
        round
            .counts
            .insert("analysis.findings", flagged.len() as f64);
        round.store = Some(store);
        round
    }
}

impl Workload for CycleCorpus {
    /// A short warm-up corpus on a scratch store.
    fn setup(ctx: &Ctx) -> CycleCorpus {
        let warmup = CycleCorpus::run(ctx, ctx.scale.corpus_warmup);
        assert_eq!(warmup.failed, 0, "warm-up corpus must be healthy");
        CycleCorpus
    }

    fn round(&mut self, ctx: &Ctx) -> Round {
        CycleCorpus::run(ctx, ctx.scale.corpus_points)
    }
}
