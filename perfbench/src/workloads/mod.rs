//! The five workloads and what they share.
//!
//! A workload is a fixed amount of seeded work, the *round*, repeated
//! until the run's time is up. Every round starts from the same state
//! (a fresh store, or a fresh copy of the corpus built in set-up) and
//! gets the same inputs, so its counts repeat exactly and its timings
//! are samples of one distribution: a run reports medians over rounds
//! and percentiles over the pooled per-operation latencies.
//!
//! A round has timed sections — the main section, the reopens, `fsck`,
//! the read-back — and untimed gaps between them (building the cycle,
//! copying the corpus, comparing results). Only the sections count as
//! wall time.

pub mod cycle_corpus;
pub mod cycle_iterate;
pub mod explore;
pub mod ingest_churn;

use crate::trace::Tracer;
use crate::vfs::{CountingVfs, VfsCounts};
use iokc_obs::{Clock, MetricsRegistry, NullSink, Recorder};
use iokc_store::{fsck, FaultVfs, FsckOptions, KnowledgeStore};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 5] = [
    "cycle_iterate",
    "cycle_corpus",
    "ingest_churn",
    "explore_static",
    "explore_churn",
];

/// The store's own default seal threshold (`iokc` never changes it).
pub const DEFAULT_SEAL_THRESHOLD: usize = 1024;

/// Where every store lives inside its in-memory filesystem.
pub const STORE_PATH: &str = "/perf/knowledge.iokc.json";

/// Timed reopens per round; pooled over rounds for `reopen_ms`.
pub const REOPENS_PER_ROUND: usize = 8;

/// Sizes of one round. `full()` is what `BENCHMARK.json` measures;
/// `smoke()` is about a fiftieth of it, for the schema test.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// cycle_iterate: iterations of one long-lived cycle per round.
    pub cycle_iterations: usize,
    /// cycle_iterate: warm-up iterations in set-up.
    pub cycle_warmup: usize,
    /// cycle_corpus: corpus points per round.
    pub corpus_points: usize,
    /// cycle_corpus: points per `save_batch` + journal chunk.
    pub corpus_chunk: usize,
    /// cycle_corpus: warm-up points in set-up.
    pub corpus_warmup: usize,
    /// ingest_churn: `save_batch` calls per round.
    pub ingest_batches: usize,
    /// ingest_churn: items per batch.
    pub ingest_batch_items: usize,
    /// ingest_churn: delete `ingest_deletes` sealed ids every this many batches.
    pub ingest_delete_every: usize,
    /// ingest_churn: sealed ids deleted each time.
    pub ingest_deletes: usize,
    /// ingest_churn: `compact()` every this many batches.
    pub ingest_compact_every: usize,
    /// IO500 items built in set-up for the mixed item stream.
    pub io500_pool: usize,
    /// explore_*: runs in the sealed corpus.
    pub explore_corpus: usize,
    /// explore_static: requests per round.
    pub static_requests: usize,
    /// explore_churn: requests per round.
    pub churn_requests: usize,
    /// explore_churn: a `save_batch` every this many requests.
    pub churn_write_every: usize,
    /// explore_churn: runs per `save_batch`.
    pub churn_write_items: usize,
    /// explore_churn: deletes every this many requests.
    pub churn_delete_every: usize,
    /// explore_churn: ids deleted each time.
    pub churn_deletes: usize,
    /// ingest_churn: run count at which the active generation seals.
    /// The other workloads keep the store's default of 1024.
    pub ingest_seal_threshold: usize,
    /// A run measures at least this many primary operations, however
    /// short `--seconds` is: what a p99 needs.
    pub min_samples: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    /// The measured sizes.
    pub fn full() -> Scale {
        Scale {
            cycle_iterations: 256,
            cycle_warmup: 64,
            corpus_points: 768,
            corpus_chunk: 256,
            corpus_warmup: 64,
            ingest_batches: 200,
            ingest_batch_items: 12,
            ingest_delete_every: 40,
            ingest_deletes: 16,
            ingest_compact_every: 100,
            io500_pool: 32,
            explore_corpus: 8192,
            static_requests: 400,
            churn_requests: 200,
            churn_write_every: 25,
            churn_write_items: 32,
            churn_delete_every: 100,
            churn_deletes: 8,
            ingest_seal_threshold: 256,
            min_samples: 1000,
            setups: 5,
        }
    }

    /// About a fiftieth of [`Scale::full`]: one round per workload in
    /// well under a second. A p99 is still only reported from 1000
    /// samples, so the smoke run reports the maximum in its place.
    pub fn smoke() -> Scale {
        Scale {
            cycle_iterations: 12,
            cycle_warmup: 2,
            corpus_points: cycle_corpus::MIN_POINTS_FOR_OUTLIER_CHECK,
            corpus_chunk: 64,
            corpus_warmup: 2,
            ingest_batches: 24,
            ingest_batch_items: 12,
            ingest_delete_every: 8,
            ingest_deletes: 4,
            ingest_compact_every: 12,
            io500_pool: 4,
            explore_corpus: 512,
            static_requests: 160,
            churn_requests: 120,
            churn_write_every: 25,
            churn_write_items: 8,
            churn_delete_every: 50,
            churn_deletes: 2,
            ingest_seal_threshold: 64,
            min_samples: 0,
            setups: 1,
        }
    }
}

/// What a workload is handed.
pub struct Ctx {
    /// Drives the generated inputs only.
    pub seed: u64,
    /// Round sizes.
    pub scale: Scale,
    /// The span recorder (disabled unless this round is traced).
    pub tracer: Rc<Tracer>,
    /// Is this the `--trace 1` run? Stores then report into a registry.
    pub trace_run: bool,
}

/// Run `f` as a timed section.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    /// Seconds of the main section.
    pub main_s: f64,
    /// Primary operations the main section completed (iterations, runs
    /// ingested, requests).
    pub ops: u64,
    /// Latency of each latency-bearing operation of the main section.
    pub op_ms: Vec<f64>,
    /// Seconds of each reopen.
    pub reopen_ms: Vec<f64>,
    /// Seconds of the `fsck` pass.
    pub fsck_s: f64,
    /// Rows the read-back section returned.
    pub readback_rows: u64,
    /// Seconds of the read-back section.
    pub readback_s: f64,
    /// Operations and checks attempted / failed.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Device counts over the whole life of the round's store.
    pub vfs: VfsCounts,
    /// User bytes saved into the round's store over its whole life.
    pub user_bytes: u64,
    /// User bytes still live (saved minus deleted) at the end.
    pub live_user_bytes: u64,
    /// Bytes the store's files occupy at the end.
    pub space_bytes: u64,
    /// Exact counts and registry reads of the round, by per-layer
    /// metric name. Times come from spans, not from here.
    pub counts: BTreeMap<&'static str, f64>,
    /// Pooled per-layer latency samples by metric name (ms or µs as the
    /// name says), taken outside the tracer.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The store as reopened at the end of the round, for the traced
    /// run's direct-call read measurements.
    pub store: Option<KnowledgeStore>,
}

impl Round {
    /// Record the outcome of one check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perf: CHECK FAILED: {what}");
        }
    }

    /// Seconds of all timed sections.
    pub fn wall_s(&self) -> f64 {
        self.main_s + self.reopen_ms.iter().sum::<f64>() / 1e3 + self.fsck_s + self.readback_s
    }
}

/// One of the five workloads.
pub trait Workload {
    /// Build whatever every round starts from. Timed as `setup_s`; runs
    /// several times per process, the last instance is kept.
    fn setup(ctx: &Ctx) -> Self
    where
        Self: Sized;
    /// One round of fixed, seeded work.
    fn round(&mut self, ctx: &Ctx) -> Round;
}

/// A store's filesystem: a faithful in-memory disk under a counter.
pub struct StoreFs {
    /// The counting layer every store operation goes through.
    pub vfs: Arc<CountingVfs>,
    /// The disk underneath, for copying its state.
    pub disk: Arc<FaultVfs>,
}

impl StoreFs {
    /// An empty disk.
    pub fn pristine() -> StoreFs {
        StoreFs::from_state(BTreeMap::new())
    }

    /// A freshly mounted disk holding `state`.
    pub fn from_state(state: BTreeMap<PathBuf, Vec<u8>>) -> StoreFs {
        let existing: Vec<PathBuf> = state.keys().cloned().collect();
        let disk = Arc::new(FaultVfs::from_state(state));
        let vfs = Arc::new(CountingVfs::over(
            Arc::clone(&disk) as Arc<dyn iokc_store::Vfs>,
            existing,
        ));
        StoreFs { vfs, disk }
    }

    /// Open the store at [`STORE_PATH`], sealing at `seal_threshold`.
    pub fn open(&self, seal_threshold: usize) -> KnowledgeStore {
        let mut store = KnowledgeStore::open_with_vfs(
            PathBuf::from(STORE_PATH),
            Arc::clone(&self.vfs) as Arc<dyn iokc_store::Vfs>,
        )
        .expect("store opens");
        store.set_seal_threshold(seal_threshold);
        store
    }
}

/// Make `store`'s query counters readable: they report into the
/// returned registry from here on. `iokc` itself attaches no recorder,
/// so only the traced run does this.
pub fn attach_registry(store: &mut KnowledgeStore) -> Arc<MetricsRegistry> {
    let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
    let registry = recorder.metrics();
    store.attach_recorder(recorder);
    registry
}

/// The reopen section every round ends its writing with: open the store
/// [`REOPENS_PER_ROUND`] times from what is on disk (span `store.open`),
/// keep the last, and run `fsck` over it (span `store.fsck`). Records
/// `reopen_ms`, `fsck_s` and two checks.
pub fn reopen_and_fsck(
    ctx: &Ctx,
    fs: &StoreFs,
    seal_threshold: usize,
    round: &mut Round,
) -> KnowledgeStore {
    let mut last = None;
    for _ in 0..REOPENS_PER_ROUND {
        drop(last.take());
        ctx.tracer.next_op();
        let (opened, secs) = timed(|| ctx.tracer.span("store.open", || fs.open(seal_threshold)));
        round.reopen_ms.push(secs * 1e3);
        last = Some(opened);
    }
    let store = last.expect("at least one reopen");
    ctx.tracer.next_op();
    let (report, secs) = timed(|| {
        ctx.tracer.span("store.fsck", || {
            fsck(
                Path::new(STORE_PATH),
                fs.vfs.as_ref(),
                &FsckOptions::default(),
            )
        })
    });
    round.fsck_s = secs;
    round.check(report.clean(), "fsck is clean after the round");
    round.check(
        store.indexes_consistent().unwrap_or(false),
        "indexes are consistent after reopen",
    );
    store
}

/// Copy the store-side registry counters every workload reports.
pub fn read_store_registry(registry: &MetricsRegistry, round: &mut Round) {
    for (metric, counter) in [
        ("store.queries", "store.query.queries"),
        ("store.index_hits", "store.query.index_hits"),
        ("store.full_scans", "store.query.full_scans"),
        ("store.rows_pruned", "store.query.rows_pruned"),
        (
            "store.knowledge_deserialized",
            "store.query.knowledge_deserialized",
        ),
        ("store.aggregate.rows", "store.aggregate.rows"),
        (
            "store.aggregate.segments_pruned",
            "store.aggregate.segments_pruned",
        ),
    ] {
        *round.counts.entry(metric).or_default() += registry.counter(counter).get() as f64;
    }
}

/// Fill the device and space fields of `round` from the store's
/// filesystem, `before` being what an earlier filesystem already
/// counted for the same store (the corpus build of the explore
/// workloads).
pub fn account_device(fs: &StoreFs, before: VfsCounts, round: &mut Round) {
    round.vfs = before.plus(fs.vfs.counts());
    round.space_bytes = fs.vfs.space_bytes();
}

/// Direct-call twins of what explorerd asks of the store, timed on the
/// driver thread against a pinned [`iokc_store::Snapshot`], outside any
/// timed section: the store's share of a request, and the attribution
/// of a full listing (512-row `offset` pages, as the `/api/runs` stream
/// pulls them, against one unpaged query).
pub fn read_twins(store: &mut KnowledgeStore) -> BTreeMap<&'static str, f64> {
    use crate::stats::p50;
    use crate::synth::APIS;
    use iokc_store::{
        AggregateQuery, DeadlineToken, Factor, GroupBy, Query, RunKind, RunPredicate,
    };
    let registry = attach_registry(store);
    let deadline = DeadlineToken::unbounded();
    let mut out = BTreeMap::new();

    let mut pin_us: Vec<f64> = (0..32)
        .map(|_| timed(|| store.snapshot()).1 * 1e6)
        .collect();
    out.insert("store.snapshot.pin_us_p50", p50(&mut pin_us));
    let snapshot = store.snapshot();

    let refs = snapshot
        .query_ids(&Query::all(), &deadline)
        .unwrap_or_default();
    let total = refs.len();
    let mut point_us: Vec<f64> = refs
        .iter()
        .step_by((total / 64).max(1))
        .take(64)
        .map(|r| {
            timed(|| match r.kind {
                RunKind::Benchmark => snapshot
                    .load_knowledge(r.id)
                    .ok()
                    .flatten()
                    .map(|k| k.to_json().to_compact()),
                RunKind::Io500 => snapshot
                    .load_io500(r.id)
                    .ok()
                    .flatten()
                    .map(|k| k.to_json().to_compact()),
            })
            .1 * 1e6
        })
        .collect();
    out.insert("store.query.point_us_p50", p50(&mut point_us));

    let pruned = registry.counter("store.query.rows_pruned");
    let pruned_before = pruned.get();
    let mut filter_us = Vec::new();
    let mut returned = 0usize;
    for api in APIS {
        for lo in [1u32, 33, 65, 97] {
            let query = Query::new(
                RunPredicate::Kind(RunKind::Benchmark)
                    .and(RunPredicate::ApiEq(api.to_owned()))
                    .and(RunPredicate::TasksBetween(lo, lo + 31)),
            )
            .limit(50);
            let (rows, secs) = timed(|| snapshot.query_summaries(&query, &deadline));
            returned += rows.map_or(0, |rows| rows.len());
            filter_us.push(secs * 1e6);
        }
    }
    let examined = (filter_us.len() * total) as f64 - (pruned.get() - pruned_before) as f64;
    out.insert(
        "store.query.rows_examined_per_returned",
        examined / returned.max(1) as f64,
    );
    out.insert("store.query.filter_page_us_p50", p50(&mut filter_us));

    let ((), paged_s) = timed(|| {
        let mut offset = 0;
        loop {
            let page = Query::all().offset(offset).limit(512);
            let rows = snapshot
                .query_summaries(&page, &deadline)
                .map_or(0, |rows| rows.len());
            offset += rows;
            if rows < 512 {
                break;
            }
        }
    });
    out.insert("store.query.listing_paged_s", paged_s);
    let (_, once_s) = timed(|| snapshot.query_summaries(&Query::all(), &deadline));
    out.insert("store.query.listing_once_s", once_s);

    let aggregate = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth);
    let mut aggregate_us: Vec<f64> = (0..8)
        .map(|_| timed(|| snapshot.aggregate(&aggregate, &deadline)).1 * 1e6)
        .collect();
    out.insert("store.aggregate.us_p50", p50(&mut aggregate_us));
    out
}
