//! The runner: set-up, rounds until the time is up, and the metrics.
//!
//! End-to-end metrics come from untraced rounds only (`--trace 0`).
//! The traced run (`--trace 1`) alternates traced and untraced rounds
//! of the same work — their wall-time ratio is the tracing overhead —
//! and reports the per-layer metrics from the traced ones.

use crate::stats::{median, p50, percentile_over_rounds};
use crate::trace::{NameTotals, Tracer};
use crate::workloads::cycle_corpus::CycleCorpus;
use crate::workloads::cycle_iterate::CycleIterate;
use crate::workloads::explore::{ExploreChurn, ExploreStatic, REQUEST_SPANS};
use crate::workloads::ingest_churn::IngestChurn;
use crate::workloads::{read_twins, timed, Ctx, Round, Scale, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("write_amp", "x"),
    ("space_amp", "x"),
    ("peak_rss_mib", "MiB"),
];

/// The crates whose source lines are tracked (ROADMAP aim 2).
pub const CRATES: [&str; 14] = [
    "analysis",
    "bench",
    "benchmarks",
    "cli",
    "core",
    "darshan",
    "explorerd",
    "extract",
    "jube",
    "obs",
    "sim",
    "store",
    "usage",
    "util",
];

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Summed span time of a span name, seconds per round.
    Busy(&'static str),
    /// Span time minus direct children, seconds per round.
    SelfTime(&'static str),
    /// Longest single span, milliseconds.
    MaxMs(&'static str),
    /// Median duration of a span name, milliseconds, pooled over rounds.
    P50Ms(&'static str),
    /// A count or registry read the round took itself.
    Count,
    /// Median of samples the round took itself, pooled over rounds.
    SampleP50(&'static str),
    /// A direct-call read measurement on the final store.
    Twin,
    /// Computed in [`per_layer`].
    Derived,
}

/// Per-layer metrics: name, unit, source. `BENCHMARK.json` lists the
/// same names and units, then `<crate>.src_lines` for [`CRATES`].
const PER_LAYER: [(&str, &str, Src); 73] = [
    ("core.cycle.busy_s", "s", Src::Busy("core.cycle")),
    ("core.cycle.self_s", "s", Src::SelfTime("core.cycle")),
    (
        "benchmarks.generate.busy_s",
        "s",
        Src::Busy("benchmarks.generate"),
    ),
    (
        "benchmarks.execute.busy_s",
        "s",
        Src::Busy("benchmarks.execute"),
    ),
    (
        "benchmarks.execute.p50_ms",
        "ms",
        Src::P50Ms("benchmarks.execute"),
    ),
    ("extract.ior.busy_s", "s", Src::Busy("extract.ior")),
    ("extract.io500.busy_s", "s", Src::Busy("extract.io500")),
    ("extract.items", "count", Src::Count),
    ("store.persist.busy_s", "s", Src::Busy("store.persist")),
    (
        "store.save_batch.busy_s",
        "s",
        Src::Busy("store.save_batch"),
    ),
    (
        "store.save_batch.max_ms",
        "ms",
        Src::MaxMs("store.save_batch"),
    ),
    ("store.delete.busy_s", "s", Src::Busy("store.delete")),
    ("store.seal.busy_s", "s", Src::Busy("store.seal")),
    ("store.seals", "count", Src::Derived),
    ("store.compact.busy_s", "s", Src::Busy("store.compact")),
    ("store.compact.runs_rewritten", "count", Src::Count),
    (
        "store.journal.append.busy_s",
        "s",
        Src::Busy("store.journal.append"),
    ),
    ("store.open.busy_s", "s", Src::Busy("store.open")),
    ("store.fsck.busy_s", "s", Src::Busy("store.fsck")),
    ("store.vfs.bytes_written", "bytes", Src::Derived),
    ("store.vfs.bytes_read", "bytes", Src::Derived),
    ("store.vfs.fsyncs", "count", Src::Derived),
    ("store.vfs.renames", "count", Src::Derived),
    ("store.vfs.creates", "count", Src::Derived),
    ("store.space_bytes", "bytes", Src::Derived),
    ("store.user_bytes", "bytes", Src::Derived),
    ("store.load_all.busy_s", "s", Src::Busy("store.load_all")),
    ("store.load_all.items", "count", Src::Count),
    ("store.readback.busy_s", "s", Src::Busy("store.readback")),
    ("store.query.busy_s", "s", Src::Busy("store.query")),
    ("store.snapshot.pin_us_p50", "us", Src::Twin),
    ("store.query.point_us_p50", "us", Src::Twin),
    ("store.query.filter_page_us_p50", "us", Src::Twin),
    ("store.query.listing_paged_s", "s", Src::Twin),
    ("store.query.listing_once_s", "s", Src::Twin),
    ("store.query.rows_examined_per_returned", "x", Src::Twin),
    ("store.aggregate.busy_s", "s", Src::Busy("store.aggregate")),
    ("store.aggregate.us_p50", "us", Src::Twin),
    ("store.queries", "count", Src::Count),
    ("store.index_hits", "count", Src::Count),
    ("store.full_scans", "count", Src::Count),
    ("store.rows_pruned", "count", Src::Count),
    ("store.knowledge_deserialized", "count", Src::Count),
    ("store.aggregate.rows", "count", Src::Count),
    ("store.aggregate.segments_pruned", "count", Src::Count),
    ("analysis.busy_s", "s", Src::Busy("analysis")),
    ("analysis.findings", "count", Src::Count),
    (
        "analysis.corpus_boxes.busy_s",
        "s",
        Src::Busy("analysis.corpus_boxes"),
    ),
    ("usage.busy_s", "s", Src::Busy("usage")),
    ("explorerd.requests.busy_s", "s", Src::Derived),
    (
        "explorerd.point.p50_ms",
        "ms",
        Src::P50Ms("explorerd.point"),
    ),
    (
        "explorerd.filter.p50_ms",
        "ms",
        Src::P50Ms("explorerd.filter"),
    ),
    ("explorerd.agg.p50_ms", "ms", Src::P50Ms("explorerd.agg")),
    (
        "explorerd.not_modified.p50_ms",
        "ms",
        Src::P50Ms("explorerd.not_modified"),
    ),
    (
        "explorerd.compare.p50_ms",
        "ms",
        Src::P50Ms("explorerd.compare"),
    ),
    ("explorerd.html.p50_ms", "ms", Src::P50Ms("explorerd.html")),
    (
        "explorerd.health.p50_ms",
        "ms",
        Src::P50Ms("explorerd.health"),
    ),
    (
        "explorerd.ttfb_p50_ms",
        "ms",
        Src::SampleP50("explorerd.ttfb_ms"),
    ),
    (
        "explorerd.stream.busy_s",
        "s",
        Src::Busy("explorerd.stream"),
    ),
    (
        "explorerd.stream.first_byte_ms",
        "ms",
        Src::SampleP50("explorerd.stream.first_byte_ms"),
    ),
    ("explorerd.stream.bytes", "bytes", Src::Count),
    ("explorerd.http_overhead_us_p50", "us", Src::Derived),
    ("explorerd.cache.hit_ratio", "ratio", Src::Count),
    ("explorerd.cache.evictions", "count", Src::Count),
    ("explorerd.shed", "count", Src::Count),
    ("explorerd.status_5xx", "count", Src::Count),
    ("explorerd.deadline_exceeded", "count", Src::Count),
    // User-visible timings this box cannot hold to a quarter of their
    // value (README, "Measured spreads"), over all rounds of the traced
    // run.
    ("bench.op_p50_ms", "ms", Src::Derived),
    ("bench.op_p99_ms", "ms", Src::Derived),
    ("bench.reopen_ms", "ms", Src::Derived),
    ("bench.readback_rows_per_s", "rows/s", Src::Derived),
    ("bench.trace_overhead_pct", "%", Src::Derived),
    ("bench.span_coverage_pct", "%", Src::Derived),
];

/// Names and units of every per-layer metric, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|(name, unit, _)| ((*name).to_owned(), *unit))
        .chain([
            ("bench.spans".to_owned(), "count"),
            ("bench.rounds".to_owned(), "count"),
        ])
        .chain(CRATES.iter().map(|c| (format!("{c}.src_lines"), "lines")))
        .collect()
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`crate::workloads::NAMES`].
    pub workload: String,
    /// Drives the generated inputs.
    pub seed: u64,
    /// Keep starting rounds until this much time has passed.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke sizes (the schema test).
    pub smoke: bool,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The trace, when this was the traced run.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// The one-line JSON result the contract asks for.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// A table of every metric by name, with its unit.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<44} {value:>18.6} {unit}");
        }
        out
    }
}

/// One finished round and what the tracer saw of it.
struct Done {
    round: Round,
    traced: bool,
    totals: BTreeMap<&'static str, NameTotals>,
    root_ns: u64,
}

/// Run `args.workload`. `None` for an unknown workload name.
pub fn run(args: &Args) -> Option<Outcome> {
    Some(match args.workload.as_str() {
        "cycle_iterate" => drive::<CycleIterate>(args),
        "cycle_corpus" => drive::<CycleCorpus>(args),
        "ingest_churn" => drive::<IngestChurn>(args),
        "explore_static" => drive::<ExploreStatic>(args),
        "explore_churn" => drive::<ExploreChurn>(args),
        _ => return None,
    })
}

fn drive<W: Workload>(args: &Args) -> Outcome {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let ctx = Ctx {
        seed: args.seed,
        scale,
        tracer: Rc::new(Tracer::new()),
        trace_run: args.trace,
    };

    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..ctx.scale.setups {
        drop(workload.take());
        let (built, secs) = timed(|| W::setup(&ctx));
        setup_s.push(secs);
        workload = Some(built);
    }
    let mut workload = workload.expect("at least one set-up");

    let started = Instant::now();
    let mut done: Vec<Done> = Vec::new();
    loop {
        // Traced and untraced rounds alternate so that both see the same
        // machine state; the traced run needs two of each.
        let traced = args.trace && done.len().is_multiple_of(2);
        ctx.tracer.set_enabled(traced);
        let from = ctx.tracer.len();
        let round = workload.round(&ctx);
        ctx.tracer.set_enabled(false);
        if let Some(last) = done.last_mut() {
            last.round.store = None;
        }
        done.push(Done {
            round,
            traced,
            totals: ctx.tracer.totals_since(from),
            root_ns: ctx.tracer.root_ns_since(from),
        });
        let samples: usize = done.iter().map(|d| d.round.op_ms.len()).sum();
        let enough = samples >= ctx.scale.min_samples
            && (!args.trace || done.len() >= 4 && done.len().is_multiple_of(2));
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut attempted: u64 = done.iter().map(|d| d.round.attempted).sum();
    let mut failed: u64 = done.iter().map(|d| d.round.failed).sum();
    // Every round does the same seeded work, so what it asked of its
    // device must be the same to the byte.
    attempted += 1;
    let first = &done[0].round;
    let repeatable = done.iter().all(|d| {
        d.round.vfs == first.vfs
            && d.round.user_bytes == first.user_bytes
            && d.round.space_bytes == first.space_bytes
            && d.round.ops == first.ops
    });
    if !repeatable {
        failed += 1;
        eprintln!("perf: CHECK FAILED: device counts differ between rounds of the same work");
    }

    let metrics = if args.trace {
        let twins = done
            .last_mut()
            .and_then(|d| d.round.store.as_mut())
            .map(read_twins)
            .unwrap_or_default();
        per_layer(&ctx, &done, &twins)
    } else {
        end_to_end(&setup_s, &done)
    };
    for (name, value, _) in &metrics {
        attempted += 1;
        if !value.is_finite() {
            failed += 1;
            eprintln!("perf: CHECK FAILED: metric {name} is not finite");
        }
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        trace_json: args.trace.then(|| ctx.tracer.to_json(&args.workload)),
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

fn end_to_end(setup_s: &[f64], done: &[Done]) -> Vec<(String, f64, &'static str)> {
    let ops_per_s = median(
        &done
            .iter()
            .map(|d| d.round.ops as f64 / d.round.main_s)
            .collect::<Vec<f64>>(),
    );
    let last = &done[done.len() - 1].round;
    let values = [
        median(setup_s),
        ops_per_s,
        last.vfs.bytes_written as f64 / last.user_bytes as f64,
        last.space_bytes as f64 / last.live_user_bytes as f64,
        peak_rss_mib(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| ((*name).to_owned(), value, *unit))
        .collect()
}

fn per_layer(
    ctx: &Ctx,
    done: &[Done],
    twins: &BTreeMap<&'static str, f64>,
) -> Vec<(String, f64, &'static str)> {
    let traced: Vec<&Done> = done.iter().filter(|d| d.traced).collect();
    let untraced: Vec<&Done> = done.iter().filter(|d| !d.traced).collect();
    let last = traced[traced.len() - 1];
    let over_rounds = |f: &dyn Fn(&Done) -> f64| -> f64 {
        median(&traced.iter().map(|d| f(d)).collect::<Vec<f64>>())
    };
    let totals = |d: &Done, span: &str| d.totals.get(span).copied().unwrap_or_default();
    let pooled = |key: &str| -> f64 {
        let mut samples: Vec<f64> = traced
            .iter()
            .flat_map(|d| d.round.samples.get(key).cloned().unwrap_or_default())
            .collect();
        p50(&mut samples)
    };
    let span_p50_ms = |span: &str| p50(&mut ctx.tracer.durations_ms(span));
    let wall = |set: &[&Done]| median(&set.iter().map(|d| d.round.wall_s()).collect::<Vec<f64>>());

    let op_ms: Vec<Vec<f64>> = done.iter().map(|d| d.round.op_ms.clone()).collect();

    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    for (name, unit, src) in PER_LAYER {
        let value = match src {
            Src::Busy(span) => over_rounds(&|d| totals(d, span).busy_ns as f64 / 1e9),
            Src::SelfTime(span) => over_rounds(&|d| totals(d, span).self_ns as f64 / 1e9),
            Src::MaxMs(span) => over_rounds(&|d| totals(d, span).max_ns as f64 / 1e6),
            Src::P50Ms(span) => span_p50_ms(span),
            Src::Count => last.round.counts.get(name).copied().unwrap_or(0.0),
            Src::SampleP50(key) => pooled(key),
            Src::Twin => twins.get(name).copied().unwrap_or(0.0),
            Src::Derived => match name {
                "store.seals" => last.round.vfs.segments_written as f64,
                "store.vfs.bytes_written" => last.round.vfs.bytes_written as f64,
                "store.vfs.bytes_read" => last.round.vfs.bytes_read as f64,
                "store.vfs.fsyncs" => last.round.vfs.fsyncs as f64,
                "store.vfs.renames" => last.round.vfs.renames as f64,
                "store.vfs.creates" => last.round.vfs.creates as f64,
                "store.space_bytes" => last.round.space_bytes as f64,
                "store.user_bytes" => last.round.user_bytes as f64,
                "explorerd.requests.busy_s" => over_rounds(&|d| {
                    REQUEST_SPANS
                        .iter()
                        .map(|span| totals(d, span).busy_ns as f64 / 1e9)
                        .sum()
                }),
                // A point request as the client sees it, minus the same
                // lookup and rendering called directly.
                "explorerd.http_overhead_us_p50" => {
                    let point_us = span_p50_ms("explorerd.point") * 1e3;
                    let twin_us = twins.get("store.query.point_us_p50").copied();
                    if point_us > 0.0 {
                        point_us - twin_us.unwrap_or(0.0)
                    } else {
                        0.0
                    }
                }
                "bench.op_p50_ms" => percentile_over_rounds(&op_ms, 0.5).map_or(0.0, |p| p.value),
                "bench.op_p99_ms" => match percentile_over_rounds(&op_ms, 0.99) {
                    Some(p) => p.value,
                    // Only the smoke run times fewer than 1000 operations;
                    // it exists to check names and units, and reports the
                    // maximum.
                    None => {
                        assert_eq!(ctx.scale.min_samples, 0, "a full run has 1000 samples");
                        op_ms.concat().into_iter().fold(0.0, f64::max)
                    }
                },
                "bench.reopen_ms" => p50(&mut done
                    .iter()
                    .flat_map(|d| d.round.reopen_ms.clone())
                    .collect::<Vec<f64>>()),
                "bench.readback_rows_per_s" => median(
                    &done
                        .iter()
                        .map(|d| d.round.readback_rows as f64 / d.round.readback_s)
                        .collect::<Vec<f64>>(),
                ),
                "bench.trace_overhead_pct" => (wall(&traced) / wall(&untraced) - 1.0) * 100.0,
                "bench.span_coverage_pct" => {
                    over_rounds(&|d| d.root_ns as f64 / 1e9 / d.round.wall_s() * 100.0)
                }
                other => unreachable!("no derivation for {other}"),
            },
        };
        out.push((name.to_owned(), value, unit));
    }
    out.push(("bench.spans".to_owned(), ctx.tracer.len() as f64, "count"));
    out.push(("bench.rounds".to_owned(), done.len() as f64, "count"));
    for name in CRATES {
        out.push((
            format!("{name}.src_lines"),
            src_lines(&Path::new("crates").join(name).join("src")) as f64,
            "lines",
        ));
    }
    out
}

/// Lines of Rust under `dir`, counted at run time from the checkout the
/// benchmark runs in.
fn src_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| {
            let path = entry.path();
            if path.is_dir() {
                src_lines(&path)
            } else if path.extension().is_some_and(|e| e == "rs") {
                std::fs::read_to_string(&path).map_or(0, |text| text.lines().count() as u64)
            } else {
                0
            }
        })
        .sum()
}
