//! The benchmark's own schema and determinism checks, at smoke scale.

use iokc_perfbench::run::{per_layer_names, END_TO_END};
use iokc_perfbench::spec::{MetricSpec, Spec};
use iokc_perfbench::trace::Tracer;
use iokc_perfbench::workloads::cycle_iterate::CycleIterate;
use iokc_perfbench::workloads::ingest_churn::IngestChurn;
use iokc_perfbench::workloads::{Ctx, Round, Scale, Workload, NAMES};
use iokc_util::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::rc::Rc;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repo root")
}

fn spec() -> Spec {
    Spec::load(&repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn smoke_ctx(seed: u64, traced: bool) -> Ctx {
    let tracer = Rc::new(Tracer::new());
    tracer.set_enabled(traced);
    Ctx {
        seed,
        scale: Scale::smoke(),
        tracer,
        trace_run: traced,
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_what_the_code_measures() {
    let spec = spec();
    assert_eq!(spec.workloads, NAMES);
    let pairs = |metrics: &[MetricSpec]| -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    };
    let code_e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(pairs(&spec.end_to_end), code_e2e);
    let code_layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(pairs(&spec.per_layer), code_layers);
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(valid_name(&m.name), "bad metric name {}", m.name);
    }
    for m in &spec.end_to_end {
        let bound = m.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
}

/// `perf --smoke` for one workload: the table lines and the result.
fn smoke_run(workload: &str, trace: &str) -> (Vec<String>, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .current_dir(repo_root())
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
        ])
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut lines: Vec<String> = stdout.lines().map(str::to_owned).collect();
    let last = lines.pop().expect("a result line");
    (lines, json::parse(&last).expect("the last line is JSON"))
}

#[test]
fn smoke_prints_every_metric_once_with_its_unit() {
    let spec = spec();
    for workload in &spec.workloads {
        for (trace, expected) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
            let (table, result) = smoke_run(workload, trace);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let Some(Json::Obj(all)) = Some(&result) else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = all.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object")
            };
            let want: BTreeMap<&str, &str> = expected
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            let got: BTreeMap<&str, &str> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload}: {name} is not a finite number"
                    );
                    (
                        name.as_str(),
                        m.get("unit").and_then(Json::as_str).expect("a unit"),
                    )
                })
                .collect();
            assert_eq!(got, want, "{workload} --trace {trace}");
            for name in want.keys() {
                let rows = table
                    .iter()
                    .filter(|line| line.split_whitespace().next() == Some(*name))
                    .count();
                assert_eq!(rows, 1, "{workload}: {name} printed {rows} times");
            }
            if trace == "0" {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    assert!(value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
            }
        }
    }
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .current_dir(repo_root())
        .args(["--smoke", "--workload", "nope", "--seed", "1"])
        .output()
        .expect("perf runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

#[test]
fn phase_spans_of_a_cycle_iteration_sum_to_its_total() {
    let mut ctx = smoke_ctx(3, false);
    // The orchestrator's own time is a fixed ~10 µs per iteration; over a
    // dozen iterations on an empty store that alone is 2 %. Give the
    // phases a store worth persisting.
    ctx.scale.cycle_iterations = 64;
    let mut workload = CycleIterate::setup(&ctx);
    ctx.tracer.set_enabled(true);
    let round = workload.round(&ctx);
    ctx.tracer.set_enabled(false);
    assert_eq!(round.failed, 0);
    let spans = ctx.tracer.spans();
    let mut cycles = 0;
    let (mut total_ns, mut phases_ns) = (0u64, 0u64);
    for (index, cycle) in spans.iter().enumerate() {
        if cycle.name != "core.cycle" {
            continue;
        }
        cycles += 1;
        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == Some(index as u32))
            .collect();
        let names: Vec<&str> = children.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "benchmarks.generate",
                "extract.ior",
                "store.persist",
                "store.load_all",
                "analysis",
                "analysis",
                "usage"
            ]
        );
        assert!(children.iter().all(|s| s.op == cycle.op));
        assert!(children
            .iter()
            .all(|s| s.start_ns >= cycle.start_ns && s.end_ns <= cycle.end_ns));
        total_ns += cycle.dur_ns();
        phases_ns += children.iter().map(|s| s.dur_ns()).sum::<u64>();
    }
    assert_eq!(cycles, ctx.scale.cycle_iterations);
    // What the phases leave over is the orchestrator's own time
    // (`core.cycle.self_s`); the rest must be inside the phase spans.
    let outside = 1.0 - phases_ns as f64 / total_ns as f64;
    assert!(
        (0.0..=0.02).contains(&outside),
        "phase spans cover {:.2} % of the cycle spans",
        (1.0 - outside) * 100.0
    );
}

fn ingest_round(seed: u64) -> Round {
    let ctx = smoke_ctx(seed, false);
    let mut workload = IngestChurn::setup(&ctx);
    let round = workload.round(&ctx);
    assert_eq!(round.failed, 0);
    round
}

#[test]
fn same_seed_same_device_counts_other_seed_other_inputs() {
    let (a, b, c) = (ingest_round(11), ingest_round(11), ingest_round(12));
    assert_eq!(a.vfs, b.vfs);
    assert_eq!(a.user_bytes, b.user_bytes);
    assert_eq!(a.space_bytes, b.space_bytes);
    let write_amp = |r: &Round| r.vfs.bytes_written as f64 / r.user_bytes as f64;
    assert_eq!(write_amp(&a), write_amp(&b));
    assert!(a.vfs.bytes_written > 0 && a.vfs.fsyncs > 0 && a.vfs.segments_written > 0);
    // Another seed generates other runs: other bytes in, other bytes out.
    assert_ne!(a.user_bytes, c.user_bytes);
    assert_ne!(a.vfs.bytes_written, c.vfs.bytes_written);
    // The work is the same shape, so the operation counts agree.
    assert_eq!(a.vfs.fsyncs, c.vfs.fsyncs);
    assert_eq!(a.ops, c.ops);
}
