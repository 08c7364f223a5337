//! `perf compare <a.jsonl> <b.jsonl>`: is `b` worse than `a` by more
//! than the benchmark's own bounds?
//!
//! Each file holds one JSON record per run, as `perf --out` appends
//! them. For every (workload, end-to-end metric) the medians of the two
//! sets are compared against the metric's `bound` from
//! `BENCHMARK.json`; a pair whose run-to-run spread is wider than the
//! bound cannot be resolved either way, unless every run of `b` reads
//! better than every run of `a`.

use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, spread};
use iokc_util::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The verdict for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// The spread of either set is wider than the bound.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of set `a`.
    pub a: f64,
    /// Median of set `b`.
    pub b: f64,
    /// By how much of `a`'s median `b` is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' interquartile ranges over its median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Values per (workload, metric) from the records of one file; traced
/// runs are skipped.
pub fn parse_runs(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no `workload`", n + 1))?;
        if doc.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("line {}: no `metrics`", n + 1));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: `{name}` has no value", n + 1))?;
            out.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let bound = metric.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let worse_by = if metric.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let spread = spread(a).max(spread(b));
    let all_better = a.iter().all(|x| {
        b.iter().all(|y| {
            if metric.higher_is_better {
                y > x
            } else {
                y < x
            }
        })
    });
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// Compare two sets of runs under `spec`. Pairs present in only one
/// set are left out.
pub fn compare(
    spec: &Spec,
    a: &BTreeMap<(String, String), Vec<f64>>,
    b: &BTreeMap<(String, String), Vec<f64>>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (worse_by, spread, verdict) = judge(metric, va, vb);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                a: median(va),
                b: median(vb),
                worse_by,
                spread,
                bound: metric.bound.unwrap_or(0.0),
                verdict,
            });
        }
    }
    rows
}

/// The rows as a table, one per (workload, metric).
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:<22} {:>14.6} {:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [
                  {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
                  {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap()
    }

    fn runs(lat: &[f64], rate: &[f64]) -> BTreeMap<(String, String), Vec<f64>> {
        let text: String = lat
            .iter()
            .zip(rate)
            .map(|(l, r)| {
                format!(
                    "{{\"workload\":\"w\",\"trace\":false,\"metrics\":{{\"lat\":{{\"value\":{l},\"unit\":\"ms\"}},\"rate\":{{\"value\":{r},\"unit\":\"1/s\"}}}}}}\n"
                )
            })
            .collect();
        parse_runs(&text).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let spec = spec();
        let a = runs(&[10.0, 10.1, 9.9, 10.0], &[100.0, 101.0, 99.0, 100.0]);
        // Same again: ok both ways.
        let rows = compare(&spec, &a, &a);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        // Latency up 20 %, rate down 20 %: both regress.
        let b = runs(&[12.0, 12.1, 11.9, 12.0], &[80.0, 81.0, 79.0, 80.0]);
        let rows = compare(&spec, &a, &b);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Regressed));
        assert!((rows[0].worse_by - 0.2).abs() < 1e-9);
        // The reverse direction is an improvement, not a regression.
        let rows = compare(&spec, &b, &a);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        // A noisy set cannot be resolved…
        let noisy = runs(&[8.0, 12.0, 9.0, 11.0], &[100.0, 100.0, 100.0, 100.0]);
        let rows = compare(&spec, &a, &noisy);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        // …unless every run of b beats every run of a.
        let fast_noisy = runs(&[4.0, 6.0, 4.5, 5.5], &[100.0, 100.0, 100.0, 100.0]);
        let rows = compare(&spec, &a, &fast_noisy);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert!(render(&rows).contains("lat"));
    }
}
