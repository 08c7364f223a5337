//! Aggregation pushdown: corpus-scale statistics computed *inside* the
//! store (DESIGN.md §6c).
//!
//! PR 8's segmented layout lets a 100k-run corpus open and point-query
//! at flat cost, but population-level questions — "what does the
//! bandwidth distribution look like per API?", "do metadata and
//! bandwidth scores move together?" — still required materializing
//! every [`RunSummary`] into the caller's memory and aggregating there.
//! This module pushes the aggregation down to the scan:
//!
//! * [`AggregateQuery`] — a filter ([`RunPredicate`]), a grouping key
//!   ([`GroupBy`]: kind, api, log2 tasks/transfer buckets), a metric
//!   ([`Factor`]) with percentile points, and an optional factor list
//!   for a pairwise correlation matrix;
//! * streaming accumulators — count/min/max via simple folds, mean and
//!   variance via Welford's one-pass recurrence, log2 histograms as
//!   fixed integer bins, correlations as co-moment sums — all O(1)
//!   per row and O(groups) in memory. Percentiles are the one
//!   exception: each group buffers its metric values and sorts once at
//!   finalize (the sorted-merge strategy), trading O(matched rows) of
//!   `f64`s for exact quantiles that are independent of scan order;
//! * one executor — the fold runs over the same `Snapshot::scan` the
//!   query engine uses, so sealed segments whose index block
//!   ([`crate::segment::may_match_segment`]) rules out the predicate
//!   are skipped without loading their bodies, counted in
//!   `store.aggregate.segments_pruned`;
//! * no `Knowledge` deserialization, ever — the scan reads only the
//!   `RunSummary` projections every block (active or sealed) holds. The
//!   `store.aggregate.knowledge_deserialized` counter exists precisely
//!   so tests can assert it stays zero.
//!
//! [`AggregateQuery::evaluate_rows`] is the reference implementation:
//! the same accumulators fed from a caller-supplied row slice. The
//! segmented executor is property-tested equal to it (including under
//! interleaved saves/deletes/seals/compactions against a pinned
//! snapshot), so pruning and pushdown are purely optimizations.

use crate::database::DbError;
use crate::knowledge_store::Snapshot;
use crate::query::{RunPredicate, RunSummary, ScanStats, UnknownName};
use iokc_obs::{Counter, DeadlineToken, MetricsRegistry};
use iokc_util::stats;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Grouping key for an [`AggregateQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// One group holding every matched run.
    All,
    /// Group by run kind (`benchmark` / `io500`).
    Kind,
    /// Group by API string (IO500 runs group under `io500`).
    Api,
    /// Group by `floor(log2(tasks))` buckets.
    TasksLog2,
    /// Group by `floor(log2(transfer_size))` buckets.
    TransferLog2,
}

impl GroupBy {
    /// Canonical name (accepted back by [`GroupBy::parse`]).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            GroupBy::All => "all",
            GroupBy::Kind => "kind",
            GroupBy::Api => "api",
            GroupBy::TasksLog2 => "tasks",
            GroupBy::TransferLog2 => "xfer",
        }
    }

    /// Parse a grouping name as used by the CLI and HTTP endpoints.
    pub fn parse(name: &str) -> Result<GroupBy, UnknownName> {
        match name {
            "all" => Ok(GroupBy::All),
            "kind" => Ok(GroupBy::Kind),
            "api" => Ok(GroupBy::Api),
            "tasks" => Ok(GroupBy::TasksLog2),
            "xfer" | "transfer" => Ok(GroupBy::TransferLog2),
            _ => Err(UnknownName::new("group", name, "all|kind|api|tasks|xfer")),
        }
    }

    /// The group key for one summary row — public so downstream
    /// detectors can map an individual run onto the group whose
    /// statistics it was aggregated into. Spelled by
    /// [`GroupBy::write_key`], as the aggregate engine spells it.
    #[must_use]
    pub fn key(self, s: &RunSummary) -> String {
        let mut key = String::new();
        self.write_key(s, &mut key);
        key
    }

    /// Replace `out` with the group key for one summary row: the one
    /// spelling of every label, written into a buffer the caller
    /// reuses, so a fold over many rows allocates nothing per row.
    /// `"name 2^k"` for a log2 bucket of `v > 0` (k = floor(log2 v)),
    /// `"name 0"` for zero — an exact integer computation, so bucketing
    /// never depends on float rounding.
    pub fn write_key(self, s: &RunSummary, out: &mut String) {
        out.clear();
        let (name, v) = match self {
            GroupBy::All => return out.push_str("all"),
            GroupBy::Kind => return out.push_str(s.kind.as_str()),
            GroupBy::Api if s.api.is_empty() => return out.push_str("io500"),
            GroupBy::Api => return out.push_str(&s.api),
            GroupBy::TasksLog2 => ("tasks", u64::from(s.tasks)),
            GroupBy::TransferLog2 => ("xfer", s.transfer_size),
        };
        out.push_str(name);
        if v == 0 {
            out.push_str(" 0");
        } else {
            let _ = write!(out, " 2^{}", 63 - v.leading_zeros());
        }
    }
}

/// A numeric factor extracted from a [`RunSummary`] — the value an
/// [`AggregateQuery`] aggregates or correlates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Factor {
    /// Write bandwidth (benchmarks) or `bw_score` (IO500).
    Bandwidth,
    /// IO500 bandwidth score.
    BwScore,
    /// IO500 metadata score.
    MdScore,
    /// IO500 total score.
    TotalScore,
    /// Task count.
    Tasks,
    /// Transfer size, bytes.
    TransferSize,
    /// Block size, bytes.
    BlockSize,
    /// Extraction warning count.
    Warnings,
}

impl Factor {
    /// Canonical name (accepted back by [`Factor::parse`]).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Factor::Bandwidth => "bw",
            Factor::BwScore => "bw_score",
            Factor::MdScore => "md_score",
            Factor::TotalScore => "total_score",
            Factor::Tasks => "tasks",
            Factor::TransferSize => "xfer",
            Factor::BlockSize => "block",
            Factor::Warnings => "warnings",
        }
    }

    /// Parse a factor name as used by the CLI and HTTP endpoints.
    pub fn parse(name: &str) -> Result<Factor, UnknownName> {
        match name {
            "bw" | "bandwidth" => Ok(Factor::Bandwidth),
            "bw_score" => Ok(Factor::BwScore),
            "md_score" => Ok(Factor::MdScore),
            "total_score" | "score" => Ok(Factor::TotalScore),
            "tasks" => Ok(Factor::Tasks),
            "xfer" | "transfer" => Ok(Factor::TransferSize),
            "block" => Ok(Factor::BlockSize),
            "warnings" => Ok(Factor::Warnings),
            _ => Err(UnknownName::new(
                "factor",
                name,
                "bw|bw_score|md_score|total_score|tasks|xfer|block|warnings",
            )),
        }
    }

    /// Extract this factor's value from a summary row.
    #[must_use]
    pub fn extract(self, s: &RunSummary) -> f64 {
        match self {
            Factor::Bandwidth => s.bandwidth(),
            Factor::BwScore => s.bw_score,
            Factor::MdScore => s.md_score,
            Factor::TotalScore => s.total_score,
            Factor::Tasks => f64::from(s.tasks),
            Factor::TransferSize => s.transfer_size as f64,
            Factor::BlockSize => s.block_size as f64,
            Factor::Warnings => s.warning_count as f64,
        }
    }
}

impl fmt::Display for Factor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A corpus aggregation: filter, grouping, metric with percentile
/// points, and optionally a pairwise correlation matrix over a factor
/// list. Evaluated inside the store ([`crate::Snapshot::aggregate`],
/// which [`crate::KnowledgeStore`] dereferences to) or over explicit rows
/// ([`AggregateQuery::evaluate_rows`], the property-test oracle).
#[derive(Debug, Clone)]
pub struct AggregateQuery {
    /// Row filter.
    pub predicate: RunPredicate,
    /// Grouping key.
    pub group_by: GroupBy,
    /// The aggregated metric.
    pub metric: Factor,
    /// Percentile points in `[0, 1]`, e.g. `0.5` for the median.
    pub percentiles: Vec<f64>,
    /// Factors to correlate pairwise (empty = no matrix).
    pub correlate: Vec<Factor>,
}

/// The default percentile points: p1, p25, p50, p75, p90, p99.
pub const DEFAULT_PERCENTILES: [f64; 6] = [0.01, 0.25, 0.5, 0.75, 0.9, 0.99];

impl AggregateQuery {
    /// A query with the default percentile set and no correlation.
    #[must_use]
    pub fn new(group_by: GroupBy, metric: Factor) -> AggregateQuery {
        AggregateQuery {
            predicate: RunPredicate::True,
            group_by,
            metric,
            percentiles: DEFAULT_PERCENTILES.to_vec(),
            correlate: Vec::new(),
        }
    }

    /// Builder-style filter.
    #[must_use]
    pub fn with_predicate(mut self, predicate: RunPredicate) -> AggregateQuery {
        self.predicate = predicate;
        self
    }

    /// Builder-style percentile points (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_percentiles(mut self, qs: &[f64]) -> AggregateQuery {
        self.percentiles = qs.iter().map(|q| q.clamp(0.0, 1.0)).collect();
        self
    }

    /// Builder-style correlation factor list.
    #[must_use]
    pub fn with_correlation(mut self, factors: &[Factor]) -> AggregateQuery {
        self.correlate = factors.to_vec();
        self
    }

    /// The reference implementation: feed explicit rows (the predicate
    /// is applied here too) through the same accumulators the pushdown
    /// executor uses. Property tests compare the segmented executor
    /// against this oracle; callers with rows already in hand (the
    /// corpus outlier detector) use it directly.
    #[must_use]
    pub fn evaluate_rows<'a, I>(&self, rows: I) -> AggregateResult
    where
        I: IntoIterator<Item = &'a RunSummary>,
    {
        let mut state = AggState::new(self);
        for s in rows {
            if self.predicate.matches_summary(s) {
                state.push(self, s);
            }
        }
        state.finish(self)
    }

    /// A canonical cache key: two queries with the same key return the
    /// same result against the same store generation.
    #[must_use]
    pub fn cache_key(&self) -> String {
        let mut key = format!(
            "agg:{}:{}:q={:?}:c=[",
            self.group_by.as_str(),
            self.metric.as_str(),
            self.percentiles
        );
        for f in &self.correlate {
            key.push_str(f.as_str());
            key.push(',');
        }
        key.push_str("]:");
        key.push_str(&crate::query::Query::new(self.predicate.clone()).cache_key());
        key
    }
}

/// One group's aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStats {
    /// Group key (e.g. `"POSIX"`, `"tasks 2^5"`).
    pub key: String,
    /// Rows in the group.
    pub count: u64,
    /// Minimum metric value.
    pub min: f64,
    /// Maximum metric value.
    pub max: f64,
    /// Mean metric value (Welford).
    pub mean: f64,
    /// Sample standard deviation (Welford, `n-1` denominator).
    pub stddev: f64,
    /// `(q, value)` per requested percentile point, in request order.
    pub percentiles: Vec<(f64, f64)>,
    /// Log2 histogram: `(bucket, count)` where bucket `k` holds values
    /// in `[2^k, 2^(k+1))`; `i32::MIN` holds values `<= 0`.
    pub histogram: Vec<(i32, u64)>,
}

impl GroupStats {
    /// The value recorded for percentile point `q`, if requested.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.percentiles
            .iter()
            .find(|(p, _)| (p - q).abs() < 1e-12)
            .map(|(_, v)| *v)
    }
}

/// A pairwise correlation matrix over the requested factors.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationMatrix {
    /// Factor names, in request order (row and column labels).
    pub factors: Vec<String>,
    /// `matrix[i][j]` = Pearson correlation of factor i and factor j
    /// over the matched rows; `0.0` where either factor is constant.
    pub matrix: Vec<Vec<f64>>,
}

/// The result of an [`AggregateQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateResult {
    /// Per-group aggregates, sorted by group key.
    pub groups: Vec<GroupStats>,
    /// The correlation matrix, when factors were requested and at least
    /// one row matched.
    pub correlation: Option<CorrelationMatrix>,
    /// Total rows folded into the aggregates.
    pub rows_aggregated: u64,
}

impl AggregateResult {
    /// Look up a group by key.
    #[must_use]
    pub fn group(&self, key: &str) -> Option<&GroupStats> {
        self.groups.iter().find(|g| g.key == key)
    }
}

/// Welford's one-pass mean/variance recurrence.
#[derive(Debug, Clone, Default)]
struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    fn stddev(&self) -> f64 {
        if self.n > 1 {
            (self.m2 / (self.n - 1) as f64).sqrt()
        } else {
            0.0
        }
    }
}

/// The log2 histogram bucket for one value (`i32::MIN` = `<= 0`).
fn log2_bin(x: f64) -> i32 {
    if x <= 0.0 {
        i32::MIN
    } else {
        // Bounded by f64's exponent range, so the cast never saturates
        // in a way that loses ordering.
        x.log2().floor() as i32
    }
}

/// One group's streaming state.
#[derive(Debug, Clone, Default)]
struct GroupAcc {
    welford: Welford,
    min: f64,
    max: f64,
    histogram: BTreeMap<i32, u64>,
    /// Buffered metric values for exact percentiles — sorted once at
    /// finalize (the sorted-merge strategy; see the module docs for the
    /// memory trade).
    values: Vec<f64>,
}

impl GroupAcc {
    fn push(&mut self, x: f64) {
        if self.welford.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.welford.push(x);
        *self.histogram.entry(log2_bin(x)).or_insert(0) += 1;
        self.values.push(x);
    }
}

/// Streaming co-moment sums for the correlation matrix: O(k²) state,
/// O(k²) work per row, no value buffering.
#[derive(Debug, Clone)]
struct CorrAcc {
    n: u64,
    sums: Vec<f64>,
    cross: Vec<Vec<f64>>,
}

impl CorrAcc {
    fn new(k: usize) -> CorrAcc {
        CorrAcc {
            n: 0,
            sums: vec![0.0; k],
            cross: vec![vec![0.0; k]; k],
        }
    }

    fn push(&mut self, xs: &[f64]) {
        self.n += 1;
        for (i, x) in xs.iter().enumerate() {
            self.sums[i] += x;
            for (j, y) in xs.iter().enumerate() {
                self.cross[i][j] += x * y;
            }
        }
    }

    fn finish(&self, factors: &[Factor]) -> Option<CorrelationMatrix> {
        if factors.is_empty() || self.n == 0 {
            return None;
        }
        let n = self.n as f64;
        let k = factors.len();
        let mut matrix = vec![vec![0.0; k]; k];
        for (i, row) in matrix.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let cov = n * self.cross[i][j] - self.sums[i] * self.sums[j];
                let var_i = n * self.cross[i][i] - self.sums[i] * self.sums[i];
                let var_j = n * self.cross[j][j] - self.sums[j] * self.sums[j];
                let denom = (var_i * var_j).sqrt();
                let r = if denom > 0.0 { cov / denom } else { 0.0 };
                *cell = if r.is_finite() {
                    r.clamp(-1.0, 1.0)
                } else {
                    0.0
                };
            }
        }
        Some(CorrelationMatrix {
            factors: factors.iter().map(|f| f.as_str().to_owned()).collect(),
            matrix,
        })
    }
}

/// The full accumulator state for one query: `BTreeMap` keyed groups
/// (deterministic output order) plus the correlation sums, and the two
/// buffers a row is staged in — its group label and its correlation
/// row — so a row allocates only when it opens a new group.
struct AggState {
    groups: BTreeMap<String, GroupAcc>,
    corr: CorrAcc,
    rows: u64,
    label: String,
    factors: Vec<f64>,
}

impl AggState {
    fn new(q: &AggregateQuery) -> AggState {
        AggState {
            groups: BTreeMap::new(),
            corr: CorrAcc::new(q.correlate.len()),
            rows: 0,
            label: String::new(),
            factors: Vec::with_capacity(q.correlate.len()),
        }
    }

    fn push(&mut self, q: &AggregateQuery, s: &RunSummary) {
        self.rows += 1;
        let x = q.metric.extract(s);
        q.group_by.write_key(s, &mut self.label);
        match self.groups.get_mut(self.label.as_str()) {
            Some(group) => group.push(x),
            None => {
                let mut group = GroupAcc::default();
                group.push(x);
                self.groups.insert(self.label.clone(), group);
            }
        }
        if !q.correlate.is_empty() {
            self.factors.clear();
            self.factors
                .extend(q.correlate.iter().map(|f| f.extract(s)));
            self.corr.push(&self.factors);
        }
    }

    fn finish(self, q: &AggregateQuery) -> AggregateResult {
        let groups = self
            .groups
            .into_iter()
            .map(|(key, mut acc)| {
                acc.values.sort_by(f64::total_cmp);
                let percentiles = q
                    .percentiles
                    .iter()
                    .map(|&p| (p, stats::percentile_sorted(&acc.values, p)))
                    .collect();
                GroupStats {
                    key,
                    count: acc.welford.n,
                    min: acc.min,
                    max: acc.max,
                    mean: acc.welford.mean,
                    stddev: acc.welford.stddev(),
                    percentiles,
                    histogram: acc.histogram.into_iter().collect(),
                }
            })
            .collect();
        AggregateResult {
            groups,
            correlation: self.corr.finish(&q.correlate),
            rows_aggregated: self.rows,
        }
    }
}

/// Cached counter handles for `store.aggregate.*` — registered next to
/// the query counters so one `/metrics` dump shows both engines.
#[derive(Clone)]
pub(crate) struct AggObs {
    pub(crate) queries: Counter,
    pub(crate) rows_aggregated: Counter,
    pub(crate) segments_scanned: Counter,
    pub(crate) segments_pruned: Counter,
    pub(crate) cancelled: Counter,
}

impl AggObs {
    pub(crate) fn new(metrics: &MetricsRegistry) -> AggObs {
        AggObs {
            queries: metrics.counter("store.aggregate.queries"),
            rows_aggregated: metrics.counter("store.aggregate.rows"),
            segments_scanned: metrics.counter("store.aggregate.segments_scanned"),
            segments_pruned: metrics.counter("store.aggregate.segments_pruned"),
            cancelled: metrics.counter("store.aggregate.cancelled"),
        }
    }
}

impl Snapshot {
    /// Evaluate an aggregation inside the store: group-by + streaming
    /// statistics folded over the rows the one executor
    /// (`Snapshot::scan`) matches, in its order — per kind, active ids
    /// ascending, then segments oldest first — so repeated evaluations
    /// are bit-identical. Segments are pruned by their index blocks, no
    /// `Knowledge` is deserialized, and `deadline` is polled before the
    /// first row and then every 64: a blown budget aborts at most 63
    /// rows past expiry with [`DbError::Cancelled`] carrying partial
    /// progress.
    pub fn aggregate(
        &self,
        q: &AggregateQuery,
        deadline: &DeadlineToken,
    ) -> Result<AggregateResult, DbError> {
        let obs = &self.obs.agg;
        obs.queries.inc();
        self.traced("store.aggregate", &obs.cancelled, || {
            let mut state = AggState::new(q);
            let mut stats = ScanStats::default();
            let scanned = self.scan(&q.predicate, deadline, &mut stats, |_, s| {
                state.push(q, s);
            });
            obs.segments_scanned.add(stats.segments_scanned);
            obs.segments_pruned.add(stats.segments_pruned);
            scanned?;
            obs.rows_aggregated.add(state.rows);
            Ok(state.finish(q))
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod tests {
    use super::*;
    use crate::query::RunKind;

    fn row(kind: RunKind, id: u64, api: &str, tasks: u32, bw: f64) -> RunSummary {
        RunSummary {
            kind,
            id,
            command: format!("cmd-{id}"),
            api: api.to_owned(),
            tasks,
            block_size: 1 << 20,
            transfer_size: 1 << 18,
            segments: 1,
            clients_per_node: 1,
            ops: vec![crate::query::OpStat {
                operation: "write".into(),
                max_mib: bw * 1.1,
                mean_mib: bw,
                mean_ops: bw / 2.0,
            }],
            bw_score: 0.0,
            md_score: 0.0,
            total_score: 0.0,
            warning_count: 0,
        }
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean - mean).abs() < 1e-12);
        assert!((w.stddev() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn groups_and_percentiles_over_rows() {
        let rows: Vec<RunSummary> = (0..10)
            .map(|i| {
                let api = if i % 2 == 0 { "POSIX" } else { "MPIIO" };
                row(RunKind::Benchmark, i, api, 8, (i as f64 + 1.0) * 10.0)
            })
            .collect();
        let q = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth).with_percentiles(&[0.5]);
        let result = q.evaluate_rows(&rows);
        assert_eq!(result.rows_aggregated, 10);
        let posix = result.group("POSIX").unwrap();
        // POSIX bandwidths: 10, 30, 50, 70, 90 → median 50.
        assert_eq!(posix.count, 5);
        assert!((posix.percentile(0.5).unwrap() - 50.0).abs() < 1e-12);
        assert!((posix.min - 10.0).abs() < 1e-12);
        assert!((posix.max - 90.0).abs() < 1e-12);
        assert!((posix.mean - 50.0).abs() < 1e-12);
    }

    #[test]
    fn log2_histogram_buckets() {
        let rows = vec![
            row(RunKind::Benchmark, 1, "POSIX", 8, 0.0),
            row(RunKind::Benchmark, 2, "POSIX", 8, 1.5),
            row(RunKind::Benchmark, 3, "POSIX", 8, 3.0),
            row(RunKind::Benchmark, 4, "POSIX", 8, 1000.0),
        ];
        let q = AggregateQuery::new(GroupBy::All, Factor::Bandwidth);
        let result = q.evaluate_rows(&rows);
        let hist = &result.group("all").unwrap().histogram;
        assert_eq!(
            hist,
            &vec![(i32::MIN, 1), (0, 1), (1, 1), (9, 1)],
            "0 → sentinel, 1.5 → [1,2), 3 → [2,4), 1000 → [512,1024)"
        );
    }

    #[test]
    fn correlation_of_linear_factors_is_one() {
        let rows: Vec<RunSummary> = (0..16)
            .map(|i| {
                row(
                    RunKind::Benchmark,
                    i,
                    "POSIX",
                    i as u32 + 1,
                    (i as f64 + 1.0) * 2.0,
                )
            })
            .collect();
        let q = AggregateQuery::new(GroupBy::All, Factor::Bandwidth).with_correlation(&[
            Factor::Tasks,
            Factor::Bandwidth,
            Factor::Warnings,
        ]);
        let result = q.evaluate_rows(&rows);
        let corr = result.correlation.unwrap();
        assert_eq!(corr.factors, vec!["tasks", "bw", "warnings"]);
        // bw = 2 * tasks exactly → r = 1.
        assert!((corr.matrix[0][1] - 1.0).abs() < 1e-9);
        assert!((corr.matrix[1][0] - 1.0).abs() < 1e-9);
        assert!((corr.matrix[0][0] - 1.0).abs() < 1e-9);
        // warnings is constant 0 → correlation defined as 0.
        assert_eq!(corr.matrix[0][2], 0.0);
        assert_eq!(corr.matrix[2][2], 0.0);
    }

    #[test]
    fn predicate_filters_before_aggregation() {
        let rows: Vec<RunSummary> = (0..8)
            .map(|i| {
                row(
                    RunKind::Benchmark,
                    i,
                    "POSIX",
                    2u32.pow(i as u32 % 4),
                    100.0,
                )
            })
            .collect();
        let q = AggregateQuery::new(GroupBy::TasksLog2, Factor::Bandwidth)
            .with_predicate(RunPredicate::TasksBetween(2, 8));
        let result = q.evaluate_rows(&rows);
        assert_eq!(result.rows_aggregated, 6);
        assert!(result.group("tasks 2^0").is_none());
        assert_eq!(result.group("tasks 2^1").unwrap().count, 2);
        assert_eq!(result.group("tasks 2^3").unwrap().count, 2);
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let q =
            AggregateQuery::new(GroupBy::Api, Factor::Bandwidth).with_correlation(&[Factor::Tasks]);
        let result = q.evaluate_rows(std::iter::empty());
        assert!(result.groups.is_empty());
        assert!(result.correlation.is_none());
        assert_eq!(result.rows_aggregated, 0);
    }

    #[test]
    fn cache_keys_distinguish_queries() {
        let a = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth);
        let b = AggregateQuery::new(GroupBy::Kind, Factor::Bandwidth);
        let c = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth)
            .with_predicate(RunPredicate::ApiEq("POSIX".into()));
        assert_ne!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
        assert_eq!(a.cache_key(), a.clone().cache_key());
    }

    pub(crate) mod engine {
        use super::*;
        use crate::knowledge_store::KnowledgeStore;
        use iokc_core::model::{
            Io500Knowledge, IterationResult, Knowledge, KnowledgeSource, OperationSummary,
        };
        use iokc_obs::CancelToken;
        use std::time::Duration;

        pub(super) fn bench(api: &str, tasks: u32, write_bw: f64) -> Knowledge {
            let mut k = Knowledge::new(KnowledgeSource::Ior, &format!("ior -a {api}"));
            k.pattern.api = api.to_owned();
            k.pattern.tasks = tasks;
            k.pattern.transfer_size = 1 << 20;
            k.summaries.push(OperationSummary {
                operation: "write".into(),
                api: api.to_owned(),
                max_mib: write_bw * 1.2,
                min_mib: write_bw * 0.8,
                mean_mib: write_bw,
                stddev_mib: 0.0,
                mean_ops: write_bw / 2.0,
                iterations: 1,
            });
            k.results.push(IterationResult {
                operation: "write".into(),
                iteration: 0,
                bw_mib: write_bw,
                ops: 10,
                ops_per_sec: 5.0,
                latency_s: 0.001,
                open_s: 0.002,
                wrrd_s: 1.0,
                close_s: 0.003,
                total_s: 1.1,
            });
            k
        }

        pub(super) fn io500(tasks: u32, bw_score: f64) -> Io500Knowledge {
            Io500Knowledge {
                id: None,
                tasks,
                bw_score,
                md_score: bw_score * 2.0,
                total_score: bw_score * 1.5,
                testcases: Vec::new(),
                options: std::collections::BTreeMap::new(),
                system: None,
                start_time: 1,
                warnings: Vec::new(),
            }
        }

        /// Approximate equality for two aggregate results: structure and
        /// counts exact, floats to relative 1e-9 (scan order may differ
        /// between the segmented executor and the oracle, which perturbs
        /// the last bits of streaming sums).
        pub(crate) fn assert_results_close(a: &AggregateResult, b: &AggregateResult) {
            fn close(x: f64, y: f64) -> bool {
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
            }
            assert_eq!(a.rows_aggregated, b.rows_aggregated);
            assert_eq!(a.groups.len(), b.groups.len());
            for (ga, gb) in a.groups.iter().zip(&b.groups) {
                assert_eq!(ga.key, gb.key);
                assert_eq!(ga.count, gb.count);
                assert_eq!(ga.histogram, gb.histogram);
                assert!(
                    close(ga.min, gb.min),
                    "{}: min {} vs {}",
                    ga.key,
                    ga.min,
                    gb.min
                );
                assert!(
                    close(ga.max, gb.max),
                    "{}: max {} vs {}",
                    ga.key,
                    ga.max,
                    gb.max
                );
                assert!(
                    close(ga.mean, gb.mean),
                    "{}: mean {} vs {}",
                    ga.key,
                    ga.mean,
                    gb.mean
                );
                assert!(
                    close(ga.stddev, gb.stddev),
                    "{}: stddev {} vs {}",
                    ga.key,
                    ga.stddev,
                    gb.stddev
                );
                for ((qa, va), (qb, vb)) in ga.percentiles.iter().zip(&gb.percentiles) {
                    assert_eq!(qa, qb);
                    assert!(close(*va, *vb), "{}: p{} {} vs {}", ga.key, qa, va, vb);
                }
            }
            assert_eq!(a.correlation.is_some(), b.correlation.is_some());
            if let (Some(ca), Some(cb)) = (&a.correlation, &b.correlation) {
                assert_eq!(ca.factors, cb.factors);
                for (ra, rb) in ca.matrix.iter().zip(&cb.matrix) {
                    for (x, y) in ra.iter().zip(rb) {
                        assert!(close(*x, *y), "corr {x} vs {y}");
                    }
                }
            }
        }

        /// The oracle: every live summary of every block, unpruned, fed
        /// through the reference accumulators (the predicate is applied
        /// there).
        pub(super) fn oracle(store: &KnowledgeStore, q: &AggregateQuery) -> AggregateResult {
            q.evaluate_rows(store.live_summaries().iter())
        }

        fn segmented_store() -> KnowledgeStore {
            let mut store = KnowledgeStore::in_memory();
            store.set_seal_threshold(4);
            for i in 0..10u32 {
                let api = if i % 2 == 0 { "POSIX" } else { "MPIIO" };
                store
                    .save_knowledge(&bench(api, 1 << (i % 5), f64::from(i + 1) * 25.0))
                    .unwrap();
            }
            for i in 0..4u32 {
                store
                    .save_io500(&io500(16 << i, f64::from(i + 1) * 0.5))
                    .unwrap();
            }
            store
        }

        #[test]
        fn pushdown_equals_oracle() {
            let store = segmented_store();
            assert!(
                store.segment_metas().len() >= 2,
                "test premise: the corpus spans multiple sealed segments"
            );
            let queries = [
                AggregateQuery::new(GroupBy::Api, Factor::Bandwidth)
                    .with_correlation(&[Factor::Tasks, Factor::Bandwidth]),
                AggregateQuery::new(GroupBy::Kind, Factor::TotalScore),
                AggregateQuery::new(GroupBy::TasksLog2, Factor::Bandwidth)
                    .with_predicate(RunPredicate::TasksBetween(2, 64)),
                AggregateQuery::new(GroupBy::All, Factor::Warnings)
                    .with_predicate(RunPredicate::Kind(RunKind::Io500)),
            ];
            for q in &queries {
                let pushed = store.aggregate(q, &DeadlineToken::unbounded()).unwrap();
                assert_results_close(&pushed, &oracle(&store, q));
            }
        }

        /// The engine's reused label buffer spells every group as
        /// `GroupBy::key` and the oracle do — the zero buckets and an
        /// empty API (grouped as `io500`) included — over sealed and
        /// active blocks, with correlations folded from the reused row.
        #[test]
        fn zero_buckets_and_empty_api_spell_alike() {
            let mut store = KnowledgeStore::in_memory();
            store.set_seal_threshold(3);
            let mut zeros = bench("", 0, 10.0);
            zeros.pattern.transfer_size = 0;
            store.save_knowledge(&zeros).unwrap();
            store.save_knowledge(&bench("POSIX", 1, 20.0)).unwrap();
            store.save_io500(&io500(0, 1.0)).unwrap();
            store.save_knowledge(&bench("MPIIO", 3, 30.0)).unwrap();
            let mut tiny = bench("POSIX", 64, 40.0);
            tiny.pattern.transfer_size = 1;
            store.save_knowledge(&tiny).unwrap();
            store.save_io500(&io500(16, 2.0)).unwrap();
            assert!(
                !store.segment_metas().is_empty(),
                "test premise: some rows are sealed"
            );
            let expected: [(GroupBy, &[(&str, u64)]); 5] = [
                (GroupBy::All, &[("all", 6)]),
                (GroupBy::Kind, &[("benchmark", 4), ("io500", 2)]),
                (GroupBy::Api, &[("MPIIO", 1), ("POSIX", 2), ("io500", 3)]),
                (
                    GroupBy::TasksLog2,
                    &[
                        ("tasks 0", 2),
                        ("tasks 2^0", 1),
                        ("tasks 2^1", 1),
                        ("tasks 2^4", 1),
                        ("tasks 2^6", 1),
                    ],
                ),
                (
                    GroupBy::TransferLog2,
                    &[("xfer 0", 3), ("xfer 2^0", 1), ("xfer 2^20", 2)],
                ),
            ];
            let rows = store.live_summaries();
            for (group_by, groups) in expected {
                let q = AggregateQuery::new(group_by, Factor::Bandwidth).with_correlation(&[
                    Factor::Tasks,
                    Factor::TransferSize,
                    Factor::Bandwidth,
                    Factor::TotalScore,
                ]);
                let pushed = store.aggregate(&q, &DeadlineToken::unbounded()).unwrap();
                assert_results_close(&pushed, &oracle(&store, &q));
                let found: Vec<(&str, u64)> = pushed
                    .groups
                    .iter()
                    .map(|g| (g.key.as_str(), g.count))
                    .collect();
                assert_eq!(found, groups, "{group_by:?}");
                for s in &rows {
                    assert!(pushed.group(&group_by.key(s)).is_some(), "{group_by:?}");
                }
                let corr = pushed.correlation.unwrap();
                assert!((corr.matrix[0][0] - 1.0).abs() < 1e-9);
            }
        }

        #[test]
        fn aggregate_never_deserializes_knowledge_and_prunes_segments() {
            let mut store = segmented_store();
            let recorder = std::sync::Arc::new(iokc_obs::Recorder::disabled());
            store.attach_recorder(std::sync::Arc::clone(&recorder));
            let q = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth)
                .with_predicate(RunPredicate::ApiEq("nonexistent-api".into()));
            let result = store.aggregate(&q, &DeadlineToken::unbounded()).unwrap();
            assert_eq!(result.rows_aggregated, 0);
            // The api filter rules out every sealed segment via the
            // index block's api set.
            let deserialized = recorder
                .metrics()
                .counter("store.aggregate.knowledge_deserialized");
            assert!(store.obs.agg.segments_pruned.get() >= 1);
            assert_eq!(deserialized.get(), 0);
            assert_eq!(store.obs.knowledge_deserialized.get(), 0);

            let broad = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth);
            store
                .aggregate(&broad, &DeadlineToken::unbounded())
                .unwrap();
            assert!(store.obs.agg.segments_scanned.get() >= 2);
            assert_eq!(deserialized.get(), 0);
            assert_eq!(store.obs.knowledge_deserialized.get(), 0);
        }

        #[test]
        fn blown_deadline_cancels_with_progress() {
            let store = segmented_store();
            let expired = DeadlineToken::with_budget(CancelToken::new(), Duration::ZERO);
            let q = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth);
            match store.aggregate(&q, &expired) {
                Err(DbError::Cancelled { examined, matched }) => {
                    assert_eq!(examined, 0);
                    assert_eq!(matched, 0);
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
            assert!(store.obs.agg.cancelled.get() >= 1);
        }

        #[test]
        fn snapshot_aggregates_are_immune_to_later_writes() {
            let mut store = segmented_store();
            let q = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth)
                .with_correlation(&[Factor::Tasks, Factor::Bandwidth]);
            let snapshot = store.snapshot();
            let pinned = snapshot.aggregate(&q, &DeadlineToken::unbounded()).unwrap();
            // Mutate heavily: new runs, deletes, a seal, a compaction.
            for i in 0..6u32 {
                store
                    .save_knowledge(&bench("HDF5", 128, f64::from(i) * 7.0))
                    .unwrap();
            }
            store.delete_knowledge(1).unwrap();
            store.delete_io500(1).unwrap();
            store.seal_active().unwrap();
            store.compact().unwrap();
            let replayed = snapshot.aggregate(&q, &DeadlineToken::unbounded()).unwrap();
            assert_eq!(
                pinned, replayed,
                "pinned snapshot must not see later mutations"
            );
            // And the live store sees the new state.
            let live = store.aggregate(&q, &DeadlineToken::unbounded()).unwrap();
            assert_results_close(&live, &oracle(&store, &q));
            assert!(live.group("HDF5").is_some());
        }
    }

    mod prop {
        use super::engine::{assert_results_close, bench, io500, oracle};
        use super::*;
        use crate::knowledge_store::KnowledgeStore;
        use iokc_obs::DeadlineToken;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            SaveBench { api: u8, tasks: u32, bw: f64 },
            SaveIo500 { tasks: u32, bw: f64 },
            DeleteBench(u64),
            DeleteIo500(u64),
            Seal,
            Compact,
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u8..3, 1u32..256, 1.0f64..1e4).prop_map(|(api, tasks, bw)| Op::SaveBench {
                    api,
                    tasks,
                    bw
                }),
                (0u8..3, 1u32..256, 1.0f64..1e4).prop_map(|(api, tasks, bw)| Op::SaveBench {
                    api,
                    tasks,
                    bw
                }),
                (1u32..256, 0.1f64..100.0).prop_map(|(tasks, bw)| Op::SaveIo500 { tasks, bw }),
                (1u64..20).prop_map(Op::DeleteBench),
                (1u64..8).prop_map(Op::DeleteIo500),
                Just(Op::Seal),
                Just(Op::Compact),
            ]
        }

        fn apply(store: &mut KnowledgeStore, op: &Op) {
            match op {
                Op::SaveBench { api, tasks, bw } => {
                    let api = ["POSIX", "MPIIO", "HDF5"][usize::from(*api)];
                    store.save_knowledge(&bench(api, *tasks, *bw)).unwrap();
                }
                Op::SaveIo500 { tasks, bw } => {
                    store.save_io500(&io500(*tasks, *bw)).unwrap();
                }
                Op::DeleteBench(id) => {
                    store.delete_knowledge(*id).unwrap();
                }
                Op::DeleteIo500(id) => {
                    store.delete_io500(*id).unwrap();
                }
                Op::Seal => store.seal_active().unwrap(),
                Op::Compact => {
                    store.compact().unwrap();
                }
            }
        }

        fn queries() -> Vec<AggregateQuery> {
            vec![
                AggregateQuery::new(GroupBy::Api, Factor::Bandwidth).with_correlation(&[
                    Factor::Tasks,
                    Factor::Bandwidth,
                    Factor::TotalScore,
                ]),
                AggregateQuery::new(GroupBy::Kind, Factor::Tasks),
                AggregateQuery::new(GroupBy::TasksLog2, Factor::Bandwidth)
                    .with_predicate(RunPredicate::TasksBetween(4, 128)),
                AggregateQuery::new(GroupBy::All, Factor::TotalScore).with_predicate(
                    RunPredicate::ApiEq("POSIX".into()).or(RunPredicate::Kind(RunKind::Io500)),
                ),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Satellite 2: the segmented, pruned executor equals the
            /// row-fed oracle for every query, under arbitrary
            /// interleavings of saves, deletes, seals and compactions —
            /// and a snapshot pinned mid-sequence keeps answering from
            /// its own generation.
            #[test]
            fn pushdown_equals_oracle_under_mutations(
                ops in proptest::collection::vec(arb_op(), 1..28),
                pin_at in 0usize..28,
                seal_threshold in 2usize..6,
            ) {
                let mut store = KnowledgeStore::in_memory();
                store.set_seal_threshold(seal_threshold);
                let mut pinned = None;
                for (i, op) in ops.iter().enumerate() {
                    if i == pin_at.min(ops.len() - 1) {
                        let snap = store.snapshot();
                        let at_pin: Vec<AggregateResult> = queries()
                            .iter()
                            .map(|q| snap.aggregate(q, &DeadlineToken::unbounded()).unwrap())
                            .collect();
                        pinned = Some((snap, at_pin));
                    }
                    apply(&mut store, op);
                }
                for q in &queries() {
                    let pushed = store.aggregate(q, &DeadlineToken::unbounded()).unwrap();
                    assert_results_close(&pushed, &oracle(&store, q));
                }
                if let Some((snap, at_pin)) = pinned {
                    for (q, before) in queries().iter().zip(&at_pin) {
                        let after = snap.aggregate(q, &DeadlineToken::unbounded()).unwrap();
                        prop_assert_eq!(before, &after);
                    }
                }
            }
        }
    }
}
