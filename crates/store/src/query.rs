//! The typed query engine: predicates, ordering and projection
//! executed *inside* the store.
//!
//! Every interactive reader of the knowledge base — the explorer
//! service, the comparison and box-plot views, the CLI listings — used
//! to load every item and filter in its own code, fully deserializing
//! every `Knowledge` object (a multi-table join) per request. This
//! module moves that work into the storage layer:
//!
//! * [`RunPredicate`] — the filter algebra (kind, api/op equality,
//!   tasks/transfer-size/bandwidth ranges, command substring, id sets,
//!   `And`/`Or`/`Not`);
//! * [`RunFilter`] — the filters a user states (CLI flags, HTTP
//!   parameters) and the one rule that lowers them to a predicate;
//! * [`Query`] — predicate + order + offset/limit, with a canonical
//!   [`Query::cache_key`] read-through caches can key on;
//! * [`RunSummary`] — the projection row answering list/compare/boxplot
//!   queries without touching `results`/`filesystems`/`systeminfos`;
//! * per-query obs: a `store.query` span plus counters for segments
//!   scanned and pruned, rows pruned by pushdown, and full `Knowledge`
//!   deserializations.
//!
//! There is one executor (`Snapshot::scan`) and one way to read a
//! block: every run, unsealed or sealed, is a row of a segment-shaped
//! block's summary columns ([`crate::columns`]), walked front to back
//! (the active one is bounded by the seal threshold) with the predicate
//! bound to those columns. A [`RunSummary`] is built only for a row a
//! caller keeps. The only pruning is of whole sealed segments by their
//! index block; the complete predicate is evaluated on every row of
//! every admitted block, so results equal a brute-force filter over
//! every live summary (property-tested in this module).

use crate::columns::{RunRow, SummaryColumns};
use crate::database::DbError;
use crate::knowledge_store::{BlockReader, KnowledgeStore, Snapshot};
use crate::segment::{may_match_segment, Segment, SegmentData};
use iokc_core::model::KnowledgeItem;
use iokc_obs::{Counter, DeadlineToken, Recorder, SpanStatus};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A name outside one of the query vocabularies (a kind, a sort key, a
/// grouping, a factor, an axis): what it named, the name, and every
/// accepted value, so the CLI and the HTTP API reject it alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownName {
    /// What the name was for (`kind`, `sort`, `group`, …).
    pub what: &'static str,
    /// The rejected name.
    pub name: String,
    /// The accepted names, `|`-separated.
    pub expected: &'static str,
}

impl UnknownName {
    /// Reject `name` as a `what` that must be one of `expected`.
    #[must_use]
    pub fn new(what: &'static str, name: &str, expected: &'static str) -> UnknownName {
        UnknownName {
            what,
            name: name.to_owned(),
            expected,
        }
    }
}

impl fmt::Display for UnknownName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} `{}` (expected {})",
            self.what, self.name, self.expected
        )
    }
}

impl std::error::Error for UnknownName {}

/// Which id space a run lives in. The discriminant (`kind as usize`)
/// indexes per-kind arrays such as a block's summary columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RunKind {
    /// Benchmark knowledge (`performances` tables).
    Benchmark,
    /// IO500 knowledge (`IOFHs*` tables).
    Io500,
}

impl RunKind {
    /// Both kinds, in order.
    pub const ALL: [RunKind; 2] = [RunKind::Benchmark, RunKind::Io500];

    /// Stable lowercase name (JSON/cache-key form).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RunKind::Benchmark => "benchmark",
            RunKind::Io500 => "io500",
        }
    }

    /// The table holding one row per run of this kind.
    pub(crate) fn table(self) -> &'static str {
        match self {
            RunKind::Benchmark => "performances",
            RunKind::Io500 => "IOFHsRuns",
        }
    }
}

impl FromStr for RunKind {
    type Err = UnknownName;

    fn from_str(name: &str) -> Result<RunKind, UnknownName> {
        match name {
            "benchmark" => Ok(RunKind::Benchmark),
            "io500" => Ok(RunKind::Io500),
            _ => Err(UnknownName::new("kind", name, "benchmark|io500")),
        }
    }
}

/// A reference to one stored run: kind plus id (the two kinds have
/// separate id spaces, as in the paper's schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RunRef {
    /// Which id space.
    pub kind: RunKind,
    /// The id within that space.
    pub id: u64,
}

/// The filter algebra over stored runs.
///
/// Field semantics across the two kinds: an IO500 run has command
/// `"io500"`, api `""`, no operations and transfer size `0`; its
/// *bandwidth* is the `bw_score`, a benchmark's bandwidth is the mean
/// write throughput (`0` when the run has no write summary).
#[derive(Debug, Clone, PartialEq)]
pub enum RunPredicate {
    /// Matches everything.
    True,
    /// Runs of one kind.
    Kind(RunKind),
    /// Exact API match (`""` matches IO500 runs).
    ApiEq(String),
    /// Has a summary for this operation (never true for IO500).
    HasOp(String),
    /// Task count in an inclusive range.
    TasksBetween(u32, u32),
    /// Transfer size in an inclusive range (IO500 runs have size 0).
    TransferBetween(u64, u64),
    /// Bandwidth in an inclusive range (write mean MiB/s, or IO500
    /// `bw_score`).
    BandwidthBetween(f64, f64),
    /// Command contains a substring.
    CommandContains(String),
    /// Id is in the set (applies within each kind's id space; combine
    /// with [`RunPredicate::Kind`] to pin the space).
    IdIn(Vec<u64>),
    /// Conjunction.
    And(Box<RunPredicate>, Box<RunPredicate>),
    /// Disjunction.
    Or(Box<RunPredicate>, Box<RunPredicate>),
    /// Negation.
    Not(Box<RunPredicate>),
}

impl RunPredicate {
    /// Conjunction helper.
    #[must_use]
    pub fn and(self, other: RunPredicate) -> RunPredicate {
        RunPredicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    #[must_use]
    pub fn or(self, other: RunPredicate) -> RunPredicate {
        RunPredicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation helper.
    #[must_use]
    pub fn negate(self) -> RunPredicate {
        RunPredicate::Not(Box::new(self))
    }

    /// Could a run of `kind` possibly match? Conservative: `false` only
    /// when the predicate *provably* excludes the kind, so planning can
    /// skip a whole table.
    pub(crate) fn may_match_kind(&self, kind: RunKind) -> bool {
        match self {
            RunPredicate::Kind(k) => *k == kind,
            RunPredicate::HasOp(_) => kind == RunKind::Benchmark,
            RunPredicate::And(a, b) => a.may_match_kind(kind) && b.may_match_kind(kind),
            RunPredicate::Or(a, b) => a.may_match_kind(kind) || b.may_match_kind(kind),
            _ => true,
        }
    }

    /// Evaluate against a projection row, one row at a time: the model
    /// the column evaluator ([`RunPredicate::bind`]) is tested against.
    pub(crate) fn matches_summary(&self, s: &RunSummary) -> bool {
        match self {
            RunPredicate::True => true,
            RunPredicate::Kind(kind) => *kind == s.kind,
            RunPredicate::ApiEq(api) => s.api == *api,
            RunPredicate::HasOp(op) => s.ops.iter().any(|o| o.operation == *op),
            RunPredicate::TasksBetween(lo, hi) => (*lo..=*hi).contains(&s.tasks),
            RunPredicate::TransferBetween(lo, hi) => (*lo..=*hi).contains(&s.transfer_size),
            RunPredicate::BandwidthBetween(lo, hi) => {
                let bw = s.bandwidth();
                *lo <= bw && bw <= *hi
            }
            RunPredicate::CommandContains(text) => s.command.contains(text.as_str()),
            RunPredicate::IdIn(ids) => ids.contains(&s.id),
            RunPredicate::And(a, b) => a.matches_summary(s) && b.matches_summary(s),
            RunPredicate::Or(a, b) => a.matches_summary(s) || b.matches_summary(s),
            RunPredicate::Not(inner) => !inner.matches_summary(s),
        }
    }

    /// Bind the predicate to one block's columns: the kind is decided,
    /// and an api or operation name becomes the block's dictionary code
    /// — one the block lacks matches none of its rows. Constant parts
    /// fold away.
    pub(crate) fn bind(&self, cols: &SummaryColumns) -> Bound<'_> {
        let code = |name: &str, bound: fn(u32) -> Bound<'static>| {
            cols.code(name).map_or(Bound::Const(false), bound)
        };
        match self {
            RunPredicate::True => Bound::Const(true),
            RunPredicate::Kind(kind) => Bound::Const(*kind == cols.kind()),
            RunPredicate::ApiEq(api) => code(api, Bound::ApiEq),
            RunPredicate::HasOp(op) => code(op, Bound::HasOp),
            RunPredicate::TasksBetween(lo, hi) => Bound::Tasks(*lo, *hi),
            RunPredicate::TransferBetween(lo, hi) => Bound::Transfer(*lo, *hi),
            RunPredicate::BandwidthBetween(lo, hi) => Bound::Bandwidth(*lo, *hi),
            RunPredicate::CommandContains(text) => Bound::Command(text),
            RunPredicate::IdIn(ids) => Bound::IdIn(ids),
            RunPredicate::And(a, b) => match (a.bind(cols), b.bind(cols)) {
                (Bound::Const(false), _) | (_, Bound::Const(false)) => Bound::Const(false),
                (Bound::Const(true), x) | (x, Bound::Const(true)) => x,
                (a, b) => Bound::And(Box::new(a), Box::new(b)),
            },
            RunPredicate::Or(a, b) => match (a.bind(cols), b.bind(cols)) {
                (Bound::Const(true), _) | (_, Bound::Const(true)) => Bound::Const(true),
                (Bound::Const(false), x) | (x, Bound::Const(false)) => x,
                (a, b) => Bound::Or(Box::new(a), Box::new(b)),
            },
            RunPredicate::Not(inner) => match inner.bind(cols) {
                Bound::Const(v) => Bound::Const(!v),
                inner => Bound::Not(Box::new(inner)),
            },
        }
    }

    fn write_key(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            RunPredicate::True => out.push('*'),
            RunPredicate::Kind(k) => {
                let _ = write!(out, "kind={}", k.as_str());
            }
            RunPredicate::ApiEq(api) => {
                let _ = write!(out, "api={api}");
            }
            RunPredicate::HasOp(op) => {
                let _ = write!(out, "op={op}");
            }
            RunPredicate::TasksBetween(lo, hi) => {
                let _ = write!(out, "tasks={lo}..{hi}");
            }
            RunPredicate::TransferBetween(lo, hi) => {
                let _ = write!(out, "xfer={lo}..{hi}");
            }
            RunPredicate::BandwidthBetween(lo, hi) => {
                let _ = write!(out, "bw={lo}..{hi}");
            }
            RunPredicate::CommandContains(text) => {
                let _ = write!(out, "cmd~{text}");
            }
            RunPredicate::IdIn(ids) => {
                let _ = write!(out, "id∈{ids:?}");
            }
            RunPredicate::And(a, b) => {
                out.push_str("(& ");
                a.write_key(out);
                out.push(' ');
                b.write_key(out);
                out.push(')');
            }
            RunPredicate::Or(a, b) => {
                out.push_str("(| ");
                a.write_key(out);
                out.push(' ');
                b.write_key(out);
                out.push(')');
            }
            RunPredicate::Not(inner) => {
                out.push_str("(! ");
                inner.write_key(out);
                out.push(')');
            }
        }
    }
}

/// A [`RunPredicate`] bound to one block's columns
/// ([`RunPredicate::bind`]), evaluated row by row over them.
pub(crate) enum Bound<'p> {
    Const(bool),
    ApiEq(u32),
    HasOp(u32),
    Tasks(u32, u32),
    Transfer(u64, u64),
    Bandwidth(f64, f64),
    Command(&'p str),
    IdIn(&'p [u64]),
    And(Box<Bound<'p>>, Box<Bound<'p>>),
    Or(Box<Bound<'p>>, Box<Bound<'p>>),
    Not(Box<Bound<'p>>),
}

impl Bound<'_> {
    /// Does `row`, of the columns this was bound to, match?
    pub(crate) fn matches(&self, row: RunRow<'_>) -> bool {
        match self {
            Bound::Const(v) => *v,
            Bound::ApiEq(code) => row.api_code() == *code,
            Bound::HasOp(code) => row.has_op(*code),
            Bound::Tasks(lo, hi) => (*lo..=*hi).contains(&row.tasks()),
            Bound::Transfer(lo, hi) => (*lo..=*hi).contains(&row.transfer_size()),
            Bound::Bandwidth(lo, hi) => {
                let bw = row.bandwidth();
                *lo <= bw && bw <= *hi
            }
            Bound::Command(text) => row.command().contains(text),
            Bound::IdIn(ids) => ids.contains(&row.id()),
            Bound::And(a, b) => a.matches(row) && b.matches(row),
            Bound::Or(a, b) => a.matches(row) || b.matches(row),
            Bound::Not(inner) => !inner.matches(row),
        }
    }
}

/// The run filters a user states — `iokc` flags or explorerd query
/// parameters — each left `None` when not given; [`RunFilter::predicate`]
/// is the one mapping from them to a [`RunPredicate`]. `Default`
/// matches everything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunFilter {
    /// Runs of one kind.
    pub kind: Option<RunKind>,
    /// Exact API.
    pub api: Option<String>,
    /// Command substring.
    pub command: Option<String>,
    /// Has a summary for this operation.
    pub op: Option<String>,
    /// Lower task-count bound, inclusive.
    pub min_tasks: Option<u32>,
    /// Upper task-count bound, inclusive.
    pub max_tasks: Option<u32>,
    /// Lower bandwidth bound, inclusive ([`RunSummary::bandwidth`]).
    pub min_bw: Option<f64>,
    /// Upper bandwidth bound, inclusive.
    pub max_bw: Option<f64>,
    /// Run ids (within the kind's id space).
    pub ids: Option<Vec<u64>>,
}

impl RunFilter {
    /// The conjunction of the given filters. `api` and `command`
    /// restrict to benchmark runs: an IO500 run has no API and a
    /// synthetic command, so matching it there would only surprise. A
    /// range is added only when one of its bounds is given, the other
    /// side left open.
    #[must_use]
    pub fn predicate(&self) -> RunPredicate {
        let mut conjuncts: Vec<RunPredicate> =
            self.kind.map(RunPredicate::Kind).into_iter().collect();
        if (self.api.is_some() || self.command.is_some()) && self.kind != Some(RunKind::Benchmark) {
            conjuncts.push(RunPredicate::Kind(RunKind::Benchmark));
        }
        conjuncts.extend(self.ids.clone().map(RunPredicate::IdIn));
        conjuncts.extend(self.api.clone().map(RunPredicate::ApiEq));
        conjuncts.extend(self.command.clone().map(RunPredicate::CommandContains));
        conjuncts.extend(self.op.clone().map(RunPredicate::HasOp));
        if self.min_tasks.is_some() || self.max_tasks.is_some() {
            conjuncts.push(RunPredicate::TasksBetween(
                self.min_tasks.unwrap_or(0),
                self.max_tasks.unwrap_or(u32::MAX),
            ));
        }
        if self.min_bw.is_some() || self.max_bw.is_some() {
            conjuncts.push(RunPredicate::BandwidthBetween(
                self.min_bw.unwrap_or(f64::NEG_INFINITY),
                self.max_bw.unwrap_or(f64::INFINITY),
            ));
        }
        conjuncts
            .into_iter()
            .reduce(RunPredicate::and)
            .unwrap_or(RunPredicate::True)
    }
}

/// Sort key for query results. Every order breaks ties by `(id, kind)`,
/// so paginated or limited results are deterministic across requests
/// even when the sort key (tasks, bandwidth) is not unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOrder {
    /// By id (benchmark before io500 on equal ids).
    Id,
    /// By task count.
    Tasks,
    /// By command string.
    Command,
    /// By bandwidth (write mean MiB/s, or IO500 `bw_score`).
    Bandwidth,
}

impl RunOrder {
    fn as_str(self) -> &'static str {
        match self {
            RunOrder::Id => "id",
            RunOrder::Tasks => "tasks",
            RunOrder::Command => "command",
            RunOrder::Bandwidth => "bw",
        }
    }
}

impl FromStr for RunOrder {
    type Err = UnknownName;

    fn from_str(name: &str) -> Result<RunOrder, UnknownName> {
        match name {
            "id" => Ok(RunOrder::Id),
            "tasks" => Ok(RunOrder::Tasks),
            "command" => Ok(RunOrder::Command),
            "bw" => Ok(RunOrder::Bandwidth),
            _ => Err(UnknownName::new("sort", name, "id|tasks|command|bw")),
        }
    }
}

/// A typed query: predicate, order, offset/limit. Projection is chosen
/// by the executing method — [`Snapshot::query_summaries`] for
/// the cheap [`RunSummary`] rows, [`Snapshot::query_ids`] for
/// bare refs, [`Snapshot::query_items`] for explicit full
/// deserialization, [`Snapshot::count`] for the no-materialize
/// count fast path.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The filter.
    pub predicate: RunPredicate,
    /// The sort key.
    pub order: RunOrder,
    /// Reverse the sort (ties still ascend by id, keeping pagination
    /// deterministic).
    pub descending: bool,
    /// Rows to skip after sorting.
    pub offset: usize,
    /// Maximum rows to return (`None` = all).
    pub limit: Option<usize>,
}

impl Query {
    /// Everything, in id order.
    #[must_use]
    pub fn all() -> Query {
        Query::new(RunPredicate::True)
    }

    /// A query with defaults: id order, no offset, no limit.
    #[must_use]
    pub fn new(predicate: RunPredicate) -> Query {
        Query {
            predicate,
            order: RunOrder::Id,
            descending: false,
            offset: 0,
            limit: None,
        }
    }

    /// Set the sort key (builder style).
    #[must_use]
    pub fn order_by(mut self, order: RunOrder) -> Query {
        self.order = order;
        self
    }

    /// Sort descending (builder style).
    #[must_use]
    pub fn descending(mut self) -> Query {
        self.descending = true;
        self
    }

    /// Skip `n` rows (builder style).
    #[must_use]
    pub fn offset(mut self, n: usize) -> Query {
        self.offset = n;
        self
    }

    /// Return at most `n` rows (builder style).
    #[must_use]
    pub fn limit(mut self, n: usize) -> Query {
        self.limit = Some(n);
        self
    }

    /// A canonical text form of the *typed* query — read-through caches
    /// key on this (plus the store generation), so two request strings
    /// that parse to the same query share one cache entry.
    #[must_use]
    pub fn cache_key(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pred = String::new();
        self.predicate.write_key(&mut pred);
        write!(
            f,
            "q[{pred}|{}{}|{}+{}]",
            self.order.as_str(),
            if self.descending { "-" } else { "+" },
            self.offset,
            self.limit.map_or("all".to_owned(), |n| n.to_string()),
        )
    }
}

/// Per-operation statistics of one benchmark run — the slice of an
/// `OperationSummary` the interactive views actually read.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStat {
    /// Operation name (`write`, `read`, …).
    pub operation: String,
    /// Mean bandwidth, MiB/s.
    pub mean_mib: f64,
    /// Max bandwidth, MiB/s.
    pub max_mib: f64,
    /// Mean operation rate, ops/s.
    pub mean_ops: f64,
}

/// The projection row: everything the list/compare/boxplot views need,
/// materialized from `performances` + `summaries` (+ scores for IO500)
/// without deserializing the full `Knowledge` object.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Which id space.
    pub kind: RunKind,
    /// Run id.
    pub id: u64,
    /// Benchmark command (`"io500"` for IO500 runs).
    pub command: String,
    /// API (`""` for IO500 runs).
    pub api: String,
    /// Task count.
    pub tasks: u32,
    /// Block size in bytes (0 for IO500).
    pub block_size: u64,
    /// Transfer size in bytes (0 for IO500).
    pub transfer_size: u64,
    /// Segment count (0 for IO500).
    pub segments: u64,
    /// Clients per node (0 for IO500).
    pub clients_per_node: u32,
    /// Per-operation statistics (empty for IO500).
    pub ops: Vec<OpStat>,
    /// IO500 bandwidth score (0 for benchmarks).
    pub bw_score: f64,
    /// IO500 metadata score (0 for benchmarks).
    pub md_score: f64,
    /// IO500 total score (0 for benchmarks).
    pub total_score: f64,
    /// Number of extraction warnings attached to the run.
    pub warning_count: usize,
}

impl RunSummary {
    /// Statistics for one operation.
    #[must_use]
    pub fn op(&self, operation: &str) -> Option<&OpStat> {
        self.ops.iter().find(|o| o.operation == operation)
    }

    /// The run's bandwidth under the engine's ordering: write mean for
    /// benchmarks, `bw_score` for IO500.
    #[must_use]
    pub fn bandwidth(&self) -> f64 {
        match self.kind {
            RunKind::Benchmark => self.op("write").map_or(0.0, |o| o.mean_mib),
            RunKind::Io500 => self.bw_score,
        }
    }
}

/// Cached counter handles for the engine's observability. Rebuilt when
/// a recorder is attached; the default registry belongs to a disabled
/// recorder, so the counters always work and attaching is optional.
#[derive(Clone)]
pub(crate) struct QueryObs {
    pub(crate) recorder: Arc<Recorder>,
    pub(crate) queries: Counter,
    pub(crate) segments_scanned: Counter,
    pub(crate) segments_pruned: Counter,
    pub(crate) rows_pruned: Counter,
    pub(crate) knowledge_deserialized: Counter,
    pub(crate) cancelled: Counter,
    bodies_loaded: Counter,
    bytes_decoded: Counter,
    pub(crate) agg: crate::aggregate::AggObs,
}

impl QueryObs {
    pub(crate) fn new(recorder: Arc<Recorder>) -> QueryObs {
        let metrics = recorder.metrics();
        QueryObs {
            queries: metrics.counter("store.query.queries"),
            segments_scanned: metrics.counter("store.query.segments_scanned"),
            segments_pruned: metrics.counter("store.query.segments_pruned"),
            rows_pruned: metrics.counter("store.query.rows_pruned"),
            knowledge_deserialized: metrics.counter("store.query.knowledge_deserialized"),
            cancelled: metrics.counter("store.query_cancelled"),
            bodies_loaded: metrics.counter("store.segment.bodies_loaded"),
            bytes_decoded: metrics.counter("store.segment.bytes_decoded"),
            agg: crate::aggregate::AggObs::new(&metrics),
            recorder,
        }
    }
}

impl Default for QueryObs {
    fn default() -> QueryObs {
        QueryObs::new(Arc::new(Recorder::disabled()))
    }
}

/// One matched row: which cursor block holds it, where in that block's
/// columns of its kind, and which run it is.
#[derive(Clone, Copy)]
struct Hit {
    block: u32,
    at: u32,
    run: RunRef,
}

/// The runs one [`Query`] matched, in query order, as a cursor over the
/// pinned blocks that hold them: the query is evaluated once, when the
/// cursor is opened, and what stays behind is a block index, a row
/// index and a [`RunRef`] per row (≈24 bytes) — every projection, whole
/// or page by page, borrows from the blocks without locating a row
/// again.
pub struct RunCursor {
    blocks: Vec<Arc<SegmentData>>,
    rows: Vec<Hit>,
    next: usize,
}

impl RunCursor {
    /// Rows not yet handed out.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rows.len() - self.next
    }

    /// The next `max` rows (fewer at the end), borrowed from the pinned
    /// blocks.
    pub fn next_page(&mut self, max: usize) -> impl Iterator<Item = RunRow<'_>> {
        let page = &self.rows[self.next..][..max.min(self.remaining())];
        self.next += page.len();
        let blocks = &self.blocks;
        page.iter().map(move |hit| row_of(blocks, hit))
    }

    /// Every matched run.
    fn runs(&self) -> impl Iterator<Item = RunRef> + '_ {
        self.rows.iter().map(|hit| hit.run)
    }

    /// One reader over many runs per cursor block, by block index.
    fn readers(&self) -> Vec<BlockReader<'_>> {
        let blocks = self.blocks.iter();
        blocks.map(|block| BlockReader::many(&block.db)).collect()
    }
}

/// The row a hit names among `blocks`.
fn row_of<'a>(blocks: &'a [Arc<SegmentData>], hit: &Hit) -> RunRow<'a> {
    let block = &blocks[hit.block as usize];
    block.summaries.of(hit.run.kind).row(hit.at as usize)
}

/// A matched row's sort key. A command is not copied: it is compared
/// where it sits in its block.
enum SortKey {
    Int(u64),
    Bw(f64),
    Command,
}

impl SortKey {
    /// The one run sort-key function.
    fn of(row: RunRow<'_>, order: RunOrder) -> SortKey {
        match order {
            RunOrder::Id => SortKey::Int(row.id()),
            RunOrder::Tasks => SortKey::Int(u64::from(row.tasks())),
            RunOrder::Command => SortKey::Command,
            RunOrder::Bandwidth => SortKey::Bw(row.bandwidth()),
        }
    }
}

impl KnowledgeStore {
    /// Attach an observability recorder: engine spans and counters
    /// (`store.query.*`, `store.aggregate.*`) register with its metrics
    /// registry, so `/metrics` shows whether queries are segment-pruned.
    /// The robustness counters (`store.faults_injected`,
    /// `store.open_degraded`, `store.fsck_repairs`) register too, so a
    /// degraded open or an injected storage fault is visible in the same
    /// schema-1 dump, and so do the log's (`store.wal.appends`, `.bytes`,
    /// `.replayed_records`, `.torn_tails_truncated`), carrying over what
    /// the open replayed before any recorder was attached.
    pub fn attach_recorder(&mut self, recorder: Arc<Recorder>) {
        let metrics = recorder.metrics();
        let degraded = metrics.counter("store.open_degraded");
        let _ = metrics.counter("store.fsck_repairs");
        // Never incremented: the aggregate engine reads summary blocks
        // only. Registered so dashboards and tests can assert it stays 0.
        let _ = metrics.counter("store.aggregate.knowledge_deserialized");
        self.vfs()
            .attach_fault_counter(metrics.counter("store.faults_injected"));
        if self.is_read_only() && degraded.get() == 0 {
            degraded.inc();
            if let Some(detail) = self.health().detail() {
                recorder.log(None, &format!("WARN store.open_degraded: {detail}"));
            }
        }
        self.wal.obs.rebind(&recorder);
        self.state.obs = Arc::new(QueryObs::new(recorder));
    }
}

/// What one `Snapshot::scan` did — the accounting its two callers
/// (the query and aggregate engines) turn into their own counters.
#[derive(Default)]
pub(crate) struct ScanStats {
    /// Rows of both kinds in every block, candidates or not.
    total: usize,
    /// Live candidate rows the predicate was evaluated on.
    pub(crate) examined: usize,
    /// Rows the predicate accepted.
    pub(crate) matched: usize,
    pub(crate) segments_scanned: u64,
    pub(crate) segments_pruned: u64,
}

/// Candidate rows per deadline poll: the clock is read before row 0 and
/// then once per this many rows, so an expired budget stops a scan at
/// most `POLL_EVERY - 1` rows late while a 30 s budget adds no clock read
/// to most rows.
pub(crate) const POLL_EVERY: usize = 64;

impl Snapshot {
    /// A pinned segment's body — the one place a read reaches it, so a
    /// cold load (the file read and decoded, not the cached `Arc`) is
    /// counted: `store.segment.bodies_loaded`, `.bytes_decoded`.
    pub(crate) fn body(&self, seg: &Segment) -> Result<Arc<SegmentData>, DbError> {
        let (data, bytes) = seg.load(self.vfs.as_ref())?;
        if bytes > 0 {
            self.obs.bodies_loaded.inc();
            self.obs.bytes_decoded.add(bytes);
        }
        Ok(data)
    }

    /// Run one engine call under its span, counting a cancellation.
    pub(crate) fn traced<T>(
        &self,
        span: &str,
        cancelled: &Counter,
        call: impl FnOnce() -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let recorder = &self.obs.recorder;
        let span = recorder.start_span(span, None, Some("analysis"), Some("store"));
        let result = call();
        if matches!(result, Err(DbError::Cancelled { .. })) {
            cancelled.inc();
        }
        recorder.end_span(
            &span,
            if result.is_ok() {
                SpanStatus::Ok
            } else {
                SpanStatus::Failed
            },
        );
        result
    }

    /// The one executor over runs. For each kind the predicate can
    /// match, the candidate rows are the active block, then every sealed
    /// segment whose index block admits the predicate
    /// ([`may_match_segment`]; a pruned segment's body is never loaded),
    /// oldest first, minus tombstoned rows. Every block is read the same
    /// way — the predicate is bound to its summary columns of the kind
    /// ([`RunPredicate::bind`]) and evaluated row by row over them; the
    /// active block of a file-backed store is bounded by the seal
    /// threshold, so it needs no index of its own. `on_match` sees every
    /// accepted row together with the block that holds it. `deadline`
    /// is polled before the first candidate row and then every
    /// [`POLL_EVERY`] rows; a blown budget stops the scan at most 63 rows
    /// past expiry with [`DbError::Cancelled`] carrying the progress so
    /// far.
    pub(crate) fn scan(
        &self,
        predicate: &RunPredicate,
        deadline: &DeadlineToken,
        stats: &mut ScanStats,
        mut on_match: impl FnMut(&Arc<SegmentData>, RunRow<'_>),
    ) -> Result<(), DbError> {
        let mut visit =
            |block: &Arc<SegmentData>, bound: &Bound, row: RunRow<'_>, stats: &mut ScanStats| {
                stats.examined += 1;
                if bound.matches(row) {
                    stats.matched += 1;
                    on_match(block, row);
                }
            };
        let mut candidates = 0usize;
        let mut poll = |stats: &ScanStats| {
            let due = candidates.is_multiple_of(POLL_EVERY);
            candidates += 1;
            if due && deadline.should_stop() {
                Err(DbError::Cancelled {
                    examined: stats.examined,
                    matched: stats.matched,
                })
            } else {
                Ok(())
            }
        };
        for kind in RunKind::ALL {
            stats.total += self.active.summaries.of(kind).len()
                + self
                    .segments
                    .iter()
                    .map(|s| s.meta.count(kind))
                    .sum::<usize>();
            if !predicate.may_match_kind(kind) {
                continue;
            }
            let cols = self.active.summaries.of(kind);
            let bound = predicate.bind(cols);
            for row in cols.rows() {
                poll(stats)?;
                visit(&self.active, &bound, row, stats);
            }
            for seg in self.segments.iter() {
                if seg.meta.count(kind) == 0 {
                    continue;
                }
                if !may_match_segment(predicate, &seg.meta, kind) {
                    stats.segments_pruned += 1;
                    continue;
                }
                stats.segments_scanned += 1;
                let data = self.body(seg)?;
                let cols = data.summaries.of(kind);
                let bound = predicate.bind(cols);
                for row in cols.rows() {
                    poll(stats)?;
                    if !self.tombstones.contains(&(kind, row.id())) {
                        visit(&data, &bound, row, stats);
                    }
                }
            }
        }
        Ok(())
    }

    /// Every live summary of every block — nothing pruned, no predicate
    /// applied: the rows the differential tests filter and sort on their
    /// own side.
    #[cfg(test)]
    pub(crate) fn live_summaries(&self) -> Vec<RunSummary> {
        let mut rows = self.active.summaries.to_rows();
        for seg in self.segments.iter() {
            let data = self.body(seg).expect("segment body loads");
            let live = data.summaries.to_rows().into_iter();
            rows.extend(live.filter(|s| !self.tombstones.contains(&(s.kind, s.id))));
        }
        rows
    }

    /// Run `query` through the executor under a `store.query` span and
    /// open a cursor over the matched runs in query order — sorted by
    /// the requested key with the `(id, kind)` tie-break, then
    /// offset/limit. This is the one evaluation every projection below
    /// reads from; a caller that renders page by page (the `/api/runs`
    /// stream) holds the cursor and pays for the scan and the sort once.
    ///
    /// The scan polls `deadline` every 64 candidate rows, the first
    /// time before row 0, and stops with [`DbError::Cancelled`]
    /// (partial-progress counters included) at most 63 rows after the
    /// budget runs out or cancellation fires — counted in
    /// `store.query_cancelled`. Pass [`DeadlineToken::unbounded`] when
    /// there is no deadline to impose.
    pub fn select(&self, query: &Query, deadline: &DeadlineToken) -> Result<RunCursor, DbError> {
        let obs = &self.obs;
        obs.queries.inc();
        let mut blocks: Vec<Arc<SegmentData>> = Vec::new();
        let mut matched: Vec<(SortKey, Hit)> = Vec::new();
        self.traced("store.query", &obs.cancelled, || {
            let mut stats = ScanStats::default();
            let scanned = self.scan(&query.predicate, deadline, &mut stats, |block, row| {
                if !blocks.last().is_some_and(|last| Arc::ptr_eq(last, block)) {
                    blocks.push(Arc::clone(block));
                }
                let hit = Hit {
                    block: blocks.len() as u32 - 1,
                    at: row.at() as u32,
                    run: RunRef {
                        kind: row.kind(),
                        id: row.id(),
                    },
                };
                matched.push((SortKey::of(row, query.order), hit));
            });
            obs.segments_scanned.add(stats.segments_scanned);
            obs.segments_pruned.add(stats.segments_pruned);
            scanned?;
            obs.rows_pruned
                .add(stats.total.saturating_sub(stats.examined) as u64);
            Ok(())
        })?;
        // Sort: the requested key (possibly reversed), then always the
        // (id, kind) tie-break ascending, so non-unique keys still give
        // one deterministic order across requests and pages.
        matched.sort_by(|(a_key, a), (b_key, b)| {
            let key = match (a_key, b_key) {
                (SortKey::Int(x), SortKey::Int(y)) => x.cmp(y),
                (SortKey::Bw(x), SortKey::Bw(y)) => x.total_cmp(y),
                _ => row_of(&blocks, a)
                    .command()
                    .cmp(row_of(&blocks, b).command()),
            };
            let key = if query.descending { key.reverse() } else { key };
            key.then(a.run.id.cmp(&b.run.id))
                .then(a.run.kind.cmp(&b.run.kind))
        });
        let rows = matched
            .into_iter()
            .skip(query.offset)
            .take(query.limit.unwrap_or(usize::MAX))
            .map(|(_, hit)| hit)
            .collect();
        Ok(RunCursor {
            blocks,
            rows,
            next: 0,
        })
    }

    /// Execute a query, returning matched run refs in query order.
    pub fn query_ids(
        &self,
        query: &Query,
        deadline: &DeadlineToken,
    ) -> Result<Vec<RunRef>, DbError> {
        Ok(self.select(query, deadline)?.runs().collect())
    }

    /// Execute a query, returning the cheap [`RunSummary`] projection of
    /// each matched run (no `results`, `filesystems`, `systeminfos` or
    /// full-`Knowledge` deserialization): the cursor drained into owned
    /// rows, each built from the columns only once it is kept.
    pub fn query_summaries(
        &self,
        query: &Query,
        deadline: &DeadlineToken,
    ) -> Result<Vec<RunSummary>, DbError> {
        let mut cursor = self.select(query, deadline)?;
        Ok(cursor
            .next_page(usize::MAX)
            .map(RunRow::to_summary)
            .collect())
    }

    /// Execute a query and *fully deserialize* every matched run — the
    /// explicit full projection. Use only when per-iteration results or
    /// system/filesystem details are genuinely needed. Runs are read in
    /// cursor order through one `BlockReader` per cursor block, so an
    /// id-ordered query walks each child table once.
    pub fn query_items(&self, query: &Query) -> Result<Vec<KnowledgeItem>, DbError> {
        let cursor = self.select(query, &DeadlineToken::unbounded())?;
        let mut readers = cursor.readers();
        let mut items = Vec::with_capacity(cursor.remaining());
        for &Hit { block, run, .. } in &cursor.rows {
            self.obs.knowledge_deserialized.inc();
            let reader = &mut readers[block as usize];
            items.extend(match run.kind {
                RunKind::Benchmark => reader.knowledge(run.id)?.map(KnowledgeItem::Benchmark),
                RunKind::Io500 => reader.io500_knowledge(run.id)?.map(KnowledgeItem::Io500),
            });
        }
        Ok(items)
    }

    /// Count matching runs without materializing any row projection.
    /// Kind-only predicates are answered straight from the active
    /// block's column lengths plus the sealed segments' metadata counts
    /// (minus tombstones); everything else runs the executor (never a
    /// `Knowledge` deserialization).
    pub fn count(&self, predicate: &RunPredicate) -> Result<usize, DbError> {
        let of = |kind: RunKind| {
            let sealed: usize = self.segments.iter().map(|s| s.meta.count(kind)).sum();
            // Tombstones only ever reference segment-resident runs, so
            // this subtraction is exact (saturating defends a corrupt
            // manifest, not a normal state).
            let dead = self.tombstones.iter().filter(|(k, _)| *k == kind).count();
            self.active.summaries.of(kind).len() + sealed.saturating_sub(dead)
        };
        match predicate {
            RunPredicate::True => Ok(of(RunKind::Benchmark) + of(RunKind::Io500)),
            RunPredicate::Kind(kind) => Ok(of(*kind)),
            _ => {
                let query = Query::new(predicate.clone());
                Ok(self
                    .select(&query, &DeadlineToken::unbounded())?
                    .remaining())
            }
        }
    }

    /// The per-run bandwidth series for one operation across every
    /// matching benchmark run — the box-plot projection. Reads only the
    /// matched runs' `summaries` and `results` rows, walked in id order
    /// through one `BlockReader` per cursor block, not the full
    /// `Knowledge` objects. Returns `(command, series)` pairs in query
    /// order. `deadline` is polled between runs too (every 64, from the
    /// first), since each run fans out into `summaries` and `results`
    /// look-ups.
    pub fn boxplot_series(
        &self,
        predicate: &RunPredicate,
        operation: &str,
        deadline: &DeadlineToken,
    ) -> Result<Vec<(String, Vec<f64>)>, DbError> {
        let query = Query::new(
            RunPredicate::Kind(RunKind::Benchmark)
                .and(RunPredicate::HasOp(operation.to_owned()))
                .and(predicate.clone()),
        );
        let cursor = self.select(&query, deadline)?;
        let mut readers = cursor.readers();
        let mut out = Vec::with_capacity(cursor.remaining());
        for (done, hit) in cursor.rows.iter().enumerate() {
            if done.is_multiple_of(POLL_EVERY) && deadline.should_stop() {
                self.obs.cancelled.inc();
                return Err(DbError::Cancelled {
                    examined: cursor.remaining(),
                    matched: done,
                });
            }
            let series = readers[hit.block as usize].series(hit.run.id, operation)?;
            if !series.is_empty() {
                let command = row_of(&cursor.blocks, hit).command().to_owned();
                out.push((command, series));
            }
        }
        Ok(out)
    }

    /// The block holding run `(kind, id)`: the active block first, then
    /// each sealed segment whose id range and membership filter admit
    /// the id (loading its body on first touch). O(log n) in every
    /// block; tombstoned runs resolve to `None`.
    pub(crate) fn locate(
        &self,
        kind: RunKind,
        id: u64,
    ) -> Result<Option<Arc<SegmentData>>, DbError> {
        if self.active.summaries.contains(kind, id) {
            return Ok(Some(Arc::clone(&self.active)));
        }
        if self.tombstones.contains(&(kind, id)) {
            return Ok(None);
        }
        for seg in self.segments.iter() {
            let range = match kind {
                RunKind::Benchmark => seg.meta.bench_ids,
                RunKind::Io500 => seg.meta.io500_ids,
            };
            if !range.is_some_and(|(lo, hi)| (lo..=hi).contains(&id))
                || !seg.meta.bloom.may_contain(kind, id)
            {
                continue;
            }
            let data = self.body(seg)?;
            if data.summaries.contains(kind, id) {
                return Ok(Some(data));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_core::model::{
        Io500Knowledge, IterationResult, Knowledge, KnowledgeSource, OperationSummary,
    };

    fn bench(command: &str, api: &str, tasks: u32, write_bw: f64) -> Knowledge {
        let mut k = Knowledge::new(KnowledgeSource::Ior, command);
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
            iterations: 2,
        });
        for i in 0..2u32 {
            k.results.push(IterationResult {
                operation: "write".into(),
                iteration: i,
                bw_mib: write_bw + f64::from(i),
                ops: 10,
                ops_per_sec: 5.0,
                latency_s: 0.001,
                open_s: 0.002,
                wrrd_s: 1.0,
                close_s: 0.003,
                total_s: 1.1,
            });
        }
        k
    }

    fn io500(tasks: u32, bw_score: f64) -> Io500Knowledge {
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

    fn seeded() -> KnowledgeStore {
        let mut store = KnowledgeStore::in_memory();
        store
            .save_knowledge(&bench("ior -a posix", "POSIX", 8, 100.0))
            .unwrap();
        store
            .save_knowledge(&bench("ior -a mpiio", "MPIIO", 16, 300.0))
            .unwrap();
        store
            .save_knowledge(&bench("ior -a posix -x", "POSIX", 32, 200.0))
            .unwrap();
        store.save_io500(&io500(16, 1.5)).unwrap();
        store
    }

    fn ids(refs: &[RunRef]) -> Vec<(RunKind, u64)> {
        refs.iter().map(|r| (r.kind, r.id)).collect()
    }

    /// The oracle: the query answered on the test's side — filter every
    /// live summary of every block, sort by `(key, id, kind)`, page.
    fn brute_force(snap: &Snapshot, q: &Query) -> Vec<RunSummary> {
        let mut rows: Vec<RunSummary> = snap
            .live_summaries()
            .into_iter()
            .filter(|s| q.predicate.matches_summary(s))
            .collect();
        rows.sort_by(|a, b| {
            let key = match q.order {
                RunOrder::Id => a.id.cmp(&b.id),
                RunOrder::Tasks => a.tasks.cmp(&b.tasks),
                RunOrder::Command => a.command.cmp(&b.command),
                RunOrder::Bandwidth => a.bandwidth().total_cmp(&b.bandwidth()),
            };
            let key = if q.descending { key.reverse() } else { key };
            key.then(a.id.cmp(&b.id)).then(a.kind.cmp(&b.kind))
        });
        rows.into_iter()
            .skip(q.offset)
            .take(q.limit.unwrap_or(usize::MAX))
            .collect()
    }

    fn refs_of(rows: &[RunSummary]) -> Vec<RunRef> {
        rows.iter()
            .map(|s| RunRef {
                kind: s.kind,
                id: s.id,
            })
            .collect()
    }

    #[test]
    fn api_filter_equals_the_brute_force_model() {
        let store = seeded();
        let q = Query::new(RunPredicate::ApiEq("POSIX".into()));
        let found = store.query_ids(&q, &DeadlineToken::unbounded()).unwrap();
        assert_eq!(
            ids(&found),
            vec![(RunKind::Benchmark, 1), (RunKind::Benchmark, 3)]
        );
        assert_eq!(found, refs_of(&brute_force(&store, &q)));
    }

    #[test]
    fn bandwidth_range_selects_and_a_reversed_range_is_empty() {
        let store = seeded();
        let open = DeadlineToken::unbounded();
        let q = Query::new(RunPredicate::BandwidthBetween(150.0, 250.0));
        let refs = store.query_ids(&q, &open).unwrap();
        assert_eq!(ids(&refs), vec![(RunKind::Benchmark, 3)]);
        // Reversed range is empty, never a panic.
        let rev = Query::new(RunPredicate::BandwidthBetween(250.0, 150.0));
        assert!(store.query_ids(&rev, &open).unwrap().is_empty());
    }

    #[test]
    fn reversed_range_is_empty_without_loading_a_segment() {
        use crate::vfs::{FaultVfs, Vfs};
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::pristine());
        let path = std::path::PathBuf::from("/kb.json");
        {
            let mut store = KnowledgeStore::open_with_vfs(path.clone(), Arc::clone(&vfs)).unwrap();
            store.set_seal_threshold(2);
            for (tasks, bw) in [(1, 100.0), (128, 900.0), (8, 300.0), (64, 500.0)] {
                store
                    .save_knowledge(&bench("ior", "POSIX", tasks, bw))
                    .unwrap();
            }
            assert_eq!(store.segment_metas().len(), 2);
        }
        // Reopened, every segment body is cold; the bounds of each
        // reversed range straddle both segments' ranges.
        let mut store = KnowledgeStore::open_with_vfs(path, vfs).unwrap();
        let recorder = Arc::new(Recorder::disabled());
        store.attach_recorder(Arc::clone(&recorder));
        let scanned = recorder.metrics().counter("store.query.segments_scanned");
        let pruned = recorder.metrics().counter("store.query.segments_pruned");
        let open = DeadlineToken::unbounded();
        for reversed in [
            RunPredicate::TasksBetween(64, 1),
            RunPredicate::BandwidthBetween(900.0, 100.0),
        ] {
            let q = Query::new(reversed);
            assert!(store.query_ids(&q, &open).unwrap().is_empty(), "{q}");
        }
        assert_eq!((scanned.get(), pruned.get()), (0, 4));
        // The same bounds the right way round read both segments.
        let q = Query::new(RunPredicate::TasksBetween(1, 64));
        assert_eq!(store.query_ids(&q, &open).unwrap().len(), 3);
        assert_eq!((scanned.get(), pruned.get()), (2, 4));
    }

    #[test]
    fn duplicate_sort_keys_break_ties_by_id() {
        let mut store = KnowledgeStore::in_memory();
        for _ in 0..4 {
            store
                .save_knowledge(&bench("dup", "POSIX", 8, 500.0))
                .unwrap();
        }
        let q = Query::new(RunPredicate::True)
            .order_by(RunOrder::Bandwidth)
            .descending();
        let all = store.query_ids(&q, &DeadlineToken::unbounded()).unwrap();
        assert_eq!(
            ids(&all),
            vec![
                (RunKind::Benchmark, 1),
                (RunKind::Benchmark, 2),
                (RunKind::Benchmark, 3),
                (RunKind::Benchmark, 4),
            ]
        );
        // Pagination over the duplicate keys is deterministic: pages
        // partition the same total order.
        let page1 = store
            .query_ids(&q.clone().limit(2), &DeadlineToken::unbounded())
            .unwrap();
        let page2 = store
            .query_ids(&q.clone().offset(2).limit(2), &DeadlineToken::unbounded())
            .unwrap();
        let mut joined = ids(&page1);
        joined.extend(ids(&page2));
        assert_eq!(joined, ids(&all));
    }

    #[test]
    fn counts_deserialize_nothing() {
        let mut store = seeded();
        let recorder = Arc::new(Recorder::disabled());
        store.attach_recorder(Arc::clone(&recorder));
        let deser = recorder
            .metrics()
            .counter("store.query.knowledge_deserialized");
        assert_eq!(store.knowledge_count(), 3);
        assert_eq!(store.io500_count(), 1);
        assert_eq!(
            store.count(&RunPredicate::ApiEq("POSIX".into())).unwrap(),
            2
        );
        assert_eq!(store.count(&RunPredicate::TasksBetween(10, 40)).unwrap(), 3);
        assert_eq!(deser.get(), 0, "count paths must not deserialize Knowledge");
        store.load_knowledge(1).unwrap().unwrap();
        assert_eq!(deser.get(), 1);
    }

    #[test]
    fn summaries_project_without_full_deserialization() {
        let mut store = seeded();
        let recorder = Arc::new(Recorder::disabled());
        store.attach_recorder(Arc::clone(&recorder));
        let deser = recorder
            .metrics()
            .counter("store.query.knowledge_deserialized");
        let rows = store
            .query_summaries(
                &Query::all().order_by(RunOrder::Bandwidth).descending(),
                &DeadlineToken::unbounded(),
            )
            .unwrap();
        assert_eq!(deser.get(), 0);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].command, "ior -a mpiio");
        assert_eq!(rows[0].bandwidth(), 300.0);
        let last = &rows[3];
        assert_eq!(last.kind, RunKind::Io500);
        assert_eq!(last.command, "io500");
        assert_eq!(last.bandwidth(), 1.5);
        assert_eq!(last.md_score, 3.0);
    }

    #[test]
    fn query_items_is_the_explicit_full_projection() {
        let store = seeded();
        let items = store
            .query_items(&Query::new(RunPredicate::ApiEq("MPIIO".into())))
            .unwrap();
        assert_eq!(items.len(), 1);
        match &items[0] {
            iokc_core::model::KnowledgeItem::Benchmark(k) => {
                assert_eq!(k.command, "ior -a mpiio");
                assert_eq!(k.results.len(), 2); // full join, results included
            }
            other => panic!("expected benchmark, got {other:?}"),
        }
    }

    #[test]
    fn boxplot_series_reads_iteration_results() {
        let store = seeded();
        let series = store
            .boxplot_series(
                &RunPredicate::ApiEq("POSIX".into()),
                "write",
                &DeadlineToken::unbounded(),
            )
            .unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, "ior -a posix");
        assert_eq!(series[0].1, vec![100.0, 101.0]);
        assert_eq!(series[1].1, vec![200.0, 201.0]);
    }

    #[test]
    fn exhausted_deadline_cancels_scans_with_progress_counters() {
        use iokc_obs::CancelToken;
        use std::time::Duration;
        let mut store = seeded();
        let recorder = Arc::new(Recorder::disabled());
        store.attach_recorder(Arc::clone(&recorder));
        let cancelled = recorder.metrics().counter("store.query_cancelled");

        let expired = DeadlineToken::with_budget(CancelToken::new(), Duration::ZERO);
        let err = store.query_ids(&Query::all(), &expired).unwrap_err();
        assert!(matches!(err, DbError::Cancelled { .. }), "{err}");
        assert_eq!(cancelled.get(), 1);

        let err = store.query_summaries(&Query::all(), &expired).unwrap_err();
        assert!(matches!(err, DbError::Cancelled { .. }), "{err}");
        let err = store
            .boxplot_series(&RunPredicate::True, "write", &expired)
            .unwrap_err();
        assert!(matches!(err, DbError::Cancelled { .. }), "{err}");
        assert_eq!(cancelled.get(), 3);

        // A cancelled token stops scans too, and the partial-progress
        // display names how far it got.
        let token = CancelToken::new();
        token.cancel();
        let err = store
            .query_ids(&Query::all(), &DeadlineToken::cancellable(token))
            .unwrap_err();
        assert!(err.to_string().contains("query cancelled"), "{err}");

        // An unbounded, un-cancelled token runs to completion and does
        // not bump the counter.
        let open = DeadlineToken::unbounded();
        assert_eq!(store.query_ids(&Query::all(), &open).unwrap().len(), 4);
        assert_eq!(
            store.query_summaries(&Query::all(), &open).unwrap().len(),
            4
        );
        assert_eq!(cancelled.get(), 4);
    }

    #[test]
    fn a_token_cancelled_before_the_call_stops_every_engine_at_row_zero() {
        use crate::aggregate::{AggregateQuery, Factor, GroupBy};
        use iokc_obs::CancelToken;
        let store = seeded();
        let token = CancelToken::new();
        token.cancel();
        let cancelled = DeadlineToken::cancellable(token);
        let at_row_zero = |result: Result<(), DbError>| match result {
            Err(DbError::Cancelled { examined, matched }) => {
                assert_eq!((examined, matched), (0, 0));
            }
            other => panic!("expected Cancelled, got {other:?}"),
        };
        at_row_zero(store.select(&Query::all(), &cancelled).map(drop));
        let q = AggregateQuery::new(GroupBy::TasksLog2, Factor::Bandwidth)
            .with_correlation(&[Factor::Tasks, Factor::Bandwidth]);
        at_row_zero(store.aggregate(&q, &cancelled).map(drop));
        at_row_zero(
            store
                .boxplot_series(&RunPredicate::True, "write", &cancelled)
                .map(drop),
        );
    }

    #[test]
    fn a_scan_sees_cancellation_at_the_next_poll() {
        use iokc_obs::CancelToken;
        let mut store = KnowledgeStore::in_memory();
        for i in 0..3 * POLL_EVERY {
            store
                .save_knowledge(&bench("ior", "POSIX", 1, i as f64))
                .unwrap();
        }
        let snapshot = store.snapshot();
        for cancel_at in [1, POLL_EVERY - 1, POLL_EVERY, POLL_EVERY + 1] {
            let token = CancelToken::new();
            let deadline = DeadlineToken::cancellable(token.clone());
            let mut stats = ScanStats::default();
            let mut seen = 0;
            let result = snapshot.scan(&RunPredicate::True, &deadline, &mut stats, |_, _| {
                seen += 1;
                if seen == cancel_at {
                    token.cancel();
                }
            });
            // Cancelled while visiting row `cancel_at - 1`: the next
            // multiple of the poll interval is where the scan stops.
            let stop = cancel_at.div_ceil(POLL_EVERY) * POLL_EVERY;
            assert!(stop - cancel_at < POLL_EVERY);
            match result {
                Err(DbError::Cancelled { examined, matched }) => {
                    assert_eq!(
                        (examined, matched),
                        (stop, stop),
                        "cancelled at {cancel_at}"
                    );
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
    }

    #[test]
    fn cache_key_is_canonical_for_equal_queries() {
        let a = Query::new(RunPredicate::ApiEq("POSIX".into())).limit(5);
        let b = Query::new(RunPredicate::ApiEq("POSIX".into())).limit(5);
        assert_eq!(a.cache_key(), b.cache_key());
        let c = Query::new(RunPredicate::ApiEq("MPIIO".into())).limit(5);
        assert_ne!(a.cache_key(), c.cache_key());
    }

    /// What the default filter, edited, lowers to and the runs it
    /// selects from the seeded store.
    fn filtered(edit: impl FnOnce(&mut RunFilter)) -> (RunPredicate, Vec<(RunKind, u64)>) {
        let mut filter = RunFilter::default();
        edit(&mut filter);
        let q = Query::new(filter.predicate());
        let found = seeded().query_ids(&q, &DeadlineToken::unbounded()).unwrap();
        (q.predicate, ids(&found))
    }

    #[test]
    fn an_empty_filter_matches_everything() {
        let (predicate, found) = filtered(|_| {});
        assert_eq!((predicate, found.len()), (RunPredicate::True, 4));
    }

    #[test]
    fn api_and_command_each_restrict_to_benchmark_runs() {
        // The IO500 run's api is "" and its command "io500".
        assert!(filtered(|f| f.api = Some(String::new())).1.is_empty());
        let (_, found) = filtered(|f| f.command = Some("io".into()));
        assert_eq!(found, [1, 2, 3].map(|id| (RunKind::Benchmark, id)));
    }

    #[test]
    fn op_alone_adds_no_kind_restriction_and_matches_no_io500_run() {
        let (predicate, found) = filtered(|f| f.op = Some("write".into()));
        assert_eq!(predicate, RunPredicate::HasOp("write".into()));
        assert_eq!(found, [1, 2, 3].map(|id| (RunKind::Benchmark, id)));
    }

    #[test]
    fn a_single_bound_leaves_the_other_side_open() {
        let (predicate, found) = filtered(|f| f.min_tasks = Some(16));
        assert_eq!(predicate, RunPredicate::TasksBetween(16, u32::MAX));
        let io500 = (RunKind::Io500, 1);
        assert_eq!(
            found,
            [io500, (RunKind::Benchmark, 2), (RunKind::Benchmark, 3)]
        );
        let (predicate, found) = filtered(|f| f.max_bw = Some(150.0));
        let open_below = RunPredicate::BandwidthBetween(f64::NEG_INFINITY, 150.0);
        assert_eq!(predicate, open_below);
        assert_eq!(found, [(RunKind::Benchmark, 1), io500]);
    }

    #[test]
    fn kind_io500_with_api_selects_nothing() {
        let (_, found) = filtered(|f| {
            f.kind = Some(RunKind::Io500);
            f.api = Some(String::new());
        });
        assert!(found.is_empty());
    }

    #[test]
    fn ids_combine_with_kind() {
        for kind in [RunKind::Benchmark, RunKind::Io500] {
            let (_, found) = filtered(|f| {
                f.kind = Some(kind);
                f.ids = Some(vec![1]);
            });
            assert_eq!(found, [(kind, 1)]);
        }
    }

    #[test]
    fn names_parse_or_list_what_is_accepted() {
        assert_eq!("io500".parse(), Ok(RunKind::Io500));
        assert_eq!("bw".parse(), Ok(RunOrder::Bandwidth));
        let err = "latency".parse::<RunOrder>().unwrap_err().to_string();
        assert_eq!(err, "unknown sort `latency` (expected id|tasks|command|bw)");
        assert_eq!(
            "x".parse::<RunKind>().unwrap_err().expected,
            "benchmark|io500"
        );
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_predicate() -> impl Strategy<Value = RunPredicate> {
            let leaf = prop_oneof![
                Just(RunPredicate::True),
                Just(RunPredicate::Kind(RunKind::Benchmark)),
                Just(RunPredicate::Kind(RunKind::Io500)),
                prop_oneof![Just("POSIX"), Just("MPIIO"), Just("HDF5"), Just("")]
                    .prop_map(|api: &str| RunPredicate::ApiEq(api.to_owned())),
                prop_oneof![Just("write"), Just("read"), Just("stat")]
                    .prop_map(|op: &str| RunPredicate::HasOp(op.to_owned())),
                (0u32..64, 0u32..64).prop_map(|(a, b)| RunPredicate::TasksBetween(a, b)),
                (0.0f64..600.0, 0.0f64..600.0)
                    .prop_map(|(a, b)| RunPredicate::BandwidthBetween(a, b)),
                prop_oneof![Just("ior"), Just("io500"), Just("-x"), Just("zz")]
                    .prop_map(|t: &str| RunPredicate::CommandContains(t.to_owned())),
                proptest::collection::vec(1u64..12, 0..4).prop_map(RunPredicate::IdIn),
            ];
            leaf.prop_recursive(3, 16, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| RunPredicate::And(Box::new(a), Box::new(b))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| RunPredicate::Or(Box::new(a), Box::new(b))),
                    inner.prop_map(|p| RunPredicate::Not(Box::new(p))),
                ]
            })
        }

        fn arb_query() -> impl Strategy<Value = Query> {
            (
                arb_predicate(),
                prop_oneof![
                    Just(RunOrder::Id),
                    Just(RunOrder::Tasks),
                    Just(RunOrder::Command),
                    Just(RunOrder::Bandwidth),
                ],
                any::<bool>(),
                0usize..6,
                proptest::option::of(0usize..8),
            )
                .prop_map(|(predicate, order, descending, offset, limit)| Query {
                    predicate,
                    order,
                    descending,
                    offset,
                    limit,
                })
        }

        #[derive(Debug, Clone)]
        enum WriteOp {
            Bench(u8, u32, f64),
            Io500(u32, f64),
            DeleteBench(u64),
            DeleteIo500(u64),
        }

        fn arb_write_op() -> impl Strategy<Value = WriteOp> {
            prop_oneof![
                (0u8..3, 1u32..64, 0.0f64..600.0).prop_map(|(a, t, b)| WriteOp::Bench(a, t, b)),
                (0u8..3, 1u32..64, 0.0f64..600.0).prop_map(|(a, t, b)| WriteOp::Bench(a, t, b)),
                (1u32..64, 0.0f64..10.0).prop_map(|(t, b)| WriteOp::Io500(t, b)),
                (1u64..12).prop_map(WriteOp::DeleteBench),
                (1u64..6).prop_map(WriteOp::DeleteIo500),
            ]
        }

        fn apply(store: &mut KnowledgeStore, op: &WriteOp) {
            let apis = ["POSIX", "MPIIO", "HDF5"];
            match op {
                WriteOp::Bench(api, tasks, bw) => {
                    let api = apis[usize::from(*api)];
                    let k = bench(&format!("ior -a {api} -t {tasks}"), api, *tasks, *bw);
                    store.save_knowledge(&k).unwrap();
                }
                WriteOp::Io500(tasks, bw) => {
                    store.save_io500(&io500(*tasks, *bw)).unwrap();
                }
                WriteOp::DeleteBench(id) => {
                    store.delete_knowledge(*id).unwrap();
                }
                WriteOp::DeleteIo500(id) => {
                    store.delete_io500(*id).unwrap();
                }
            }
        }

        /// Everything the read API answers for `queries`, rendered as
        /// one comparable value.
        fn read_all(snap: &Snapshot, queries: &[Query]) -> Vec<String> {
            use crate::aggregate::{AggregateQuery, Factor, GroupBy};
            let open = DeadlineToken::unbounded();
            queries
                .iter()
                .map(|q| {
                    let ids = snap.query_ids(q, &open).unwrap();
                    let loaded: Vec<String> = ids
                        .iter()
                        .map(|r| match r.kind {
                            RunKind::Benchmark => format!("{:?}", snap.load_knowledge(r.id)),
                            RunKind::Io500 => format!("{:?}", snap.load_io500(r.id)),
                        })
                        .collect();
                    let agg = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth)
                        .with_predicate(q.predicate.clone())
                        .with_percentiles(&[0.1, 0.5, 0.9])
                        .with_correlation(&[Factor::Tasks, Factor::Bandwidth, Factor::TotalScore]);
                    format!(
                        "{ids:?} {:?} {:?} {:?} {:?} {loaded:?}",
                        snap.query_summaries(q, &open).unwrap(),
                        snap.count(&q.predicate).unwrap(),
                        snap.aggregate(&agg, &open).unwrap(),
                        snap.boxplot_series(&q.predicate, "write", &open).unwrap(),
                    )
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Sealing is read-invisible: the same rows answer every
            /// read identically while unsealed, once sealed, after a
            /// reopen, and from a snapshot pinned before the seal while
            /// the store keeps ingesting (and tombstoning) under it.
            #[test]
            fn sealing_is_read_invisible(
                ops in proptest::collection::vec(arb_write_op(), 1..24),
                later in proptest::collection::vec(arb_write_op(), 1..8),
                queries in proptest::collection::vec(arb_query(), 1..4),
            ) {
                use crate::vfs::{FaultVfs, Vfs};
                let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::pristine());
                let path = std::path::PathBuf::from("/kb.json");
                let mut store =
                    KnowledgeStore::open_with_vfs(path.clone(), Arc::clone(&vfs)).unwrap();
                for op in &ops {
                    apply(&mut store, op);
                }
                let unsealed = read_all(&store, &queries);
                let pinned = store.snapshot();
                store.seal_active().unwrap();
                prop_assert_eq!(&read_all(&store, &queries), &unsealed);
                let reopened = KnowledgeStore::open_with_vfs(path, vfs).unwrap();
                prop_assert_eq!(&read_all(&reopened, &queries), &unsealed);
                for op in &later {
                    apply(&mut store, op);
                }
                prop_assert_eq!(&read_all(&pinned, &queries), &unsealed);
                prop_assert!(store.indexes_consistent().unwrap());
            }
        }

        #[derive(Debug, Clone)]
        enum Step {
            Write(WriteOp),
            Seal,
            Compact,
            Reopen,
        }

        fn arb_step() -> impl Strategy<Value = Step> {
            // Mostly writes, so blocks fill between the structural steps.
            prop_oneof![
                arb_write_op().prop_map(Step::Write),
                arb_write_op().prop_map(Step::Write),
                arb_write_op().prop_map(Step::Write),
                arb_write_op().prop_map(Step::Write),
                arb_write_op().prop_map(Step::Write),
                Just(Step::Seal),
                Just(Step::Compact),
                Just(Step::Reopen),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The one read path against a brute-force model: after any
            /// interleaving of saves, deletes (of active and of sealed
            /// runs), seals, compactions and reopens, the pruned,
            /// ordered, paged executor returns what filtering and sorting
            /// every live summary of every block returns, and the
            /// pushed-down aggregate equals the reference accumulators
            /// fed those same rows.
            #[test]
            fn pruned_scan_equals_brute_force_over_live_summaries(
                steps in proptest::collection::vec(arb_step(), 1..40),
                seal_threshold in 2usize..6,
                queries in proptest::collection::vec(arb_query(), 1..4),
            ) {
                use crate::aggregate::tests::engine::assert_results_close;
                use crate::aggregate::{AggregateQuery, Factor, GroupBy};
                use crate::vfs::{FaultVfs, Vfs};
                let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::pristine());
                let path = std::path::PathBuf::from("/kb.json");
                let open = || {
                    let mut store =
                        KnowledgeStore::open_with_vfs(path.clone(), Arc::clone(&vfs)).unwrap();
                    store.set_seal_threshold(seal_threshold);
                    store
                };
                let mut store = open();
                for step in &steps {
                    match step {
                        Step::Write(op) => apply(&mut store, op),
                        Step::Seal => store.seal_active().unwrap(),
                        Step::Compact => {
                            store.compact().unwrap();
                        }
                        Step::Reopen => store = open(),
                    }
                }
                let unbounded = DeadlineToken::unbounded();
                for q in &queries {
                    let expected = brute_force(&store, q);
                    prop_assert_eq!(
                        &store.query_ids(q, &unbounded).unwrap(),
                        &refs_of(&expected),
                        "query {} diverged",
                        q
                    );
                    prop_assert_eq!(
                        &store.query_summaries(q, &unbounded).unwrap(),
                        &expected,
                        "query {} diverged",
                        q
                    );
                    let agg = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth)
                        .with_predicate(q.predicate.clone())
                        .with_percentiles(&[0.1, 0.5, 0.9])
                        .with_correlation(&[Factor::Tasks, Factor::Bandwidth, Factor::TotalScore]);
                    assert_results_close(
                        &store.aggregate(&agg, &unbounded).unwrap(),
                        &agg.evaluate_rows(store.live_summaries().iter()),
                    );
                }
            }
        }
    }
}
