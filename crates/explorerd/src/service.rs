//! Routing and rendering: the paper's explorer views over HTTP.
//!
//! JSON API (mirroring §V-D's views):
//!
//! * `GET /api/runs` — run listing with `kind`, `api`, `command`,
//!   `min_tasks`/`max_tasks`, `min_bw`/`max_bw` (MiB/s), `op` filters
//!   and `sort`/`order`/`offset`/`limit`;
//!   selected once, then streamed with chunked encoding a page of
//!   directly encoded rows at a time, teeing into the cache;
//! * `GET /api/runs/{id}` — one benchmark object with per-iteration
//!   detail;
//! * `GET /api/compare?x=..&y=..&op=..&ids=..` — the multi-object
//!   comparison with runtime-selectable axes;
//! * `GET /api/boxplot?op=..` — the per-run throughput distribution
//!   overview;
//! * `GET /api/io500/{id}` — one IO500 object;
//! * `GET /api/agg?group=..&factor=..` — corpus analytics: group-by
//!   aggregation (count/min/max/mean/stddev/percentiles) pushed down
//!   into the store — streamed from summary projections, no knowledge
//!   deserialization;
//! * `GET /api/dist?group=..&factor=..` — per-group log2 histograms and
//!   percentile bands;
//! * `GET /api/corr?correlate=f1,f2,..` — pairwise Pearson correlation
//!   over numeric run factors;
//! * `GET /metrics` — the schema-1 metrics JSON (never cached);
//! * `GET /healthz` — liveness and store health (never cached; a
//!   degraded store still answers 200 with `status: "degraded"`).
//!
//! HTML pages (`/`, `/runs/{id}`, `/io500/{id}`, `/compare`,
//! `/boxplot`, `/dist`, `/corr`) embed the `iokc-analysis` text viewers
//! and SVG charts.
//!
//! Every response except `/metrics` and `/healthz` flows through the
//! read-through [`QueryCache`], keyed on the normalized query and the
//! store's write generation — and carries a strong `ETag` derived from
//! the same pair, so a client presenting `If-None-Match` gets a
//! body-less `304 Not Modified` until the next store write bumps the
//! generation.

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, RwLock};

use iokc_analysis::{
    compare, escape_html, overview, write_bar_chart, write_box_plot, write_heat_map, write_io500,
    write_knowledge, write_line_chart, ChartOptions, ComparisonPoint, Describe, MetricAxis,
    OptionAxis, Series,
};
use iokc_core::model::Knowledge;
use iokc_obs::{Counter, DeadlineToken, Recorder, SpanStatus};
use iokc_store::{
    AggregateQuery, AggregateResult, DbError, Factor, GroupBy, KnowledgeStore, Query, RunCursor,
    RunFilter, RunKind, RunOrder, RunPredicate, RunSummary, Snapshot, UnknownName,
};
use iokc_util::json::{Json, ObjectWriter};

use crate::cache::{self, CacheStats, QueryCache};
use crate::http::{BodySource, Request, Response};

/// The explorer service: store access, cache, and observability.
pub struct Explorer {
    store: Arc<RwLock<KnowledgeStore>>,
    cache: Arc<QueryCache>,
    recorder: Arc<Recorder>,
    requests: Counter,
    errors: Counter,
    deadline_exceeded: Counter,
}

/// A handler failure that maps onto an HTTP status.
#[derive(Debug)]
enum RouteError {
    NotFound(String),
    BadQuery(String),
    /// The request's deadline budget ran out mid-query; the counters
    /// carry the scan's partial progress into the `504` body.
    Deadline {
        examined: usize,
        matched: usize,
    },
    Store(DbError),
}

impl From<DbError> for RouteError {
    fn from(e: DbError) -> RouteError {
        match e {
            DbError::Cancelled { examined, matched } => RouteError::Deadline { examined, matched },
            other => RouteError::Store(other),
        }
    }
}

impl From<UnknownName> for RouteError {
    fn from(e: UnknownName) -> RouteError {
        RouteError::BadQuery(e.to_string())
    }
}

type RouteResult = Result<Response, RouteError>;

impl Explorer {
    /// Build the service over a shared store. Cache counters and
    /// request metrics register with the recorder's registry.
    #[must_use]
    pub fn new(
        store: Arc<RwLock<KnowledgeStore>>,
        cache_bytes: usize,
        recorder: Arc<Recorder>,
    ) -> Explorer {
        let metrics = recorder.metrics();
        Explorer {
            store,
            cache: Arc::new(QueryCache::new(cache_bytes, &metrics)),
            requests: metrics.counter("explorerd.requests"),
            errors: metrics.counter("explorerd.errors"),
            deadline_exceeded: metrics.counter("http.deadline_exceeded"),
            recorder,
        }
    }

    /// The shared store handle.
    #[must_use]
    pub fn store(&self) -> Arc<RwLock<KnowledgeStore>> {
        Arc::clone(&self.store)
    }

    /// Cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Handle one parsed request under `deadline`: route, render, record.
    /// Pass [`DeadlineToken::unbounded()`] for no budget. Store query
    /// scans poll the token; when the budget runs out mid-scan the
    /// request answers `504` with partial-progress counters instead of
    /// pinning the worker, and `http.deadline_exceeded` ticks. Never
    /// panics; failures become `4xx`/`5xx` responses.
    pub fn handle(&self, req: &Request, deadline: &DeadlineToken) -> Response {
        self.requests.inc();
        let span =
            self.recorder
                .start_span("http.request", None, Some("analysis"), Some("explorerd"));
        let response = match self.route(req, deadline) {
            Ok(response) => response,
            Err(RouteError::NotFound(what)) => Response::error(404, &what),
            Err(RouteError::BadQuery(what)) => Response::error(400, &what),
            Err(RouteError::Deadline { examined, matched }) => {
                self.deadline_exceeded.inc();
                let body = Json::obj(vec![
                    ("error", Json::from("deadline exceeded")),
                    ("rows_examined", Json::from(examined as u64)),
                    ("rows_matched", Json::from(matched as u64)),
                ]);
                let mut resp = Response::json(&body);
                resp.status = 504;
                resp
            }
            Err(RouteError::Store(e)) => {
                self.errors.inc();
                Response::error(500, &format!("store error: {e}"))
            }
        };
        let status = response.status;
        self.recorder.log(
            Some(span.id),
            &format!("{} {} -> {status}", req.method, req.path),
        );
        let ns = self.recorder.end_span(
            &span,
            if status < 500 {
                SpanStatus::Ok
            } else {
                SpanStatus::Failed
            },
        );
        self.recorder.observe("explorerd.request_ns", ns as f64);
        self.recorder
            .counter(&format!("explorerd.status.{}xx", status / 100))
            .inc();
        response
    }

    fn route(&self, req: &Request, deadline: &DeadlineToken) -> RouteResult {
        if req.method != "GET" {
            let mut resp = Response::error(405, "only GET is supported");
            resp.headers.push(("Allow", "GET".to_owned()));
            return Ok(resp);
        }
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match segments.as_slice() {
            [] => {
                let deadline = deadline.clone();
                self.cached_html(req, req.normalized(), move |store, out| {
                    index_page(store, &deadline, out)
                })
            }
            ["metrics"] => {
                self.export_health_gauges();
                Ok(Response::json(&self.recorder.metrics().to_json()))
            }
            ["healthz"] => self.healthz(),
            ["api", "runs"] => self.api_runs(req, deadline),
            ["api", "runs", id] => {
                let id = parse_run_id(id)?;
                self.cached_json(req, req.normalized(), move |store| {
                    let k = load_benchmark(store, id)?;
                    Ok(k.to_json())
                })
            }
            ["api", "io500", id] => {
                let id = parse_run_id(id)?;
                self.cached_json(req, req.normalized(), move |store| {
                    let k = store
                        .load_io500(id)?
                        .ok_or_else(|| RouteError::NotFound(format!("no io500 run {id}")))?;
                    Ok(k.to_json())
                })
            }
            ["api", "compare"] => {
                let spec = CompareSpec::from_request(req)?;
                let key = spec.cache_key("/api/compare");
                self.cached(req, &key, "application/json", |store| {
                    let mut body = Vec::new();
                    write_compare(&spec, &spec.points(store, deadline)?, &mut body);
                    Ok(body)
                })
            }
            ["api", "boxplot"] => {
                let op = req.param("op").unwrap_or("write");
                let key = format!("/api/boxplot:op={op}");
                self.cached(req, &key, "application/json", |store| {
                    let series = store.boxplot_series(&RunPredicate::True, op, deadline)?;
                    let mut body = Vec::new();
                    write_boxplot(op, &series, &mut body);
                    Ok(body)
                })
            }
            ["api", "agg"] => {
                let spec = AggSpec::from_request(req)?;
                let deadline = deadline.clone();
                self.cached_json(req, spec.cache_key("/api/agg"), move |store| {
                    let result = store.aggregate(&spec.query, &deadline)?;
                    Ok(agg_json(&spec, &result))
                })
            }
            ["api", "dist"] => {
                let spec = AggSpec::from_request(req)?;
                let deadline = deadline.clone();
                self.cached_json(req, spec.cache_key("/api/dist"), move |store| {
                    let result = store.aggregate(&spec.query, &deadline)?;
                    Ok(dist_json(&spec, &result))
                })
            }
            ["api", "corr"] => {
                let spec = AggSpec::from_request(req)?;
                let deadline = deadline.clone();
                self.cached_json(req, spec.cache_key("/api/corr"), move |store| {
                    let result = store.aggregate(&spec.query, &deadline)?;
                    corr_json(&result)
                })
            }
            ["dist"] => {
                let spec = AggSpec::from_request(req)?;
                let deadline = deadline.clone();
                self.cached_html(req, spec.cache_key("/dist"), move |store, out| {
                    dist_page(store, &spec, &deadline, out)
                })
            }
            ["corr"] => {
                let spec = AggSpec::from_request(req)?;
                let deadline = deadline.clone();
                self.cached_html(req, spec.cache_key("/corr"), move |store, out| {
                    corr_page(store, &spec, &deadline, out)
                })
            }
            ["runs", id] => {
                let id = parse_run_id(id)?;
                self.cached_html(req, req.normalized(), move |store, out| {
                    run_page(store, id, out)
                })
            }
            ["io500", id] => {
                let id = parse_run_id(id)?;
                self.cached_html(req, req.normalized(), move |store, out| {
                    io500_page(store, id, out)
                })
            }
            ["compare"] => {
                let spec = CompareSpec::from_request(req)?;
                let deadline = deadline.clone();
                self.cached_html(req, spec.cache_key("/compare"), move |store, out| {
                    compare_page(store, &spec, &deadline, out)
                })
            }
            ["boxplot"] => {
                let op = req.param("op").unwrap_or("write").to_owned();
                let deadline = deadline.clone();
                self.cached_html(req, format!("/boxplot:op={op}"), move |store, out| {
                    boxplot_page(store, &op, &deadline, out)
                })
            }
            _ => Err(RouteError::NotFound(format!(
                "no route for {} (try /, /api/runs, /api/compare, /api/boxplot, /api/agg, \
                 /api/dist, /api/corr, /metrics, /healthz)",
                req.path
            ))),
        }
    }

    /// `GET /healthz` — liveness + store health, never cached. Always
    /// answers 200: a degraded store still serves reads, and the body
    /// says so (`status: "degraded"`, `read_only: true`) so probes and
    /// load balancers can distinguish "up but wounded" from "down".
    fn healthz(&self) -> RouteResult {
        let store = self.store.read().map_err(|_| poisoned())?;
        let health = store.health();
        let mut fields = vec![
            ("status", Json::from(health.status())),
            ("read_only", Json::from(store.is_read_only())),
            ("generation", Json::from(store.generation())),
        ];
        if let Some(detail) = health.detail() {
            fields.push(("detail", Json::from(detail)));
        }
        Ok(Response::json(&Json::obj(fields)))
    }

    /// Mirror `/healthz` into gauges so `/metrics` alone tells the whole
    /// story: `store.health.{ok,degraded}` are a one-hot
    /// encoding of the store's health, and `store.read_only` flags
    /// read-only (degraded) operation.
    fn export_health_gauges(&self) {
        let Ok(store) = self.store.read() else {
            return;
        };
        let status = store.health().status();
        let metrics = self.recorder.metrics();
        metrics
            .gauge("store.health.ok")
            .set(u64::from(status == "ok"));
        metrics
            .gauge("store.health.degraded")
            .set(u64::from(status == "degraded"));
        metrics
            .gauge("store.read_only")
            .set(u64::from(store.is_read_only()));
    }

    /// Is the store currently degraded? The server's circuit breaker
    /// fast-fails expensive endpoints while this is true.
    #[must_use]
    pub fn store_degraded(&self) -> bool {
        self.store
            .read()
            .map(|store| store.health().status() == "degraded")
            .unwrap_or(true)
    }

    /// Pin a snapshot of the store and release the read lock
    /// immediately: rendering then runs entirely unlocked against the
    /// pinned generation, so a slow page never delays ingest (and
    /// concurrent saves or compaction never tear a response).
    fn pin(&self) -> Result<Snapshot, RouteError> {
        let store = self.store.read().map_err(|_| poisoned())?;
        Ok(store.snapshot())
    }

    /// The preamble shared by every cacheable endpoint: pin (O(1) — a
    /// few refcount bumps), derive the strong validator for `key` from
    /// the pinned generation, answer `304` if the client already holds
    /// the body, or serve it straight from the cache. On a miss the
    /// caller gets the pin and the validator back and renders from
    /// exactly the generation the validator names. `/metrics` and
    /// `/healthz` never come through here.
    fn fast_path(
        &self,
        req: &Request,
        key: &str,
        content_type: &'static str,
    ) -> Result<Result<Response, (Snapshot, String)>, RouteError> {
        let snapshot = self.pin()?;
        let tag = cache::etag(snapshot.generation(), key);
        if req.if_none_match.as_deref() == Some(tag.as_str()) {
            self.cache.note_not_modified();
            return Ok(Ok(Response::not_modified(content_type, tag)));
        }
        if let Some((cached_type, body)) = self.cache.get(key, snapshot.generation()) {
            let mut resp = Response::full(cached_type, body);
            resp.headers.push(("ETag", tag));
            return Ok(Ok(resp));
        }
        Ok(Err((snapshot, tag)))
    }

    /// Read-through endpoint: serve from cache or render the whole body
    /// against the pinned [`Snapshot`] — outside the store lock — and
    /// fill the cache.
    fn cached(
        &self,
        req: &Request,
        key: &str,
        content_type: &'static str,
        render: impl FnOnce(&Snapshot) -> Result<Vec<u8>, RouteError>,
    ) -> RouteResult {
        let (snapshot, tag) = match self.fast_path(req, key, content_type)? {
            Ok(resp) => return Ok(resp),
            Err(miss) => miss,
        };
        let body = Arc::new(render(&snapshot)?);
        self.cache
            .put(key, snapshot.generation(), content_type, Arc::clone(&body));
        let mut resp = Response::full(content_type, body);
        resp.headers.push(("ETag", tag));
        Ok(resp)
    }

    /// Read-through JSON endpoint. Typed-query endpoints pass a
    /// canonical key derived from the parsed query, so two request
    /// strings that parse identically share one entry (and one ETag).
    fn cached_json(
        &self,
        req: &Request,
        key: String,
        render: impl FnOnce(&Snapshot) -> Result<Json, RouteError>,
    ) -> RouteResult {
        self.cached(req, &key, "application/json", |snapshot| {
            Ok(render(snapshot)?.to_compact().into_bytes())
        })
    }

    /// Read-through HTML endpoint: snapshot-then-render, unlocked.
    fn cached_html(
        &self,
        req: &Request,
        key: String,
        render: impl FnOnce(&Snapshot, &mut String) -> Result<(), RouteError>,
    ) -> RouteResult {
        self.cached(req, &key, "text/html; charset=utf-8", |snapshot| {
            let mut page = String::new();
            render(snapshot, &mut page)?;
            Ok(page.into_bytes())
        })
    }

    /// `GET /api/runs`: the one endpoint whose body grows with the
    /// store, so a cache miss *streams* — the query is selected once,
    /// here, inside the handler, so query and deadline errors (`400`,
    /// `504`) surface as proper statuses before any body byte is
    /// committed; [`RunsStream`] then encodes bounded pages of the
    /// matched rows as the socket drains, teeing the bytes into the
    /// cache.
    fn api_runs(&self, req: &Request, deadline: &DeadlineToken) -> RouteResult {
        let query = runs_query(req)?;
        // The cache keys on the *typed* query: `?api=X&sort=id` and
        // `?sort=id&api=X` (or an explicit `order=asc`) land on the
        // same entry.
        let key = format!("/api/runs:{}", query.cache_key());
        let (snapshot, tag) = match self.fast_path(req, &key, "application/json")? {
            Ok(resp) => return Ok(resp),
            Err(miss) => miss,
        };
        let stream = RunsStream {
            rows: snapshot.select(&query, deadline)?,
            generation: snapshot.generation(),
            cache: Arc::clone(&self.cache),
            key,
            started: false,
            copy: Some(Vec::new()),
        };
        let mut resp = Response::stream("application/json", Box::new(stream));
        resp.headers.push(("ETag", tag));
        Ok(resp)
    }
}

/// Rows per page encoded between socket writes: large enough to
/// amortize the write, small enough that a 100k-row listing never holds
/// more than one page of rendered rows in memory.
const PAGE_ROWS: usize = 512;

/// The `/api/runs` body source: serializes the JSON array one bounded
/// page at a time from a [`RunCursor`] over the pinned snapshot's
/// blocks, so memory stays one rendered page plus the cursor's ≈24
/// bytes per matched row no matter how many rows match. Bytes are teed
/// into the cache while the copy still fits the cache budget; the entry
/// is committed only when the whole body has been produced, so the
/// cache never holds a torn response.
struct RunsStream {
    rows: RunCursor,
    /// The generation the cursor was selected at, for the cache entry.
    generation: u64,
    cache: Arc<QueryCache>,
    key: String,
    /// Has the array been opened (so later rows lead with a comma)?
    started: bool,
    /// The cache tee; dropped once the body outgrows the cache budget.
    copy: Option<Vec<u8>>,
}

impl BodySource for RunsStream {
    fn next_chunk(&mut self, out: &mut Vec<u8>) -> bool {
        let start = out.len();
        for row in self.rows.next_page(PAGE_ROWS) {
            out.push(if self.started { b',' } else { b'[' });
            self.started = true;
            encode_summary(row, out);
        }
        let more = self.rows.remaining() > 0;
        if !more {
            if !self.started {
                out.push(b'[');
            }
            out.push(b']');
        }
        let chunk = &out[start..];
        if let Some(copy) = self.copy.as_mut() {
            if copy.len() + chunk.len() > self.cache.budget() {
                // The full body can never be cached; stop copying.
                self.copy = None;
            } else {
                copy.extend_from_slice(chunk);
            }
        }
        if !more {
            if let Some(copy) = self.copy.take() {
                self.cache.put(
                    &self.key,
                    self.generation,
                    "application/json",
                    Arc::new(copy),
                );
            }
        }
        more
    }
}

fn poisoned() -> RouteError {
    RouteError::Store(DbError::Corrupt("store lock poisoned".to_owned()))
}

fn parse_run_id(raw: &str) -> Result<u64, RouteError> {
    raw.parse()
        .map_err(|_| RouteError::BadQuery(format!("`{raw}` is not a run id")))
}

fn load_benchmark(store: &Snapshot, id: u64) -> Result<Knowledge, RouteError> {
    store
        .load_knowledge(id)?
        .ok_or_else(|| RouteError::NotFound(format!("no benchmark run {id}")))
}

// ---------------------------------------------------------------- /api/runs

/// The `/api/runs` query: the run filter its parameters state, then
/// `sort`, `order`, `offset` and `limit` — the canonical cache key and
/// the one selection the stream pages through.
fn runs_query(req: &Request) -> Result<Query, RouteError> {
    let filter = RunFilter {
        kind: param(req, "kind")?,
        api: param(req, "api")?,
        command: param(req, "command")?,
        op: param(req, "op")?,
        min_tasks: param(req, "min_tasks")?,
        max_tasks: param(req, "max_tasks")?,
        min_bw: param(req, "min_bw")?,
        max_bw: param(req, "max_bw")?,
        ids: None,
    };
    let mut query = Query::new(filter.predicate())
        .order_by(param(req, "sort")?.unwrap_or(RunOrder::Id))
        .offset(param(req, "offset")?.unwrap_or(0));
    query.descending = match req.param("order").unwrap_or("asc") {
        "asc" => false,
        "desc" => true,
        other => {
            return Err(RouteError::BadQuery(format!(
                "unknown order `{other}` (expected asc|desc)"
            )))
        }
    };
    query.limit = param(req, "limit")?;
    Ok(query)
}

/// The parameter `name` parsed as a `T`, `None` when absent; a value
/// that does not parse answers `400` naming it.
fn param<T: FromStr>(req: &Request, name: &str) -> Result<Option<T>, RouteError>
where
    T::Err: fmt::Display,
{
    req.param(name)
        .map(|raw| {
            raw.parse()
                .map_err(|e| RouteError::BadQuery(format!("`{name}={raw}`: {e}")))
        })
        .transpose()
}

/// One `/api/runs` row as compact JSON, encoded straight onto `out`.
/// Fields go in ascending key order — the bytes a `Json::Obj` of the
/// same fields serializes to (the tests hold it to that model).
fn encode_summary(row: &RunSummary, out: &mut Vec<u8>) {
    let mean_mib = |op: &str| row.op(op).map(|s| s.mean_mib);
    let mut obj = ObjectWriter::new(out);
    match row.kind {
        RunKind::Benchmark => {
            obj.string("api", &row.api);
            obj.number("block_size", row.block_size as f64);
            obj.string("command", &row.command);
            obj.number("id", row.id as f64);
            obj.string("kind", "benchmark");
            obj.number("read_mean_mib", mean_mib("read"));
            obj.number("tasks", f64::from(row.tasks));
            obj.number("transfer_size", row.transfer_size as f64);
            obj.number("warnings", row.warning_count as f64);
            obj.number("write_mean_mib", mean_mib("write"));
        }
        RunKind::Io500 => {
            obj.number("bw_score", row.bw_score);
            obj.number("id", row.id as f64);
            obj.string("kind", "io500");
            obj.number("md_score", row.md_score);
            obj.number("tasks", f64::from(row.tasks));
            obj.number("total_score", row.total_score);
            obj.number("warnings", row.warning_count as f64);
        }
    }
    obj.finish();
}

// -------------------------------------------------------------- /api/compare

/// Parsed `/api/compare` parameters: axes, operation, and a typed
/// predicate pushed down into the query engine.
struct CompareSpec {
    x: OptionAxis,
    y: MetricAxis,
    op: String,
    predicate: RunPredicate,
}

impl CompareSpec {
    fn from_request(req: &Request) -> Result<CompareSpec, RouteError> {
        let op = req.param("op").unwrap_or("write").to_owned();
        let x = OptionAxis::parse(req.param("x").unwrap_or("transfer_size"))?;
        let y = match req.param("y").unwrap_or("mean_bw") {
            "mean_bw" => MetricAxis::MeanBandwidth(op.clone()),
            "max_bw" => MetricAxis::MaxBandwidth(op.clone()),
            "mean_ops" => MetricAxis::MeanOps(op.clone()),
            other => {
                return Err(RouteError::BadQuery(format!(
                    "unknown y axis `{other}` (expected mean_bw|max_bw|mean_ops)"
                )))
            }
        };
        let ids = req
            .param("ids")
            .map(|raw| {
                raw.split(',')
                    .filter(|p| !p.is_empty())
                    .map(|piece| {
                        piece.parse().map_err(|_| {
                            RouteError::BadQuery(format!("`{piece}` in ids is not a run id"))
                        })
                    })
                    .collect::<Result<Vec<u64>, RouteError>>()
            })
            .transpose()?;
        let filter = RunFilter {
            kind: Some(RunKind::Benchmark),
            ids,
            api: param(req, "api")?,
            command: param(req, "command")?,
            ..RunFilter::default()
        };
        Ok(CompareSpec {
            x,
            y,
            op,
            predicate: filter.predicate(),
        })
    }

    /// Canonical cache key: route prefix + typed predicate + axes.
    fn cache_key(&self, route: &str) -> String {
        format!(
            "{route}:{}|x={:?}|y={:?}",
            Query::new(self.predicate.clone()).cache_key(),
            self.x,
            self.y,
        )
    }

    fn points(
        &self,
        store: &Snapshot,
        deadline: &DeadlineToken,
    ) -> Result<Vec<ComparisonPoint>, RouteError> {
        let rows = store.query_summaries(&Query::new(self.predicate.clone()), deadline)?;
        Ok(compare(&rows, self.x, &self.y))
    }
}

/// The `/api/compare` body, written field by field: the bytes of the
/// `Json::obj(..).to_compact()` tree the tests keep as its model, keys
/// in ascending order.
fn write_compare(spec: &CompareSpec, points: &[ComparisonPoint], out: &mut Vec<u8>) {
    let mut body = ObjectWriter::new(out);
    body.string("operation", &spec.op);
    body.objects("points", points, |point, p| {
        point.string("command", &p.command);
        point.number("id", p.knowledge_id.map(|id| id as f64));
        point.number("x", p.x);
        point.number("y", p.y);
    });
    body.string("x_label", spec.x.label());
    body.string("y_label", &spec.y.label());
    body.finish();
}

// -------------------------------------------------------------- /api/boxplot

/// The `/api/boxplot` body — one box per run with values (the
/// [`overview`] of `series`), written field by field like
/// [`write_compare`].
fn write_boxplot(op: &str, series: &[(String, Vec<f64>)], out: &mut Vec<u8>) {
    let mut body = ObjectWriter::new(out);
    let runs = series.iter().filter(|(_, values)| !values.is_empty());
    body.objects("boxes", runs, |run, (label, values)| {
        let d = Describe::of(values);
        run.string("label", label);
        run.number("max", d.max);
        run.number("mean", d.mean);
        run.number("median", d.median);
        run.number("min", d.min);
        run.number("n", d.n as f64);
        run.number("q1", d.q1);
        run.number("q3", d.q3);
    });
    body.string("operation", op);
    body.finish();
}

// ------------------------------------------------- /api/agg /api/dist /api/corr

/// Parsed corpus-analytics parameters, shared by `/api/agg`,
/// `/api/dist`, `/api/corr` and their HTML twins: a group-by dimension,
/// a metric factor, optional correlation factors, and an optional
/// `kind` filter — all lowered onto one [`AggregateQuery`] the store
/// evaluates without deserializing any knowledge.
struct AggSpec {
    group: GroupBy,
    factor: Factor,
    query: AggregateQuery,
}

impl AggSpec {
    fn from_request(req: &Request) -> Result<AggSpec, RouteError> {
        let group = GroupBy::parse(req.param("group").unwrap_or("api"))?;
        let factor = Factor::parse(req.param("factor").unwrap_or("bw"))?;
        let filter = RunFilter {
            kind: param(req, "kind")?,
            ..RunFilter::default()
        };
        let mut query = AggregateQuery::new(group, factor).with_predicate(filter.predicate());
        // `/api/corr` defaults to the IO500 score factors; the others
        // correlate only on request.
        let correlate_raw = req.param("correlate").or(match req.path.as_str() {
            "/api/corr" | "/corr" => Some("bw_score,md_score,total_score,tasks"),
            _ => None,
        });
        if let Some(raw) = correlate_raw {
            let factors = raw
                .split(',')
                .filter(|n| !n.is_empty())
                .map(|name| Factor::parse(name.trim()))
                .collect::<Result<Vec<Factor>, UnknownName>>()?;
            query = query.with_correlation(&factors);
        }
        Ok(AggSpec {
            group,
            factor,
            query,
        })
    }

    /// Canonical cache key: route prefix + the typed aggregate query.
    fn cache_key(&self, route: &str) -> String {
        format!("{route}:{}", self.query.cache_key())
    }
}

/// Human label for a log2 histogram bin (`i32::MIN` is the ≤0 bin).
fn bin_label(bin: i32) -> String {
    if bin == i32::MIN {
        "<=0".to_owned()
    } else {
        format!("2^{bin}")
    }
}

fn percentiles_json(group: &iokc_store::GroupStats) -> Json {
    Json::Arr(
        group
            .percentiles
            .iter()
            .map(|(q, v)| Json::obj(vec![("q", Json::from(*q)), ("value", Json::from(*v))]))
            .collect(),
    )
}

fn agg_json(spec: &AggSpec, result: &AggregateResult) -> Json {
    let mut fields = vec![
        ("group_by", Json::from(spec.group.as_str())),
        ("factor", Json::from(spec.factor.as_str())),
        ("rows_aggregated", Json::from(result.rows_aggregated)),
        (
            "groups",
            Json::Arr(
                result
                    .groups
                    .iter()
                    .map(|g| {
                        Json::obj(vec![
                            ("key", Json::from(g.key.as_str())),
                            ("count", Json::from(g.count)),
                            ("min", Json::from(g.min)),
                            ("max", Json::from(g.max)),
                            ("mean", Json::from(g.mean)),
                            ("stddev", Json::from(g.stddev)),
                            ("percentiles", percentiles_json(g)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(corr) = &result.correlation {
        fields.push(("correlation", corr_matrix_json(corr)));
    }
    Json::obj(fields)
}

fn dist_json(spec: &AggSpec, result: &AggregateResult) -> Json {
    Json::obj(vec![
        ("group_by", Json::from(spec.group.as_str())),
        ("factor", Json::from(spec.factor.as_str())),
        ("rows_aggregated", Json::from(result.rows_aggregated)),
        (
            "groups",
            Json::Arr(
                result
                    .groups
                    .iter()
                    .map(|g| {
                        Json::obj(vec![
                            ("key", Json::from(g.key.as_str())),
                            ("count", Json::from(g.count)),
                            ("percentiles", percentiles_json(g)),
                            (
                                "histogram",
                                Json::Arr(
                                    g.histogram
                                        .iter()
                                        .map(|(bin, count)| {
                                            Json::obj(vec![
                                                ("bin", Json::from(bin_label(*bin))),
                                                ("count", Json::from(*count)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn corr_matrix_json(corr: &iokc_store::CorrelationMatrix) -> Json {
    Json::obj(vec![
        (
            "factors",
            Json::Arr(
                corr.factors
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
        (
            "matrix",
            Json::Arr(
                corr.matrix
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|r| Json::from(*r)).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn corr_json(result: &AggregateResult) -> Result<Json, RouteError> {
    let corr = result
        .correlation
        .as_ref()
        .ok_or_else(|| RouteError::NotFound("no runs to correlate".to_owned()))?;
    Ok(Json::obj(vec![
        ("rows_aggregated", Json::from(result.rows_aggregated)),
        ("correlation", corr_matrix_json(corr)),
    ]))
}

// ----------------------------------------------------------------- HTML pages

fn page_open(title: &str, out: &mut String) {
    out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>");
    out.push_str(&escape_html(title));
    out.push_str(
        "</title><style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}\
         td,th{border:1px solid #ccc;padding:4px 8px}</style></head><body>\n",
    );
    out.push_str(&format!("<h1>{}</h1>\n", escape_html(title)));
}

fn page_close(out: &mut String) {
    out.push_str("</body></html>\n");
}

fn index_page(
    store: &Snapshot,
    deadline: &DeadlineToken,
    out: &mut String,
) -> Result<(), RouteError> {
    // The listing needs only the projection rows, never the full join.
    let rows = store.query_summaries(&Query::all(), deadline)?;
    page_open("iokc knowledge explorer", out);
    out.push_str(
        "<p><a href=\"/api/runs\">/api/runs</a> · <a href=\"/compare\">/compare</a> · \
         <a href=\"/boxplot\">/boxplot</a> · <a href=\"/dist\">/dist</a> · \
         <a href=\"/corr\">/corr</a> · <a href=\"/metrics\">/metrics</a></p>\n",
    );
    out.push_str("<table><tr><th>kind</th><th>id</th><th>summary</th></tr>\n");
    for row in &rows {
        let id = row.id;
        match row.kind {
            RunKind::Benchmark => {
                out.push_str(&format!(
                    "<tr><td>benchmark</td><td><a href=\"/runs/{id}\">{id}</a></td><td>{}</td></tr>\n",
                    escape_html(&row.command)
                ));
            }
            RunKind::Io500 => {
                out.push_str(&format!(
                    "<tr><td>io500</td><td><a href=\"/io500/{id}\">{id}</a></td>\
                     <td>tasks {} | total score {:.4}</td></tr>\n",
                    row.tasks, row.total_score
                ));
            }
        }
    }
    out.push_str("</table>\n");
    page_close(out);
    Ok(())
}

fn run_page(store: &Snapshot, id: u64, out: &mut String) -> Result<(), RouteError> {
    let k = load_benchmark(store, id)?;
    page_open(&format!("run {id}"), out);
    let mut text = String::new();
    let _ = write_knowledge(&k, &mut text);
    out.push_str("<pre>");
    out.push_str(&escape_html(&text));
    out.push_str("</pre>\n");
    // Per-iteration bandwidth, one series per operation (Fig. 5 layout).
    let mut operations: Vec<&str> = Vec::new();
    for r in &k.results {
        if !operations.contains(&r.operation.as_str()) {
            operations.push(r.operation.as_str());
        }
    }
    let max_iter = k.results.iter().map(|r| r.iteration).max().unwrap_or(0);
    let categories: Vec<String> = (0..=max_iter).map(|i| format!("iter {i}")).collect();
    let series: Vec<Series> = operations
        .iter()
        .map(|op| Series {
            label: (*op).to_owned(),
            points: k
                .results
                .iter()
                .filter(|r| r.operation == **op)
                .map(|r| (f64::from(r.iteration), r.bw_mib))
                .collect(),
        })
        .collect();
    if !series.is_empty() {
        let _ = write_bar_chart(
            &categories,
            &series,
            &ChartOptions {
                title: format!("per-iteration bandwidth — run {id}"),
                x_label: "iteration".into(),
                y_label: "MiB/s".into(),
                ..ChartOptions::default()
            },
            out,
        );
    }
    page_close(out);
    Ok(())
}

fn io500_page(store: &Snapshot, id: u64, out: &mut String) -> Result<(), RouteError> {
    let k = store
        .load_io500(id)?
        .ok_or_else(|| RouteError::NotFound(format!("no io500 run {id}")))?;
    page_open(&format!("io500 run {id}"), out);
    let mut text = String::new();
    let _ = write_io500(&k, &mut text);
    out.push_str("<pre>");
    out.push_str(&escape_html(&text));
    out.push_str("</pre>\n");
    page_close(out);
    Ok(())
}

fn compare_page(
    store: &Snapshot,
    spec: &CompareSpec,
    deadline: &DeadlineToken,
    out: &mut String,
) -> Result<(), RouteError> {
    let points = spec.points(store, deadline)?;
    page_open("comparison", out);
    if points.is_empty() {
        out.push_str("<p>no comparable knowledge for this selection</p>\n");
    } else {
        let series = [Series {
            label: spec.y.label(),
            points: points.iter().map(|p| (p.x, p.y)).collect(),
        }];
        let _ = write_line_chart(
            &series,
            &ChartOptions {
                title: "comparison".into(),
                x_label: spec.x.label().to_owned(),
                y_label: spec.y.label(),
                ..ChartOptions::default()
            },
            out,
        );
    }
    page_close(out);
    Ok(())
}

/// `/dist` — the distribution page: per-group log2 histograms of the
/// selected factor as a grouped bar chart, plus the percentile table.
/// Everything is computed by the store's aggregation pushdown against
/// one pinned snapshot.
fn dist_page(
    store: &Snapshot,
    spec: &AggSpec,
    deadline: &DeadlineToken,
    out: &mut String,
) -> Result<(), RouteError> {
    let result = store.aggregate(&spec.query, deadline)?;
    page_open(
        &format!(
            "distribution — {} by {}",
            spec.factor.as_str(),
            spec.group.as_str()
        ),
        out,
    );
    if result.groups.is_empty() {
        out.push_str("<p>no matching runs</p>\n");
        page_close(out);
        return Ok(());
    }
    // Union of the populated bins across groups keeps the x axis shared.
    let mut bins: Vec<i32> = result
        .groups
        .iter()
        .flat_map(|g| g.histogram.iter().map(|(bin, _)| *bin))
        .collect();
    bins.sort_unstable();
    bins.dedup();
    let categories: Vec<String> = bins.iter().map(|b| bin_label(*b)).collect();
    let series: Vec<Series> = result
        .groups
        .iter()
        .map(|g| Series {
            label: g.key.clone(),
            points: bins
                .iter()
                .enumerate()
                .map(|(i, bin)| {
                    let count = g
                        .histogram
                        .iter()
                        .find(|(b, _)| b == bin)
                        .map_or(0.0, |(_, c)| *c as f64);
                    (i as f64, count)
                })
                .collect(),
        })
        .collect();
    let _ = write_bar_chart(
        &categories,
        &series,
        &ChartOptions {
            title: format!("{} distribution (log2 bins)", spec.factor.as_str()),
            x_label: spec.factor.as_str().to_owned(),
            y_label: "runs".into(),
            ..ChartOptions::default()
        },
        out,
    );
    out.push_str(
        "<table><tr><th>group</th><th>count</th><th>min</th><th>p50</th>\
         <th>mean</th><th>p99</th><th>max</th><th>stddev</th></tr>\n",
    );
    for g in &result.groups {
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{:.3}</td><td>{:.3}</td>\
             <td>{:.3}</td><td>{:.3}</td><td>{:.3}</td><td>{:.3}</td></tr>\n",
            escape_html(&g.key),
            g.count,
            g.min,
            g.percentile(0.5).unwrap_or(f64::NAN),
            g.mean,
            g.percentile(0.99).unwrap_or(f64::NAN),
            g.max,
            g.stddev,
        ));
    }
    out.push_str("</table>\n");
    page_close(out);
    Ok(())
}

/// `/corr` — the pairwise correlation matrix of the requested factors
/// as an SVG heat map.
fn corr_page(
    store: &Snapshot,
    spec: &AggSpec,
    deadline: &DeadlineToken,
    out: &mut String,
) -> Result<(), RouteError> {
    let result = store.aggregate(&spec.query, deadline)?;
    page_open("factor correlation", out);
    match &result.correlation {
        None => out.push_str("<p>no runs to correlate</p>\n"),
        Some(corr) => {
            let _ = write_heat_map(
                &corr.matrix,
                &corr.factors,
                &ChartOptions {
                    title: format!("pairwise Pearson r over {} run(s)", result.rows_aggregated),
                    ..ChartOptions::default()
                },
                out,
            );
            out.push_str(&format!(
                "<p>factors: {}</p>\n",
                escape_html(&corr.factors.join(", "))
            ));
        }
    }
    page_close(out);
    Ok(())
}

fn boxplot_page(
    store: &Snapshot,
    op: &str,
    deadline: &DeadlineToken,
    out: &mut String,
) -> Result<(), RouteError> {
    let boxes = overview(&store.boxplot_series(&RunPredicate::True, op, deadline)?);
    page_open(&format!("throughput overview — {op}"), out);
    if boxes.is_empty() {
        out.push_str("<p>no runs with this operation</p>\n");
    } else {
        let _ = write_box_plot(
            &boxes,
            &ChartOptions {
                title: format!("{op} bandwidth distribution"),
                y_label: "MiB/s".into(),
                ..ChartOptions::default()
            },
            out,
        );
    }
    page_close(out);
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_core::model::{Io500Knowledge, IterationResult, KnowledgeSource, OperationSummary};

    /// The `/api/compare` body as a `Json` tree: the model
    /// [`write_compare`] is held to byte for byte.
    fn compare_tree(spec: &CompareSpec, points: &[ComparisonPoint]) -> Json {
        Json::obj(vec![
            ("x_label", Json::from(spec.x.label())),
            ("y_label", Json::from(spec.y.label())),
            ("operation", Json::from(spec.op.as_str())),
            (
                "points",
                Json::Arr(
                    points
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("id", p.knowledge_id.map_or(Json::Null, Json::from)),
                                ("command", Json::from(p.command.as_str())),
                                ("x", Json::from(p.x)),
                                ("y", Json::from(p.y)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The `/api/boxplot` body as a `Json` tree over [`overview`]: the
    /// model [`write_boxplot`] is held to byte for byte.
    fn boxplot_tree(op: &str, series: &[(String, Vec<f64>)]) -> Json {
        Json::obj(vec![
            ("operation", Json::from(op)),
            (
                "boxes",
                Json::Arr(
                    overview(series)
                        .iter()
                        .map(|(label, d)| {
                            Json::obj(vec![
                                ("label", Json::from(label.as_str())),
                                ("n", Json::from(d.n)),
                                ("min", Json::from(d.min)),
                                ("q1", Json::from(d.q1)),
                                ("median", Json::from(d.median)),
                                ("q3", Json::from(d.q3)),
                                ("max", Json::from(d.max)),
                                ("mean", Json::from(d.mean)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn assert_boxplot_matches(op: &str, series: &[(String, Vec<f64>)]) {
        let mut written = Vec::new();
        write_boxplot(op, series, &mut written);
        assert_eq!(
            String::from_utf8(written).unwrap(),
            boxplot_tree(op, series).to_compact()
        );
    }

    fn assert_compare_matches(spec: &CompareSpec, points: &[ComparisonPoint]) {
        let mut written = Vec::new();
        write_compare(spec, points, &mut written);
        assert_eq!(
            String::from_utf8(written).unwrap(),
            compare_tree(spec, points).to_compact()
        );
    }

    fn request(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_owned(),
            path: path.to_owned(),
            query: query
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            keep_alive: true,
            if_none_match: None,
        }
    }

    /// The compare requests the writer is checked on: the default
    /// view, an id list, and other axes over another operation.
    fn compare_specs() -> Vec<CompareSpec> {
        [
            request("/api/compare", &[]),
            request("/api/compare", &[("ids", "1,2,3")]),
            request(
                "/api/compare",
                &[("x", "tasks"), ("y", "max_bw"), ("op", "read")],
            ),
        ]
        .iter()
        .map(|req| CompareSpec::from_request(req).unwrap())
        .collect()
    }

    /// A benchmark run with `bw` per iteration of each of `ops`.
    fn run(command: &str, tasks: u32, ops: &[&str], bw: &[f64]) -> Knowledge {
        let mut k = Knowledge::new(KnowledgeSource::Ior, command);
        k.pattern.api = "POSIX".to_owned();
        k.pattern.tasks = tasks;
        k.pattern.transfer_size = u64::from(tasks) << 16;
        for op in ops {
            k.summaries.push(OperationSummary {
                operation: (*op).to_owned(),
                api: "POSIX".to_owned(),
                max_mib: bw.iter().copied().fold(0.0, f64::max),
                min_mib: bw.iter().copied().fold(f64::MAX, f64::min),
                mean_mib: bw.iter().sum::<f64>() / bw.len() as f64,
                stddev_mib: 0.5,
                mean_ops: 7.25,
                iterations: bw.len() as u32,
            });
            for (iteration, bw_mib) in bw.iter().enumerate() {
                k.results.push(IterationResult {
                    operation: (*op).to_owned(),
                    iteration: iteration as u32,
                    bw_mib: *bw_mib,
                    ops: 10,
                    ops_per_sec: 5.0,
                    latency_s: 0.001,
                    open_s: 0.002,
                    wrrd_s: 1.0,
                    close_s: 0.003,
                    total_s: 1.1,
                });
            }
        }
        k
    }

    fn io500(tasks: u32) -> Io500Knowledge {
        Io500Knowledge {
            id: None,
            tasks,
            bw_score: 1.5,
            md_score: 3.0,
            total_score: 2.25,
            testcases: Vec::new(),
            options: std::collections::BTreeMap::new(),
            system: None,
            start_time: 1,
            warnings: Vec::new(),
        }
    }

    #[test]
    fn writers_equal_the_tree_over_a_seeded_store() {
        let mut store = KnowledgeStore::in_memory();
        store.save_io500(&io500(16)).unwrap();
        let runs = [
            run(
                "ior -a posix -o \"/scratch/q\"",
                4,
                &["write", "read"],
                &[100.0, 101.5],
            ),
            run(
                "ior -o C:\\scratch\\ü",
                8,
                &["write"],
                &[1e-7, 3.0e12, 42.0],
            ),
            // No results at all: a summary row without iterations.
            run("ior -a posix -t 1k — ø", 16, &[], &[]),
            run("ior\t-b 2m", 0, &["read"], &[0.0, 0.1 + 0.2]),
        ];
        for k in &runs {
            store.save_knowledge(k).unwrap();
        }
        store.save_io500(&io500(32)).unwrap();
        let snapshot = store.snapshot();
        let open = DeadlineToken::unbounded();
        for (op, boxes) in [("write", 2), ("read", 2), ("stat", 0)] {
            let series = snapshot
                .boxplot_series(&RunPredicate::True, op, &open)
                .unwrap();
            assert_eq!(series.len(), boxes, "{op}");
            assert_boxplot_matches(op, &series);
        }
        for spec in compare_specs() {
            let points = spec.points(&snapshot, &open).unwrap();
            assert_compare_matches(&spec, &points);
        }
    }

    #[test]
    fn writers_equal_the_tree_on_non_finite_values_and_odd_labels() {
        let labels = ["quote \" in", "back\\slash", "grüße ✓", "ctl \u{1} \n", ""];
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 2.5e300];
        let series: Vec<(String, Vec<f64>)> = labels
            .iter()
            .enumerate()
            .map(|(i, label)| ((*label).to_owned(), values[..i].to_vec()))
            .collect();
        assert_boxplot_matches("wr\"ite", &series);
        assert_boxplot_matches("write", &[("nan".to_owned(), vec![f64::NAN; 3])]);
        let points: Vec<ComparisonPoint> = labels
            .iter()
            .zip(values)
            .enumerate()
            .map(|(i, (label, v))| ComparisonPoint {
                knowledge_id: (i % 2 == 0).then_some(i as u64),
                command: (*label).to_owned(),
                x: v,
                y: -v,
            })
            .collect();
        for spec in compare_specs() {
            assert_compare_matches(&spec, &points);
        }
    }

    #[test]
    fn writers_equal_the_tree_over_an_empty_store() {
        let store = KnowledgeStore::in_memory();
        let open = DeadlineToken::unbounded();
        let series = store
            .boxplot_series(&RunPredicate::True, "write", &open)
            .unwrap();
        assert!(series.is_empty());
        assert_boxplot_matches("write", &series);
        for spec in compare_specs() {
            let points = spec.points(&store.snapshot(), &open).unwrap();
            assert!(points.is_empty());
            assert_compare_matches(&spec, &points);
        }
    }
}
