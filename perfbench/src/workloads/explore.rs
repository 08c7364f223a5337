//! `explore_static` and `explore_churn`: an in-process explorerd over a
//! sealed corpus, driven by one closed-loop client.
//!
//! Load model: the driver thread is the only client. It holds two
//! keep-alive connections, alternates between them, and has one request
//! in flight — explorer users are a few analysts who each wait for the
//! reply. The server runs one handler worker. In `explore_churn` the
//! same thread is also the only writer (through `Server::store()`), so
//! it knows the store's generation and every expected status exactly.

use super::{
    account_device, read_store_registry, reopen_and_fsck, timed, Ctx, Round, StoreFs, Workload,
    DEFAULT_SEAL_THRESHOLD,
};
use crate::http::{Client, Reply};
use crate::synth::{self, Rng, APIS};
use crate::vfs::VfsCounts;
use iokc_core::model::KnowledgeItem;
use iokc_explorerd::{Server, ServerConfig};
use iokc_obs::{Clock, NullSink, Recorder};
use iokc_store::{DeadlineToken, Query, RunKind};
use iokc_util::json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Full `/api/runs` streams at the end of each round.
const STREAMS_PER_ROUND: usize = 3;

/// Request classes; each is a client-side span `explorerd.<class>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Point,
    Filter,
    Agg,
    NotModified,
    Compare,
    Html,
    Health,
}

/// The span of each class, in [`Class`] order.
pub const REQUEST_SPANS: [&str; 7] = [
    "explorerd.point",
    "explorerd.filter",
    "explorerd.agg",
    "explorerd.not_modified",
    "explorerd.compare",
    "explorerd.html",
    "explorerd.health",
];

impl Class {
    fn span(self) -> &'static str {
        REQUEST_SPANS[self as usize]
    }
}

/// One planned request.
#[derive(Debug, Clone)]
struct Planned {
    class: Class,
    path: String,
    /// The benchmark id a point or run-page request names, so a deleted
    /// id is expected to answer 404.
    id: Option<u64>,
}

/// See the module docs.
pub struct Explore {
    churn: bool,
    /// The sealed corpus as it sits on disk after set-up.
    base: BTreeMap<PathBuf, Vec<u8>>,
    build_counts: VfsCounts,
    build_user_bytes: u64,
    /// Benchmark and IO500 runs in the corpus.
    corpus_runs: (u64, u64),
    plan: Vec<Planned>,
    /// explore_churn: one pre-built batch per write.
    writes: Vec<Vec<KnowledgeItem>>,
}

/// Zipf-like rank in `0..n`: log-uniform, so rank `r` is about as
/// likely as all ranks in `r..2r` together. The hottest few hundred ids
/// fit the 1 MiB query cache; the tail does not.
fn skewed(rng: &mut Rng, n: u64) -> u64 {
    ((n as f64).powf(rng.unit()) as u64).min(n) - 1
}

/// Spread ranks over the id space so the hot set touches every segment.
fn rank_to_id(rank: u64, n: u64) -> u64 {
    1 + (rank.wrapping_mul(7919)) % n
}

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The seeded request mix: 40 % point lookups, 20 % filtered pages,
/// 10 % aggregates, 10 % conditional GETs, 10 % compare/boxplot, 5 %
/// HTML pages, 5 % health and metrics.
///
/// What a request costs depends on whether it misses the cache, so the
/// number of *distinct* URLs per expensive class is fixed (two fifths of
/// the class's requests): the seed picks which URLs and in which order,
/// not how much work the mix holds.
fn plan_requests(seed: u64, requests: usize, bench_runs: u64) -> Vec<Planned> {
    let mut rng = Rng::new(seed ^ 0x7265_7175_6573_7473);
    let share = |percent: usize| requests * percent / 100;
    let mut plan: Vec<Planned> = Vec::with_capacity(requests);
    let mut spread_over = |rng: &mut Rng, class: Class, count: usize, mut urls: Vec<String>| {
        shuffle(rng, &mut urls);
        urls.truncate((count * 2 / 5).max(1));
        for k in 0..count {
            plan.push(Planned {
                class,
                path: urls[k % urls.len()].clone(),
                id: None,
            });
        }
    };

    let mut filters = Vec::new();
    for api in APIS {
        for lo in [1, 33, 65, 97] {
            for page in 0..8 {
                filters.push(format!(
                    "/api/runs?api={api}&min_tasks={lo}&max_tasks={}&limit=50&offset={}",
                    lo + 31,
                    page * 50
                ));
            }
        }
    }
    spread_over(&mut rng, Class::Filter, share(20), filters);

    let mut aggregates = Vec::new();
    for group in ["api", "tasks", "xfer", "kind"] {
        aggregates.push(format!("/api/corr?group={group}"));
        for factor in ["bw", "tasks", "total_score"] {
            aggregates.push(format!("/api/agg?group={group}&factor={factor}"));
            aggregates.push(format!("/api/dist?group={group}&factor={factor}"));
        }
    }
    spread_over(&mut rng, Class::Agg, share(10), aggregates);

    let mut compares = Vec::new();
    for api in APIS {
        for x in ["transfer_size", "block_size", "tasks"] {
            for block in 1..=16 {
                compares.push(format!(
                    "/api/compare?api={api}&x={x}&command=-b%20{block}m"
                ));
            }
        }
    }
    spread_over(&mut rng, Class::Compare, share(10) - 1, compares);
    plan.push(Planned {
        class: Class::Compare,
        path: "/api/boxplot?op=write".to_owned(),
        id: None,
    });

    // The path of a conditional GET is chosen when it is issued: a URL
    // whose validator the client holds by then.
    for _ in 0..share(10) {
        plan.push(Planned {
            class: Class::NotModified,
            path: String::new(),
            id: None,
        });
    }
    let pages = ["/dist?group=tasks&factor=total_score", "/corr"];
    for k in 0..share(5) {
        let id = rank_to_id(skewed(&mut rng, bench_runs), bench_runs);
        plan.push(match pages.get(k) {
            Some(page) => Planned {
                class: Class::Html,
                path: (*page).to_owned(),
                id: None,
            },
            None => Planned {
                class: Class::Html,
                path: format!("/runs/{id}"),
                id: Some(id),
            },
        });
    }
    for k in 0..share(5) {
        plan.push(Planned {
            class: Class::Health,
            path: ["/healthz", "/metrics"][k % 2].to_owned(),
            id: None,
        });
    }
    while plan.len() < requests {
        let id = rank_to_id(skewed(&mut rng, bench_runs), bench_runs);
        plan.push(Planned {
            class: Class::Point,
            path: format!("/api/runs/{id}"),
            id: Some(id),
        });
    }
    interleave(&mut rng, plan)
}

/// Order the planned requests: which class stands at which position is
/// the same for every seed (each class spread evenly, by largest
/// deficit), and the seed decides which of the class's requests is
/// issued when. A median that falls between two classes of very
/// different cost then does not move with the seed.
fn interleave(rng: &mut Rng, plan: Vec<Planned>) -> Vec<Planned> {
    const CLASSES: [Class; 7] = [
        Class::Point,
        Class::Filter,
        Class::Agg,
        Class::NotModified,
        Class::Compare,
        Class::Html,
        Class::Health,
    ];
    let total = plan.len();
    let mut queues: Vec<Vec<Planned>> = CLASSES
        .iter()
        .map(|class| {
            let mut queue: Vec<Planned> =
                plan.iter().filter(|p| p.class == *class).cloned().collect();
            shuffle(rng, &mut queue);
            queue
        })
        .collect();
    let targets: Vec<usize> = queues.iter().map(Vec::len).collect();
    let mut ordered = Vec::with_capacity(total);
    for position in 1..=total {
        // The class furthest behind its even share so far; never one
        // that has run out.
        let (next, _) = (0..CLASSES.len())
            .filter(|c| !queues[*c].is_empty())
            .map(|c| {
                let emitted = targets[c] - queues[c].len();
                (c, (targets[c] * position) as i64 - (emitted * total) as i64)
            })
            .max_by_key(|(c, deficit)| (*deficit, std::cmp::Reverse(*c)))
            .expect("a class with requests left");
        ordered.push(queues[next].pop().expect("non-empty queue"));
    }
    ordered
}

/// `(kind, id)` of every row of a streamed `/api/runs` body.
fn streamed_rows(body: &[u8]) -> Option<Vec<(RunKind, u64)>> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.as_arr()?
        .iter()
        .map(|row| {
            let kind = match row.get("kind")?.as_str()? {
                "benchmark" => RunKind::Benchmark,
                "io500" => RunKind::Io500,
                _ => return None,
            };
            Some((kind, row.get("id")?.as_u64()?))
        })
        .collect()
}

impl Explore {
    fn build(ctx: &Ctx, churn: bool) -> Explore {
        let scale = &ctx.scale;
        let pool = synth::io500_pool(ctx.seed, scale.io500_pool, &ctx.tracer);
        let fs = StoreFs::pristine();
        let mut store = fs.open(DEFAULT_SEAL_THRESHOLD);
        let mut build_user_bytes = 0;
        let mut corpus_runs = (0u64, 0u64);
        for from in (0..scale.explore_corpus).step_by(DEFAULT_SEAL_THRESHOLD) {
            let to = (from + DEFAULT_SEAL_THRESHOLD).min(scale.explore_corpus);
            let batch = synth::items(ctx.seed, &pool, from, to);
            build_user_bytes += synth::user_bytes(&batch);
            for item in &batch {
                match item {
                    KnowledgeItem::Benchmark(_) => corpus_runs.0 += 1,
                    KnowledgeItem::Io500(_) => corpus_runs.1 += 1,
                }
            }
            store.save_batch(&batch).expect("corpus batch saves");
        }
        store.seal_active().expect("corpus tail seals");
        drop(store);
        let (requests, writes) = if churn {
            let requests = scale.churn_requests;
            let n = scale.churn_write_items;
            let writes = (0..requests / scale.churn_write_every)
                .map(|w| {
                    let from = scale.explore_corpus + w * n;
                    synth::items(ctx.seed, &pool, from, from + n)
                })
                .collect();
            (requests, writes)
        } else {
            (scale.static_requests, Vec::new())
        };
        Explore {
            churn,
            base: fs.disk.durable_state(),
            build_counts: fs.vfs.counts(),
            build_user_bytes,
            corpus_runs,
            plan: plan_requests(ctx.seed, requests, corpus_runs.0),
            writes,
        }
    }

    fn run(&self, ctx: &Ctx, plan: &[Planned]) -> Round {
        let scale = &ctx.scale;
        let tracer = &ctx.tracer;
        let mut round = Round::default();
        let fs = StoreFs::from_state(self.base.clone());
        // Nothing on disk changes in `explore_static`, so its reopens and
        // `fsck` are timed here, before the server's threads exist: after
        // they have run, an open of a quarter millisecond reads 0.24 or
        // 0.35 ms from one round to the next.
        let store = if self.churn {
            fs.open(DEFAULT_SEAL_THRESHOLD)
        } else {
            reopen_and_fsck(ctx, &fs, DEFAULT_SEAL_THRESHOLD, &mut round)
        };
        let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
        let server = Server::start(
            ServerConfig {
                workers: 1,
                // The client is silent while the driver checks results.
                idle_timeout: Duration::from_secs(300),
                ..ServerConfig::default()
            },
            store,
            recorder,
        )
        .expect("explorerd starts");
        let mut clients = [
            Client::connect(server.local_addr()).expect("client connects"),
            Client::connect(server.local_addr()).expect("client connects"),
        ];
        let shared = server.store();
        // Segment bodies load lazily on first touch; a long-running server
        // has them in memory, so touch every segment before timing.
        let warm = clients[0].get("/api/runs?command=ior&limit=1", None);
        round.check(
            warm.is_ok_and(|r| r.status == 200),
            "the warm-up scan answers 200",
        );

        // What the client knows: validators it holds for the current
        // generation, and which ids it deleted.
        let mut etags: Vec<(String, String)> = Vec::new();
        let mut deleted: BTreeSet<u64> = BTreeSet::new();
        let mut delete_cursor = 0u64;
        let mut user_bytes = self.build_user_bytes;
        let mut deleted_bytes = 0u64;
        let mut ttfb_ms: Vec<f64> = Vec::new();
        let mut rng = Rng::new(ctx.seed ^ 0x006e_6f74_5f6d_6f64);

        let ((), main_s) = timed(|| {
            for (i, planned) in plan.iter().enumerate() {
                // A conditional GET needs a held validator; until the
                // client has one it is a plain point request.
                let (class, path, tag, id) = match planned.class {
                    Class::NotModified if !etags.is_empty() => {
                        let (path, tag) = etags[rng.below(etags.len() as u64) as usize].clone();
                        (Class::NotModified, path, Some(tag), None)
                    }
                    Class::NotModified => {
                        let id = rank_to_id(i as u64, self.corpus_runs.0);
                        (Class::Point, format!("/api/runs/{id}"), None, Some(id))
                    }
                    class => (class, planned.path.clone(), None, planned.id),
                };
                let expected = match (class, id) {
                    (Class::NotModified, _) => 304,
                    (_, Some(id)) if deleted.contains(&id) => 404,
                    _ => 200,
                };
                tracer.next_op();
                let client = &mut clients[i % 2];
                let (reply, secs) =
                    timed(|| tracer.span(class.span(), || client.get(&path, tag.as_deref())));
                round.op_ms.push(secs * 1e3);
                round.ops += 1;
                let reply = reply.unwrap_or_default();
                if reply.status != expected {
                    eprintln!(
                        "perf: {path} answered {}, expected {expected}",
                        reply.status
                    );
                }
                round.check(reply.status == expected, "the status is the expected one");
                ttfb_ms.push(reply.ttfb_ms);
                if let (200, Some(tag)) = (reply.status, reply.etag) {
                    if etags.len() < 256 {
                        etags.push((path, tag));
                    }
                }

                if !self.churn {
                    continue;
                }
                let done = i + 1;
                if done % scale.churn_write_every == 0 {
                    let batch = &self.writes[done / scale.churn_write_every - 1];
                    tracer.next_op();
                    let ids = tracer.span("store.save_batch", || {
                        shared.write().expect("store lock").save_batch(batch)
                    });
                    round.check(
                        ids.is_ok_and(|ids| ids.len() == batch.len()),
                        "save_batch through the server's store acknowledges every item",
                    );
                    user_bytes += synth::user_bytes(batch);
                    etags.clear();
                }
                if done % scale.churn_delete_every == 0 {
                    tracer.next_op();
                    for _ in 0..scale.churn_deletes {
                        // Cold ids from the top of the corpus: rarely
                        // requested, but some requests do meet a 404.
                        let id = self.corpus_runs.0 - delete_cursor;
                        delete_cursor += 1;
                        let gone = tracer.span("store.delete", || {
                            shared.write().expect("store lock").delete_knowledge(id)
                        });
                        round.check(gone.unwrap_or(false), "delete through the server's store");
                        deleted.insert(id);
                        deleted_bytes += synth::user_bytes(&[KnowledgeItem::Benchmark(
                            synth::knowledge(ctx.seed, self.bench_index(id)),
                        )]);
                    }
                    etags.clear();
                }
                if done == plan.len() / 2 {
                    tracer.next_op();
                    let report = tracer.span("store.compact", || {
                        shared.write().expect("store lock").compact()
                    });
                    round.check(report.is_ok(), "compaction under the server succeeds");
                    *round
                        .counts
                        .entry("store.compact.runs_rewritten")
                        .or_default() += report.map_or(0, |r| r.runs_rewritten) as f64;
                    etags.clear();
                }
            }
        });
        round.main_s = main_s;

        // The full unfiltered listing, streamed: the read-back. The body
        // outgrows the cache budget, so every stream renders anew.
        let expected: Vec<(RunKind, u64)> = shared
            .read()
            .expect("store lock")
            .query_summaries(&Query::all(), &DeadlineToken::unbounded())
            .map(|rows| rows.iter().map(|r| (r.kind, r.id)).collect())
            .unwrap_or_default();
        for _ in 0..STREAMS_PER_ROUND {
            tracer.next_op();
            let (stream, secs) =
                timed(|| tracer.span("explorerd.stream", || clients[0].get("/api/runs", None)));
            round.readback_s += secs;
            let stream: Reply = stream.unwrap_or_default();
            let rows = streamed_rows(&stream.body).unwrap_or_default();
            round.readback_rows += rows.len() as u64;
            round.check(
                stream.status == 200 && !rows.is_empty() && rows == expected,
                "the streamed listing holds exactly the rows a direct query returns",
            );
            round
                .samples
                .entry("explorerd.stream.first_byte_ms")
                .or_default()
                .push(stream.ttfb_ms);
            round
                .counts
                .insert("explorerd.stream.bytes", stream.body.len() as f64);
        }
        round
            .samples
            .entry("explorerd.ttfb_ms")
            .or_default()
            .extend(ttfb_ms);

        let registry = server.metrics();
        let counter = |name: &str| registry.counter(name).get() as f64;
        let (hits, misses) = (
            counter("explorerd.cache.hits"),
            counter("explorerd.cache.misses"),
        );
        round.counts.insert(
            "explorerd.cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        for (metric, name) in [
            ("explorerd.cache.evictions", "explorerd.cache.evictions"),
            ("explorerd.shed", "explorerd.shed"),
            ("explorerd.status_5xx", "explorerd.status.5xx"),
            ("explorerd.deadline_exceeded", "http.deadline_exceeded"),
        ] {
            round.counts.insert(metric, counter(name));
        }
        round.check(counter("explorerd.shed") == 0.0, "explorerd sheds nothing");
        read_store_registry(&registry, &mut round);
        drop(clients);
        drop(shared);
        server.shutdown();

        let store = if self.churn {
            reopen_and_fsck(ctx, &fs, DEFAULT_SEAL_THRESHOLD, &mut round)
        } else {
            fs.open(DEFAULT_SEAL_THRESHOLD)
        };
        round.check(
            store.knowledge_count() + store.io500_count() == expected.len(),
            "the reopened store holds the rows the server listed",
        );
        round.user_bytes = user_bytes;
        round.live_user_bytes = user_bytes - deleted_bytes;
        account_device(&fs, self.build_counts, &mut round);
        round.store = Some(store);
        round
    }

    /// Index into the synthetic stream of the corpus's `id`-th benchmark
    /// run (every eighth stream item is an IO500 run instead).
    fn bench_index(&self, id: u64) -> usize {
        let k = (id - 1) as usize;
        k + k / 7
    }
}

/// `explore_static`: the corpus never changes.
pub struct ExploreStatic(Explore);

/// `explore_churn`: the client also writes, deletes and compacts.
pub struct ExploreChurn(Explore);

impl Workload for ExploreStatic {
    /// Build and seal the corpus and plan the requests. No warm-up
    /// round: every round starts its own server, and touches every
    /// segment before it times anything.
    fn setup(ctx: &Ctx) -> ExploreStatic {
        ExploreStatic(Explore::build(ctx, false))
    }

    fn round(&mut self, ctx: &Ctx) -> Round {
        self.0.run(ctx, &self.0.plan)
    }
}

impl Workload for ExploreChurn {
    /// As [`ExploreStatic::setup`], plus the batches the round writes.
    fn setup(ctx: &Ctx) -> ExploreChurn {
        ExploreChurn(Explore::build(ctx, true))
    }

    fn round(&mut self, ctx: &Ctx) -> Round {
        self.0.run(ctx, &self.0.plan)
    }
}
