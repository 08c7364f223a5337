//! Explorer-service benches: request cost against a cold vs a warm
//! query cache, over a store of a few thousand runs. The cold side
//! serves from an `Explorer` whose cache holds zero bytes, so every
//! request is a miss: store read + render. The warm side repeats one
//! query against a roomy cache, so everything after the first request
//! is served from memory. Every request carries the server's default
//! deadline budget, so a miss pays for polling the clock as served
//! requests do.

use std::sync::{Arc, RwLock};

use criterion::{criterion_group, criterion_main, Criterion};
use iokc_bench::synthetic_knowledge;
use iokc_core::model::KnowledgeItem;
use iokc_explorerd::{Body, Explorer, Request, ServerConfig};
use iokc_obs::{CancelToken, Clock, DeadlineToken, NullSink, Recorder};
use iokc_store::KnowledgeStore;
use std::hint::black_box;

/// Benchmark runs in the store: every miss scans all of them.
const RUNS: usize = 4096;

fn populated_store() -> KnowledgeStore {
    let mut store = KnowledgeStore::in_memory();
    let items: Vec<KnowledgeItem> = (0..RUNS)
        .map(|i| KnowledgeItem::Benchmark(synthetic_knowledge(i)))
        .collect();
    store.save_batch(&items).unwrap();
    store
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

/// Serve `req` under the server's default budget; the body's length,
/// with a streamed body drained to the end.
fn serve(explorer: &Explorer, req: &Request) -> usize {
    let deadline =
        DeadlineToken::with_budget(CancelToken::new(), ServerConfig::default().request_deadline);
    let response = explorer.handle(req, &deadline);
    assert_eq!(response.status, 200);
    match response.body {
        Body::Full(bytes) => bytes.len(),
        Body::Pull(mut source) => {
            let mut out = Vec::new();
            while source.next_chunk(&mut out) {}
            out.len()
        }
    }
}

fn bench_explorerd(c: &mut Criterion) {
    let store = Arc::new(RwLock::new(populated_store()));
    let explorer = |cache_bytes| {
        let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
        Explorer::new(Arc::clone(&store), cache_bytes, recorder)
    };
    let cold = explorer(0);
    let warm = explorer(16 << 20);

    let mut group = c.benchmark_group("explorerd_requests");
    group.sample_size(20);

    let run_detail = request("/api/runs/1", &[]);
    group.bench_function("run_detail_cold_cache", |b| {
        b.iter(|| black_box(serve(&cold, &run_detail)));
    });
    group.bench_function("run_detail_warm_cache", |b| {
        b.iter(|| black_box(serve(&warm, &run_detail)));
    });

    // One box per run: the miss reads every run's results and renders
    // thousands of objects.
    let boxplot = request("/api/boxplot", &[("op", "write")]);
    group.bench_function("boxplot_cold_cache", |b| {
        b.iter(|| black_box(serve(&cold, &boxplot)));
    });
    group.bench_function("boxplot_warm_cache", |b| {
        b.iter(|| black_box(serve(&warm, &boxplot)));
    });

    // A fold over every summary into log2 task buckets.
    let agg = request("/api/agg", &[("group", "tasks")]);
    group.bench_function("agg_cold_cache", |b| {
        b.iter(|| black_box(serve(&cold, &agg)));
    });

    // A filtered page of the listing: a scan of every summary for a
    // few dozen rows.
    let filter_page = request(
        "/api/runs",
        &[
            ("api", "MPIIO"),
            ("min_tasks", "33"),
            ("max_tasks", "64"),
            ("limit", "50"),
            ("offset", "50"),
        ],
    );
    group.bench_function("filter_page_cold_cache", |b| {
        b.iter(|| black_box(serve(&cold, &filter_page)));
    });

    group.finish();
}

criterion_group!(benches, bench_explorerd);
criterion_main!(benches);
