//! Store benches: the typed query engine (ablation: predicate
//! pushdown and summary projection, DESIGN.md §"Query engine"), the
//! same rows read unsealed and sealed, the corpus-scale tier and its
//! compaction, and the tables underneath (bulk insert, the SQL front
//! end, segment round trip, the row codec each way).
//!
//! Each pair contrasts the typed query engine against the pattern it
//! replaced: deserialize every knowledge object out of the store, then
//! filter/sort/count in application code. On a 1k-run store the engine
//! answers a selective filter from one pass over the in-memory summary
//! rows, cloning only the rows it returns; the old path pays full
//! deserialization for all 1 000 runs on every query.

use criterion::{criterion_group, criterion_main, Criterion};
use iokc_bench::synthetic_knowledge as knowledge;
use iokc_core::model::KnowledgeItem;
use iokc_store::persist::{self, segment_path};
use iokc_store::segment::{read_segment_vfs, write_segment_vfs};
use iokc_store::{
    sql, AggregateQuery, Column, ColumnType, Database, DeadlineToken, Factor, FaultVfs, GroupBy,
    KnowledgeStore, Query, RunKind, RunOrder, RunPredicate, TableSchema, Value, Vfs,
};
use iokc_util::json::Reader;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

fn populated(runs: usize) -> KnowledgeStore {
    let mut store = KnowledgeStore::in_memory();
    for i in 0..runs {
        store.save_knowledge(&knowledge(i)).unwrap();
    }
    store
}

/// The selective filter both sides answer: one API out of three, one
/// bandwidth band out of the whole range (~7% of the store).
fn selective() -> RunPredicate {
    RunPredicate::ApiEq("MPIIO".into()).and(RunPredicate::BandwidthBetween(600.0, 900.0))
}

fn load_all_matches(store: &KnowledgeStore) -> usize {
    let items = store.query_items(&Query::all()).unwrap();
    items
        .iter()
        .filter(|item| match item {
            KnowledgeItem::Benchmark(k) => {
                let bw = k.summary("write").map_or(0.0, |s| s.mean_mib);
                k.pattern.api == "MPIIO" && (600.0..=900.0).contains(&bw)
            }
            KnowledgeItem::Io500(_) => false,
        })
        .count()
}

fn bench_query_engine(c: &mut Criterion) {
    let store = populated(1_000);
    let expected = load_all_matches(&store);
    assert!(expected > 0, "the selective filter must match something");

    let mut group = c.benchmark_group("query_engine");
    group.sample_size(20);

    // Cold selective filter: summary projection from one scan…
    group.bench_function("filtered_1k_engine", |b| {
        let q = Query::new(selective());
        b.iter(|| {
            let rows = store
                .query_summaries(&q, &DeadlineToken::unbounded())
                .unwrap();
            assert_eq!(rows.len(), expected);
            black_box(rows.len())
        });
    });

    // …versus deserialize-everything-then-filter.
    group.bench_function("filtered_1k_load_all", |b| {
        b.iter(|| black_box(load_all_matches(&store)));
    });

    // Top-k by bandwidth: sorted index walk with limit pushdown…
    group.bench_function("top10_bandwidth_engine", |b| {
        let q = Query::new(RunPredicate::Kind(RunKind::Benchmark))
            .order_by(RunOrder::Bandwidth)
            .descending()
            .limit(10);
        b.iter(|| {
            let rows = store
                .query_summaries(&q, &DeadlineToken::unbounded())
                .unwrap();
            assert_eq!(rows.len(), 10);
            black_box(rows.last().map(|r| r.bandwidth()))
        });
    });

    // …versus load everything, sort in memory, truncate.
    group.bench_function("top10_bandwidth_load_all", |b| {
        b.iter(|| {
            let items = store.query_items(&Query::all()).unwrap();
            let mut bws: Vec<f64> = items
                .iter()
                .filter_map(|item| match item {
                    KnowledgeItem::Benchmark(k) => {
                        Some(k.summary("write").map_or(0.0, |s| s.mean_mib))
                    }
                    KnowledgeItem::Io500(_) => None,
                })
                .collect();
            bws.sort_by(|a, b| b.total_cmp(a));
            bws.truncate(10);
            black_box(bws.last().copied())
        });
    });

    // The count fast path never touches a row at all.
    group.bench_function("count_engine", |b| {
        b.iter(|| black_box(store.count(&RunPredicate::True).unwrap()));
    });

    // One executor, two blocks: the same 1 000 rows listed and
    // aggregated while they are the unsealed active generation, then
    // again once `seal_active` has made them a segment.
    let mut store = KnowledgeStore::in_memory();
    let batch: Vec<KnowledgeItem> = (0..1_000)
        .map(|i| KnowledgeItem::Benchmark(knowledge(i)))
        .collect();
    store.save_batch(&batch).unwrap();
    let agg = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth);
    for block in ["active", "sealed"] {
        assert_eq!(store.segment_metas().len(), usize::from(block == "sealed"));
        group.bench_function(format!("listing_1k_{block}"), |b| {
            b.iter(|| {
                let rows = store
                    .query_summaries(&Query::all(), &DeadlineToken::unbounded())
                    .unwrap();
                assert_eq!(rows.len(), 1_000);
                black_box(rows.len())
            });
        });
        group.bench_function(format!("aggregate_1k_{block}"), |b| {
            b.iter(|| {
                let res = store.aggregate(&agg, &DeadlineToken::unbounded()).unwrap();
                assert_eq!(res.rows_aggregated, 1_000);
                black_box(res.groups.len())
            });
        });
        store.seal_active().unwrap();
    }

    group.finish();
}

/// Corpus-scale tier (DESIGN.md §6b): `open()`, point lookup, the
/// selective filter, aggregation, the full and box-plot projections,
/// and batched ingest against a *segmented* on-disk
/// corpus (in-memory VFS — identical code path to a real disk without
/// timing the kernel). The default 2 000-run corpus keeps the CI smoke
/// fast; `IOKC_BENCH_SCALE=100000` reproduces the tier recorded in
/// `BENCH_store_scale.json`. Because `open()` maps segment metadata
/// instead of summarizing every run, its cost tracks the segment
/// count, not the corpus size.
fn bench_store_scale(c: &mut Criterion) {
    let runs: usize = std::env::var("IOKC_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    const SEAL: usize = 1_024;
    let path = PathBuf::from("/bench-corpus.json");
    let vfs = Arc::new(FaultVfs::pristine());

    // Populate through `save_batch`: each batch shares one flush, and
    // the active generation seals into a segment whenever it crosses
    // the threshold — the exact write path a fleet ingester exercises.
    let mut store =
        KnowledgeStore::open_with_vfs(path.clone(), Arc::clone(&vfs) as Arc<dyn Vfs>).unwrap();
    store.set_seal_threshold(SEAL);
    let mut ingested = 0;
    while ingested < runs {
        let batch: Vec<KnowledgeItem> = (ingested..(ingested + SEAL).min(runs))
            .map(|i| KnowledgeItem::Benchmark(knowledge(i)))
            .collect();
        ingested += batch.len();
        store.save_batch(&batch).unwrap();
    }
    let segments = store.segment_metas().len();
    drop(store);

    let mut group = c.benchmark_group("store_scale");
    group.sample_size(10);

    // Cold open: manifest + segment metadata only, no bulk rebuild.
    group.bench_function(format!("open_{runs}"), |b| {
        b.iter(|| {
            let reopened =
                KnowledgeStore::open_with_vfs(path.clone(), Arc::clone(&vfs) as Arc<dyn Vfs>)
                    .unwrap();
            assert_eq!(reopened.segment_metas().len(), segments);
            black_box(reopened.generation())
        });
    });

    let store =
        KnowledgeStore::open_with_vfs(path.clone(), Arc::clone(&vfs) as Arc<dyn Vfs>).unwrap();

    // Point lookup: bloom filters route the probe past non-matching
    // segments; only the owning segment's body is consulted.
    let mid = (runs as u64).max(2) / 2;
    group.bench_function(format!("point_lookup_{runs}"), |b| {
        b.iter(|| {
            let k = store.load_knowledge(mid).unwrap();
            assert!(k.is_some());
            black_box(k.map(|k| k.results.len()))
        });
    });

    // Selective filter over the whole corpus (summary projections).
    group.bench_function(format!("selective_filter_{runs}"), |b| {
        let q = Query::new(selective());
        b.iter(|| {
            let rows = store
                .query_summaries(&q, &DeadlineToken::unbounded())
                .unwrap();
            black_box(rows.len())
        });
    });

    // Aggregation pushdown: group-by-api percentiles folded inside the
    // store from segment summary blocks (no row materialization)…
    let agg_q = AggregateQuery::new(GroupBy::Api, Factor::Bandwidth)
        .with_predicate(RunPredicate::Kind(RunKind::Benchmark));
    group.bench_function(format!("aggregate_{runs}"), |b| {
        b.iter(|| {
            let res = store
                .aggregate(&agg_q, &DeadlineToken::unbounded())
                .unwrap();
            assert_eq!(res.rows_aggregated as usize, runs);
            black_box(res.groups.len())
        });
    });

    // …versus materializing every summary row and folding client-side:
    // the pattern the pushdown replaced in `iokc agg` and `/api/dist`.
    group.bench_function(format!("aggregate_rows_{runs}"), |b| {
        let q = Query::new(RunPredicate::Kind(RunKind::Benchmark));
        b.iter(|| {
            let rows = store
                .query_summaries(&q, &DeadlineToken::unbounded())
                .unwrap();
            let res = agg_q.evaluate_rows(rows.iter());
            assert_eq!(res.rows_aggregated as usize, runs);
            black_box(res.groups.len())
        });
    });

    // The full projection a cycle iteration's analysis reads: every run
    // deserialized, each block's child tables walked in id order…
    group.bench_function(format!("full_projection_{runs}"), |b| {
        b.iter(|| {
            let items = store.query_items(&Query::all()).unwrap();
            assert_eq!(items.len(), runs);
            black_box(items.len())
        });
    });

    // …and the box-plot projection: every run's write series, read from
    // `summaries` and `results` alone.
    group.bench_function(format!("boxplot_series_{runs}"), |b| {
        b.iter(|| {
            let series = store
                .boxplot_series(&RunPredicate::True, "write", &DeadlineToken::unbounded())
                .unwrap();
            assert_eq!(series.len(), runs);
            black_box(series.len())
        });
    });
    drop(store);

    // Steady-state ingest: one 256-run batch appended to the corpus.
    let mut store =
        KnowledgeStore::open_with_vfs(path.clone(), Arc::clone(&vfs) as Arc<dyn Vfs>).unwrap();
    store.set_seal_threshold(SEAL);
    let mut next = runs;
    group.bench_function("ingest_batch_256", |b| {
        b.iter(|| {
            let batch: Vec<KnowledgeItem> = (next..next + 256)
                .map(|i| KnowledgeItem::Benchmark(knowledge(i)))
                .collect();
            next += 256;
            black_box(store.save_batch(&batch).unwrap().len())
        });
    });

    // Compaction of a corpus grown by whole batches: eight resident
    // one-record blocks of 1 024 runs, 16 runs deleted from the newest.
    // Each sample compacts a store of its own, built beforehand.
    let samples = if std::env::args().any(|a| a == "--bench") {
        5
    } else {
        1
    };
    let mut ready: Vec<KnowledgeStore> = (0..samples).map(|_| eight_blocks()).collect();
    let mut compacted = Vec::with_capacity(samples);
    group.sample_size(samples);
    group.bench_function("compact_8x1024", |b| {
        b.iter(|| {
            let mut store = ready.pop().unwrap();
            let report = store.compact().unwrap();
            assert_eq!(report.runs_rewritten, 8 * 1_024 - 16);
            // Dropped after the timing, not inside it.
            compacted.push(store);
            report.runs_rewritten
        });
    });

    group.finish();
}

/// Eight sealed blocks of 1 024 runs, each one batch, with 16 runs
/// deleted from the newest, every body resident.
fn eight_blocks() -> KnowledgeStore {
    let mut store = KnowledgeStore::in_memory();
    store.set_seal_threshold(usize::MAX);
    for block in 0..8 {
        let batch: Vec<KnowledgeItem> = (block * 1_024..(block + 1) * 1_024)
            .map(|i| KnowledgeItem::Benchmark(knowledge(i)))
            .collect();
        store.save_batch(&batch).unwrap();
        store.seal_active().unwrap();
    }
    for id in 8 * 1_024 - 15..=8 * 1_024 {
        assert!(store.delete_knowledge(id).unwrap());
    }
    let all = store.query_summaries(&Query::all(), &DeadlineToken::unbounded());
    assert_eq!(all.unwrap().len(), 8 * 1_024 - 16);
    store
}

/// A bare relational table, below the knowledge schema.
fn relational(rows: usize) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "performances",
        vec![
            Column::required("command", ColumnType::Text),
            Column::required("api", ColumnType::Text),
            Column::new("tasks", ColumnType::Integer),
            Column::new("bw", ColumnType::Real),
        ],
    ))
    .unwrap();
    for i in 0..rows {
        let api = ["POSIX", "MPIIO", "HDF5"][i % 3];
        db.insert(
            "performances",
            vec![
                Value::from(format!("ior -b {i}m")),
                Value::from(api),
                Value::from((i % 128) as u32),
                Value::from(i as f64 * 1.5),
            ],
        )
        .unwrap();
    }
    db
}

fn bench_relational(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    let db = relational(10_000);

    group.bench_function("insert_10k_rows", |b| {
        b.iter(|| black_box(relational(10_000).row_count("performances").unwrap()));
    });

    group.bench_function("sql_parse_and_select", |b| {
        b.iter(|| {
            let rows = sql::query(
                &db,
                "SELECT * FROM performances WHERE tasks > 64 AND bw < 5000 ORDER BY bw DESC LIMIT 20",
            )
            .unwrap();
            black_box(rows.len())
        });
    });

    // The seal/load codec: a 1 000-run block written as a segment
    // file and read back (rows decoded, summaries derived).
    group.bench_function("segment_roundtrip_1k", |b| {
        let path = PathBuf::from("/bench-codec.json");
        let vfs = Arc::new(FaultVfs::pristine());
        let mut store =
            KnowledgeStore::open_with_vfs(path.clone(), Arc::clone(&vfs) as Arc<dyn Vfs>).unwrap();
        let batch: Vec<KnowledgeItem> = (0..1_000)
            .map(|i| KnowledgeItem::Benchmark(knowledge(i)))
            .collect();
        store.save_batch(&batch).unwrap();
        store.seal_active().unwrap();
        let meta = &store.segment_metas()[0];
        let block = read_segment_vfs(&meta.file(&path), vfs.as_ref(), meta.body.len).unwrap();
        let seg = segment_path(&path, 0);
        b.iter(|| {
            // A segment file is written to a fresh name.
            let _ = vfs.remove_file(&seg);
            let len = write_segment_vfs(&seg, vfs.as_ref(), &block).unwrap();
            let restored = read_segment_vfs(&seg, vfs.as_ref(), len).unwrap();
            assert_eq!(restored.summaries.len(), 1_000);
            black_box(restored.db.row_count("performances").unwrap())
        });
    });

    // The row codec alone: a sealed 1 024-run block encoded as the text
    // of a log record or segment body, and that text decoded into an
    // empty schema. The byte length makes either tier a rate.
    let block = sealed_block(1_024);
    let mut text = String::new();
    persist::write_rows(&mut text, &block, &BTreeMap::new());
    println!("  codec block_1k: {} bytes", text.len());
    group.bench_function("encode_block_1k", |b| {
        let mut out = String::with_capacity(text.len());
        b.iter(|| {
            out.clear();
            persist::write_rows(&mut out, &block, &BTreeMap::new());
            black_box(out.len())
        });
        assert_eq!(out, text);
    });
    group.bench_function("decode_block_1k", |b| {
        b.iter(|| {
            let mut db = Database::new();
            for table in block.table_names() {
                db.create_table(block.schema(table).unwrap().clone())
                    .unwrap();
            }
            persist::read_rows(&mut Reader::new(&text), &mut db).unwrap();
            black_box(db.row_count("performances").unwrap())
        });
    });

    group.finish();
}

/// The rows of one sealed block of `runs` runs, saved as one batch.
fn sealed_block(runs: usize) -> Database {
    let path = PathBuf::from("/bench-block.json");
    let vfs = Arc::new(FaultVfs::pristine());
    let mut store =
        KnowledgeStore::open_with_vfs(path.clone(), Arc::clone(&vfs) as Arc<dyn Vfs>).unwrap();
    let batch: Vec<KnowledgeItem> = (0..runs)
        .map(|i| KnowledgeItem::Benchmark(knowledge(i)))
        .collect();
    store.save_batch(&batch).unwrap();
    store.seal_active().unwrap();
    let meta = &store.segment_metas()[0];
    read_segment_vfs(&meta.file(&path), vfs.as_ref(), meta.body.len)
        .unwrap()
        .db
}

criterion_group!(
    benches,
    bench_query_engine,
    bench_store_scale,
    bench_relational
);
criterion_main!(benches);
