//! The knowledge explorer over a real corpus: viewer rendering,
//! comparison with selectable axes, box-plot overview, SQL access and CSV
//! export (§V-D), all fed by actual simulated runs.

use iokc_analysis::{compare, overview, render_knowledge, MetricAxis, OptionAxis};
use iokc_benchmarks::ior::{run_ior, IorConfig};
use iokc_core::model::{Knowledge, KnowledgeItem};
use iokc_core::phases::{Persister, PhaseKind};
use iokc_core::PhaseCtx;
use iokc_extract::parse_ior_output;
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_store::{export_csv, sql, DeadlineToken, KnowledgeStore, Query, RunFilter, RunSummary};

fn knowledge_for(xfer: &str, seed: u64) -> Knowledge {
    let command =
        format!("ior -a posix -b 512k -t {xfer} -s 2 -F -C -e -i 2 -o /scratch/ex{seed} -k");
    let config = IorConfig::parse_command(&command).unwrap();
    let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), seed);
    let result = run_ior(&mut world, JobLayout::new(4, 2), &config, seed).unwrap();
    parse_ior_output(&result.render()).unwrap()
}

fn store_of(corpus: &[Knowledge]) -> KnowledgeStore {
    let mut store = KnowledgeStore::in_memory();
    for k in corpus {
        store.save_knowledge(k).unwrap();
    }
    store
}

/// The summary rows `filter` selects, as a user's filters would.
fn rows(store: &KnowledgeStore, filter: &RunFilter) -> Vec<RunSummary> {
    store
        .query_summaries(&Query::new(filter.predicate()), &DeadlineToken::unbounded())
        .unwrap()
}

#[test]
fn explorer_views_and_comparison() {
    let corpus: Vec<Knowledge> = [("16k", 1u64), ("64k", 2), ("512k", 3)]
        .iter()
        .map(|(x, s)| knowledge_for(x, *s))
        .collect();

    // Viewer renders every run.
    for k in &corpus {
        let view = render_knowledge(k);
        assert!(view.contains(&k.command));
        assert!(view.contains("per-iteration detail:"));
    }

    // Comparison: x = transfer size, y = mean write bandwidth.
    let store = store_of(&corpus);
    let all = RunFilter::default();
    let points = compare(
        &rows(&store, &all),
        OptionAxis::TransferSize,
        &MetricAxis::MeanBandwidth("write".into()),
    );
    assert_eq!(points.len(), 3);
    assert!(
        points[2].y > points[0].y,
        "larger transfers win: {points:?}"
    );

    // Overview box plots.
    let series = store
        .boxplot_series(&all.predicate(), "write", &DeadlineToken::unbounded())
        .unwrap();
    let boxes = overview(&series);
    assert_eq!(boxes.len(), 3);
    for (_, describe) in &boxes {
        assert_eq!(describe.n, 2, "two iterations per run");
        assert!(describe.max >= describe.min);
    }
    // And they render as SVG.
    let svg = iokc_analysis::box_plot(&boxes, &iokc_analysis::ChartOptions::default());
    assert!(svg.starts_with("<svg"));
}

#[test]
fn sql_and_csv_surface_the_knowledge_tables() {
    let mut store = KnowledgeStore::in_memory();
    let mut ctx = PhaseCtx::detached(PhaseKind::Persistence, "knowledge-store");
    for (x, s) in [("16k", 11u64), ("512k", 12)] {
        let k = knowledge_for(x, s);
        store
            .persist(&mut ctx, &[KnowledgeItem::Benchmark(k)])
            .unwrap();
    }

    // SQL over the paper's tables.
    let rows = sql::query(
        store.database(),
        "SELECT * FROM performances WHERE transfer_size >= 524288",
    )
    .unwrap();
    assert_eq!(rows.len(), 1);

    let count = sql::select(store.database(), "SELECT COUNT(*) FROM summaries").unwrap();
    assert_eq!(count, sql::QueryResult::Count(4), "2 runs × write+read");

    let best = sql::query(
        store.database(),
        "SELECT * FROM results ORDER BY bw_mib DESC LIMIT 1",
    )
    .unwrap();
    assert_eq!(best.len(), 1);

    // CSV export round-trips structurally.
    let csv = export_csv(store.database(), "performances").unwrap();
    let parsed = iokc_util::table::parse_csv(&csv);
    assert_eq!(parsed.len(), 3, "header + 2 rows");
    assert_eq!(parsed[0][1], "command");
    assert!(parsed[1][1].contains("ior -a posix"));
}

#[test]
fn filtering_and_sorting_narrow_the_comparison() {
    let corpus: Vec<Knowledge> = [("16k", 21u64), ("64k", 22), ("512k", 23)]
        .iter()
        .map(|(x, s)| knowledge_for(x, *s))
        .collect();
    let store = store_of(&corpus);
    let filter = RunFilter {
        command: Some("64k".into()),
        ..RunFilter::default()
    };
    let filtered = compare(
        &rows(&store, &filter),
        OptionAxis::TransferSize,
        &MetricAxis::MaxBandwidth("write".into()),
    );
    assert_eq!(filtered.len(), 1);
    assert_eq!(filtered[0].x, (64u64 << 10) as f64);
}
