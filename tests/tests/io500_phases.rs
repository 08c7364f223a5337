//! X1 — the IO500 integration (§V-A): all twelve phases execute, the
//! scoring follows the official formula, output parses back, and the
//! knowledge lands in the paper's `IOFHs*` tables.

use iokc_benchmarks::io500::{run_io500, Io500Config};
use iokc_benchmarks::Io500Generator;
use iokc_core::cycle::ModuleBox;
use iokc_core::KnowledgeCycle;
use iokc_extract::{parse_io500_output, Io500Extractor};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_store::KnowledgeStore;

#[test]
fn twelve_phases_parse_and_persist() {
    let world = World::new(SystemConfig::test_small(), FaultPlan::none(), 21);
    let generator = Io500Generator::new(
        world,
        JobLayout::new(4, 2),
        Io500Config::small("/scratch/io500x"),
    );
    let mut cycle = KnowledgeCycle::new();
    cycle
        .register(ModuleBox::generator(generator))
        .register(ModuleBox::extractor(Io500Extractor))
        .register(ModuleBox::persister(KnowledgeStore::in_memory()));
    let report = cycle.run_once().unwrap();
    assert_eq!(report.extracted, 1);
    assert_eq!(report.persisted_ids, vec![1]);
}

#[test]
fn io500_tables_follow_paper_schema() {
    let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), 23);
    let result = run_io500(
        &mut world,
        JobLayout::new(4, 2),
        &Io500Config::small("/scratch/io500y"),
    )
    .unwrap();
    let mut knowledge = parse_io500_output(&result.render()).unwrap();
    knowledge.tasks = 4;
    knowledge
        .options
        .insert("dir".into(), "/scratch/io500y".into());

    let mut store = KnowledgeStore::in_memory();
    let id = store.save_io500(&knowledge).unwrap();
    let db = store.database();
    assert_eq!(db.row_count("IOFHsRuns").unwrap(), 1);
    assert_eq!(db.row_count("IOFHsScores").unwrap(), 1);
    assert_eq!(db.row_count("IOFHsTestcases").unwrap(), 12);
    assert_eq!(db.row_count("IOFHsResults").unwrap(), 12);
    assert!(db.row_count("IOFHsOptions").unwrap() >= 1);

    // Foreign keys resolve: every testcase row references the run.
    let testcases = db.foreign_key("IOFHsTestcases", "IOFH_id").unwrap();
    let testcases = testcases.children(id as i64);
    assert_eq!(testcases.len(), 12);

    // Reload matches.
    let loaded = store.load_io500(id).unwrap().unwrap();
    assert_eq!(loaded.testcases.len(), 12);
    assert!((loaded.total_score - knowledge.total_score).abs() < 1e-12);
}

#[test]
fn scoring_is_geometric_and_consistent_with_output() {
    let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), 25);
    let result = run_io500(
        &mut world,
        JobLayout::new(4, 2),
        &Io500Config::small("/scratch/io500z"),
    )
    .unwrap();
    let parsed = parse_io500_output(&result.render()).unwrap();
    // Rendered (6-decimal) scores round-trip.
    assert!((parsed.bw_score - result.bw_score).abs() < 1e-5);
    assert!((parsed.md_score - result.md_score).abs() < 1e-5);
    assert!((parsed.total_score - (result.bw_score * result.md_score).sqrt()).abs() < 1e-5);
    // Canonical IO500 orderings.
    let value = |name: &str| result.phase(name).unwrap().value;
    assert!(value("ior-easy-write") > value("ior-hard-write"));
    assert!(value("mdtest-easy-write") >= value("mdtest-hard-write") * 0.8);
}
