//! E1 — Example I (new knowledge generation) at test scale: the cycle
//! loads a command, mutates it through the usage phase, re-runs, and the
//! knowledge base grows one generation per iteration.

use iokc_benchmarks::{IorConfig, IorGenerator};
use iokc_core::cycle::ModuleBox;
use iokc_core::model::KnowledgeItem;
use iokc_core::phases::{Persister, PhaseKind};
use iokc_core::{KnowledgeCycle, PhaseCtx};
use iokc_extract::IorExtractor;
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_store::KnowledgeStore;
use iokc_usage::{CommandBuilder, RegenerateUsage};

#[test]
fn iterative_cycle_grows_the_corpus() {
    // Clear the whole scratch dir: a store is its manifest plus the log
    // and segment files beside it.
    let dir = std::env::temp_dir().join("iokc-integration-e1");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e1.iokc.json");

    let world = World::new(SystemConfig::test_small(), FaultPlan::none(), 3);
    let config = IorConfig::parse_command(
        "ior -a mpiio -b 512k -t 256k -s 1 -F -C -e -i 1 -o /scratch/e1 -k",
    )
    .unwrap();
    let generator = IorGenerator::new(world, JobLayout::new(2, 2), config, 11);

    let mut cycle = KnowledgeCycle::new();
    cycle
        .register(ModuleBox::generator(generator))
        .register(ModuleBox::extractor(IorExtractor))
        .register(ModuleBox::persister(
            KnowledgeStore::open(path.clone()).unwrap(),
        ))
        .register(ModuleBox::usage(RegenerateUsage::default()));
    let reports = cycle.run_iterative(3).unwrap();
    assert_eq!(reports.len(), 3);

    let store = KnowledgeStore::open(path.clone()).unwrap();
    let mut ctx = PhaseCtx::detached(PhaseKind::Persistence, "knowledge-store");
    let items = Persister::load_all(&store, &mut ctx).unwrap();
    assert_eq!(items.len(), 3, "one knowledge object per generation");
    let blocks: Vec<u64> = items
        .iter()
        .map(|item| match item {
            KnowledgeItem::Benchmark(k) => k.pattern.block_size,
            KnowledgeItem::Io500(_) => panic!("unexpected io500 item"),
        })
        .collect();
    assert_eq!(
        blocks,
        vec![512 << 10, 1 << 20, 2 << 20],
        "block doubles each cycle"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn create_configuration_matches_paper_flow() {
    // §V-E1: load the previously applied command, modify it, create the
    // new command, run it. Here against a live world.
    let paper = "ior -a mpiio -b 4m -t 2m -s 40 -F -C -e -i 6 -o /scratch/fuchs/zhuz/test80 -k";
    let mut builder = CommandBuilder::load(paper);
    builder
        .set("-s", "2")
        .set("-i", "1")
        .set("-o", "/scratch/new");
    let created = builder.build();

    let config = IorConfig::parse_command(&created).expect("created command is runnable");
    assert_eq!(config.segments, 2);
    assert_eq!(config.iterations, 1);
    assert_eq!(config.test_file, "/scratch/new");
    // The untouched options survive the mutation.
    assert_eq!(config.block_size, 4 << 20);
    assert!(config.file_per_proc && config.reorder_tasks && config.fsync);

    let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), 13);
    let result =
        iokc_benchmarks::ior::run_ior(&mut world, JobLayout::new(4, 2), &config, 1).unwrap();
    assert!(result.max_bw(iokc_benchmarks::Access::Write) > 0.0);
}
