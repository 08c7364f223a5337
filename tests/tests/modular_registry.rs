//! F4 — the modular architecture (paper Fig. 4): independent phase
//! modules registered side by side, local + "global" databases receiving
//! the same knowledge, and knowledge flowing between environments as
//! JSON.

use iokc_benchmarks::{Io500Config, Io500Generator, IorConfig, IorGenerator};
use iokc_core::cycle::ModuleBox;
use iokc_core::model::KnowledgeItem;
use iokc_core::phases::{Persister, PhaseKind};
use iokc_core::{KnowledgeCycle, PhaseCtx};
use iokc_extract::{Io500Extractor, IorExtractor};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_store::KnowledgeStore;

fn world(seed: u64) -> World {
    World::new(SystemConfig::test_small(), FaultPlan::none(), seed)
}

#[test]
fn two_generators_two_extractors_two_databases() {
    let ior_config =
        IorConfig::parse_command("ior -a mpiio -b 512k -t 256k -s 1 -F -i 1 -o /scratch/m1 -k")
            .unwrap();
    // Clear the whole scratch dir: a store is its manifest plus the log
    // and segment files beside it.
    let dir = std::env::temp_dir().join("iokc-integration-registry");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let local_path = dir.join("local.iokc.json");
    let global_path = dir.join("global.iokc.json");

    let mut cycle = KnowledgeCycle::new();
    cycle
        .register(ModuleBox::generator(IorGenerator::new(
            world(61),
            JobLayout::new(2, 2),
            ior_config,
            1,
        )))
        .register(ModuleBox::generator(Io500Generator::new(
            world(62),
            JobLayout::new(2, 2),
            Io500Config::small("/scratch/m500"),
        )))
        .register(ModuleBox::extractor(IorExtractor))
        .register(ModuleBox::extractor(Io500Extractor))
        // Fig. 4: a local database and a global (shared) one.
        .register(ModuleBox::persister(
            KnowledgeStore::open(local_path.clone()).unwrap(),
        ))
        .register(ModuleBox::persister(
            KnowledgeStore::open(global_path.clone()).unwrap(),
        ));

    let registry = cycle.registry();
    assert_eq!(registry[0].1.len(), 2, "two generators registered");
    assert_eq!(registry[1].1.len(), 2, "two extractors registered");
    assert_eq!(registry[2].1.len(), 2, "local + global persisters");
    assert_eq!(registry[0].0, PhaseKind::Generation);

    let report = cycle.run_once().unwrap();
    assert_eq!(report.extracted, 2, "one IOR + one IO500 knowledge object");

    // Both databases hold the same knowledge.
    let local = KnowledgeStore::open(local_path.clone()).unwrap();
    let global = KnowledgeStore::open(global_path.clone()).unwrap();
    assert_eq!(local.knowledge_count(), 1);
    assert_eq!(local.io500_count(), 1);
    assert_eq!(global.knowledge_count(), 1);
    assert_eq!(global.io500_count(), 1);
    let mut ctx = PhaseCtx::detached(PhaseKind::Persistence, "knowledge-store");
    assert_eq!(
        Persister::load_all(&local, &mut ctx).unwrap(),
        Persister::load_all(&global, &mut ctx).unwrap()
    );
    std::fs::remove_file(&local_path).unwrap();
    std::fs::remove_file(&global_path).unwrap();
}

#[test]
fn knowledge_travels_between_environments_as_json() {
    // The cluster side generates and serializes; the workstation side
    // parses and analyzes — Fig. 4's two-environment split.
    let ior_config = IorConfig::parse_command(
        "ior -a posix -b 512k -t 256k -s 2 -F -C -e -i 4 -o /scratch/j -k",
    )
    .unwrap();
    let mut generator = IorGenerator::new(world(63), JobLayout::new(4, 2), ior_config, 2);
    let mut cycle = KnowledgeCycle::new();
    let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    struct Probe(std::rc::Rc<std::cell::RefCell<Vec<KnowledgeItem>>>);
    impl iokc_core::phases::Analyzer for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn analyze(
            &self,
            _ctx: &mut PhaseCtx,
            items: &[KnowledgeItem],
        ) -> Result<Vec<iokc_core::phases::Finding>, iokc_core::phases::CycleError> {
            self.0.borrow_mut().extend(items.to_vec());
            Ok(Vec::new())
        }
    }
    generator.with_darshan = false;
    cycle
        .register(ModuleBox::generator(generator))
        .register(ModuleBox::extractor(IorExtractor))
        .register(ModuleBox::analyzer(Probe(seen.clone())));
    cycle.run_once().unwrap();

    let items = seen.borrow();
    let wire: String = items[0].to_json().to_pretty();
    // "Workstation": parse the JSON back and run analysis there.
    let parsed = iokc_util::json::parse(&wire).unwrap();
    let item = KnowledgeItem::from_json(&parsed).unwrap();
    assert_eq!(item, items[0]);
    let KnowledgeItem::Benchmark(k) = item else {
        panic!("benchmark expected")
    };
    assert_eq!(k.series("write").len(), 4);
}
