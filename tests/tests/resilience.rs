//! Process-level fault harness: the knowledge cycle under injected
//! failures — generator crashes mid-sweep, torn store writes, corrupt
//! Darshan logs, repeatedly failing analyzers — must degrade, retry and
//! recover instead of aborting or silently corrupting knowledge.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};

use iokc_benchmarks::{IorConfig, IorGenerator};
use iokc_core::cycle::ModuleBox;
use iokc_core::model::{Knowledge, KnowledgeItem, KnowledgeSource, OperationSummary};
use iokc_core::phases::{
    Analyzer, Artifact, ArtifactKind, CycleError, Finding, Generator, PhaseKind,
};
use iokc_core::resilience::{AttemptOutcome, ResilienceConfig, RetryPolicy};
use iokc_core::{KnowledgeCycle, PhaseCtx};
use iokc_darshan::{encode, LogBuilder, Module};
use iokc_extract::{DarshanExtractor, IorExtractor};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::{CrashSchedule, FaultPlan};
use iokc_sim::prelude::SystemConfig;
use iokc_store::{persist, DbError, KnowledgeStore, Query};

fn scratch_dir(tag: &str) -> PathBuf {
    static CASE: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iokc-resilience-{}-{}-{}",
        std::process::id(),
        tag,
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn ior_generator(crashes: CrashSchedule) -> IorGenerator {
    let config =
        IorConfig::parse_command("ior -a posix -b 1m -t 256k -s 1 -F -i 2 -o /scratch/resil -k")
            .unwrap();
    let world = World::new(SystemConfig::test_small(), FaultPlan::none(), 7);
    let mut generator = IorGenerator::new(world, JobLayout::new(2, 2), config, 7);
    generator.crashes = crashes;
    generator
}

/// Analyzer probe capturing the corpus the analysis phase observed.
struct Probe(Rc<RefCell<Vec<KnowledgeItem>>>);

impl Analyzer for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn analyze(
        &self,
        _ctx: &mut PhaseCtx,
        items: &[KnowledgeItem],
    ) -> Result<Vec<Finding>, CycleError> {
        *self.0.borrow_mut() = items.to_vec();
        Ok(Vec::new())
    }
}

/// Analyzer that always fails (transiently), for quarantine tests.
struct FailingAnalyzer;

impl Analyzer for FailingAnalyzer {
    fn name(&self) -> &str {
        "failing-analyzer"
    }
    fn analyze(
        &self,
        _ctx: &mut PhaseCtx,
        _items: &[KnowledgeItem],
    ) -> Result<Vec<Finding>, CycleError> {
        Err(CycleError::transient(
            PhaseKind::Analysis,
            "failing-analyzer",
            "synthetic analysis failure",
        ))
    }
}

/// Generator emitting a Darshan log torn at an arbitrary byte offset.
struct TornDarshanGen {
    keep_fraction: f64,
}

impl Generator for TornDarshanGen {
    fn name(&self) -> &str {
        "torn-darshan-gen"
    }
    fn generate(&mut self, _ctx: &mut PhaseCtx) -> Result<Vec<Artifact>, CycleError> {
        let mut b = LogBuilder::new(99, 8, "app", false);
        b.set_times(5000, 5090);
        for rank in 0..4 {
            let path = format!("/scratch/out.{rank}");
            b.open(Module::Posix, &path, rank, 0.0, 0.1);
            b.transfer(&path, rank, true, 0, 32 << 20, 0.1, 2.1, None);
            b.close(Module::Posix, &path, rank, 2.1, 2.2);
        }
        let bytes = encode(&b.finish());
        let keep = ((bytes.len() as f64) * self.keep_fraction) as usize;
        Ok(vec![Artifact::binary(
            ArtifactKind::DarshanLog,
            "darshan",
            bytes[..keep].to_vec(),
        )])
    }
}

#[test]
fn generator_crash_mid_sweep_is_retried_to_success() {
    let mut cycle = KnowledgeCycle::new();
    cycle.set_resilience(
        ResilienceConfig::new().with_retry(RetryPolicy::with_retries(3).seeded(11)),
    );
    cycle
        .register(ModuleBox::generator(ior_generator(CrashSchedule::first_n(
            2,
        ))))
        .register(ModuleBox::extractor(IorExtractor))
        .register(ModuleBox::persister(KnowledgeStore::in_memory()));

    let report = cycle.run_once().expect("cycle survives the crashes");
    assert!(report.artifacts > 0);
    assert_eq!(report.persisted_ids.len(), 1);

    let gen = report
        .attempts
        .iter()
        .find(|a| a.module == "ior-generator")
        .expect("generator attempt record");
    assert_eq!(gen.attempts, 3, "two crashes then success");
    assert_eq!(gen.outcome, AttemptOutcome::Succeeded);
    assert!(gen.backoff_ms > 0, "virtual backoff was accounted");
    assert!(report.fully_healthy() || !report.degradations.is_empty());
}

#[test]
fn sole_generator_crashing_past_the_budget_is_critical() {
    let mut cycle = KnowledgeCycle::new();
    cycle.set_resilience(ResilienceConfig::new().with_retry(RetryPolicy::with_retries(1)));
    cycle
        .register(ModuleBox::generator(ior_generator(CrashSchedule::first_n(
            10,
        ))))
        .register(ModuleBox::extractor(IorExtractor))
        .register(ModuleBox::persister(KnowledgeStore::in_memory()));

    let err = cycle.run_once().expect_err("sole generator is critical");
    assert_eq!(err.phase, PhaseKind::Generation);
    assert!(err.message.contains("injected crash"));
}

fn sample_knowledge(tag: &str) -> Knowledge {
    let mut k = Knowledge::new(KnowledgeSource::Ior, &format!("ior -o /scratch/{tag}"));
    k.pattern.api = "POSIX".to_owned();
    k.pattern.tasks = 4;
    k.summaries.push(OperationSummary {
        operation: "write".to_owned(),
        api: "POSIX".to_owned(),
        max_mib: 100.0,
        min_mib: 90.0,
        mean_mib: 95.0,
        stddev_mib: 5.0,
        mean_ops: 50.0,
        iterations: 2,
    });
    k
}

/// The two ways a crash or a bad disk can cut a store file short. A
/// cut manifest is corruption — the CLI's exit-5 class — and is never
/// answered from a subset of the runs; restored, every run is back. A
/// cut log tail is what a crash mid-append leaves: the acknowledged
/// prefix opens.
#[test]
fn torn_manifest_is_corrupt_and_a_torn_log_tail_keeps_the_acknowledged_prefix() {
    let dir = scratch_dir("torn");
    let path = dir.join("knowledge.json");
    let commands = |store: &KnowledgeStore| -> Vec<String> {
        let items = store.query_items(&Query::all()).unwrap();
        let command = |item: &KnowledgeItem| match item {
            KnowledgeItem::Benchmark(k) => k.command.clone(),
            KnowledgeItem::Io500(_) => panic!("wrong kind"),
        };
        items.iter().map(command).collect()
    };

    // Five runs: three sealed into a segment, two in the log.
    let tags = ["gen1", "gen2", "gen3", "gen4", "gen5"];
    let mut store = KnowledgeStore::open(path.clone()).unwrap();
    store.set_seal_threshold(3);
    for tag in tags {
        store.save_knowledge(&sample_knowledge(tag)).unwrap();
    }
    drop(store);

    let manifest = std::fs::read(&path).unwrap();
    persist::inject_torn_write(&path, manifest.len() as u64 / 2).unwrap();
    let Err(err) = KnowledgeStore::open(path.clone()) else {
        panic!("opened a store whose manifest does not verify");
    };
    assert!(matches!(err, DbError::Corrupt(_)), "{err}");
    let degraded = KnowledgeStore::open_or_degraded(path.clone());
    assert!(degraded.is_read_only());
    assert_eq!(degraded.health().status(), "degraded");
    std::fs::write(&path, &manifest).unwrap();
    assert_eq!(
        commands(&KnowledgeStore::open(path.clone()).unwrap()).len(),
        5
    );

    let log = persist::wal_path(&path, 1);
    let len = std::fs::metadata(&log).unwrap().len();
    persist::inject_torn_write(&log, len - 3).unwrap();
    let store = KnowledgeStore::open(path).unwrap();
    assert!(!store.is_read_only());
    let survivors = commands(&store);
    assert_eq!(survivors.len(), 4, "{survivors:?}");
    assert!(survivors.iter().zip(tags).all(|(c, tag)| c.ends_with(tag)));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn corrupt_darshan_log_degrades_to_partial_knowledge() {
    let corpus = Rc::new(RefCell::new(Vec::new()));
    let mut cycle = KnowledgeCycle::new();
    cycle
        .register(ModuleBox::generator(TornDarshanGen { keep_fraction: 0.6 }))
        .register(ModuleBox::extractor(DarshanExtractor))
        .register(ModuleBox::persister(KnowledgeStore::in_memory()))
        .register(ModuleBox::analyzer(Probe(Rc::clone(&corpus))));

    let report = cycle.run_once().expect("cycle survives the corrupt log");
    assert_eq!(report.extracted, 1);

    let corpus = corpus.borrow();
    let KnowledgeItem::Benchmark(k) = &corpus[0] else {
        panic!("wrong kind")
    };
    assert!(k.is_partial(), "warnings: {:?}", k.warnings);
    assert!(k.warnings.iter().any(|w| w.contains("decoded partially")));
    // The job header survived.
    assert_eq!(k.pattern.tasks, 8);
    assert_eq!(k.start_time, 5000);
}

#[test]
fn repeatedly_failing_analyzer_is_quarantined_not_fatal() {
    let mut cycle = KnowledgeCycle::new();
    cycle.set_resilience(ResilienceConfig::new().with_quarantine_threshold(2));
    cycle
        .register(ModuleBox::generator(ior_generator(CrashSchedule::none())))
        .register(ModuleBox::extractor(IorExtractor))
        .register(ModuleBox::persister(KnowledgeStore::in_memory()))
        .register(ModuleBox::analyzer(FailingAnalyzer));

    // Two failing iterations trip the threshold …
    let r1 = cycle.run_once().unwrap();
    assert!(r1
        .degradations
        .iter()
        .any(|d| d.1.contains("failing-analyzer")));
    let r2 = cycle.run_once().unwrap();
    assert!(r2
        .findings
        .iter()
        .any(|f| f.tag == "quarantine" && f.message.contains("failing-analyzer")));

    // … and the third iteration skips the module with a recorded finding.
    let r3 = cycle.run_once().unwrap();
    assert!(r3
        .quarantined
        .iter()
        .any(|(p, m)| *p == PhaseKind::Analysis && m == "failing-analyzer"));
    let skip = r3
        .attempts
        .iter()
        .find(|a| a.module == "failing-analyzer")
        .unwrap();
    assert_eq!(skip.outcome, AttemptOutcome::Skipped);
    assert_eq!(skip.attempts, 0);

    // Lifting the quarantine re-invokes the module.
    cycle.release_quarantine(PhaseKind::Analysis, "failing-analyzer");
    let r4 = cycle.run_once().unwrap();
    let rec = r4
        .attempts
        .iter()
        .find(|a| a.module == "failing-analyzer")
        .unwrap();
    assert!(rec.attempts > 0);
}

#[test]
fn retry_accounting_is_deterministic_end_to_end() {
    let run = || {
        let mut cycle = KnowledgeCycle::new();
        cycle.set_resilience(
            ResilienceConfig::new().with_retry(RetryPolicy::with_retries(4).seeded(23)),
        );
        cycle
            .register(ModuleBox::generator(ior_generator(
                CrashSchedule::at_attempts(&[0, 1, 2]),
            )))
            .register(ModuleBox::extractor(IorExtractor))
            .register(ModuleBox::persister(KnowledgeStore::in_memory()));
        cycle.run_once().unwrap().attempts
    };
    let first = run();
    assert_eq!(first, run(), "identical seeds give identical schedules");
    let gen = first.iter().find(|a| a.module == "ior-generator").unwrap();
    assert_eq!(gen.attempts, 4, "three crashes, then success on attempt 4");
}
