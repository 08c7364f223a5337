//! The observability layer end to end: sim-backed cycle runs emit a
//! span tree that mirrors the phase registry exactly on the virtual
//! clock, metrics histograms only grow, and a campaign that crashes at
//! workpackage *k* leaves a salvageable event log behind.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use iokc_analysis::IterationVarianceDetector;
use iokc_benchmarks::{IorConfig, IorGenerator};
use iokc_core::cycle::ModuleBox;
use iokc_core::{KnowledgeCycle, Observability};
use iokc_extract::IorExtractor;
use iokc_jube::{run_campaign, CampaignOptions, JubeConfig, StepFailure, StepOutcome};
use iokc_obs::{build_span_tree, Clock, Event, MemorySink, Recorder, SpanStatus, VirtualClock};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_store::{JournalEventSink, KnowledgeStore, StdVfs};
use iokc_usage::RegenerateUsage;

fn sim_cycle(seed: u64) -> KnowledgeCycle {
    let world = World::new(SystemConfig::test_small(), FaultPlan::none(), seed);
    let config = IorConfig::parse_command(
        "ior -a mpiio -b 512k -t 256k -s 1 -F -C -e -i 2 -o /scratch/obs -k",
    )
    .expect("command parses");
    let generator = IorGenerator::new(world, JobLayout::new(2, 2), config, seed);
    let mut cycle = KnowledgeCycle::new();
    cycle
        .register(ModuleBox::generator(generator))
        .register(ModuleBox::extractor(IorExtractor))
        .register(ModuleBox::persister(KnowledgeStore::in_memory()))
        .register(ModuleBox::analyzer(IterationVarianceDetector::default()))
        .register(ModuleBox::usage(RegenerateUsage::default()));
    cycle
}

#[test]
fn span_tree_matches_the_phase_registry_exactly() {
    let sink = Arc::new(MemorySink::new());
    let recorder = Recorder::new(Clock::Virtual(VirtualClock::new()), sink.clone());
    let mut cycle = sim_cycle(41);
    cycle.set_observability(Observability::new(recorder));
    let registry = cycle.registry();

    cycle.run_once().expect("cycle runs");

    let tree = build_span_tree(&sink.snapshot());
    assert_eq!(tree.roots.len(), 1, "one cycle root span");
    assert_eq!(tree.open_spans, 0, "every span closed");
    let root = &tree.roots[0];
    assert_eq!(root.name, "cycle");

    // One phase span per phase, in cycle order, each wrapping exactly
    // the modules the registry lists for that phase.
    assert_eq!(root.children.len(), registry.len());
    for (child, (phase, modules)) in root.children.iter().zip(&registry) {
        assert_eq!(child.name, phase.as_str());
        assert_eq!(child.phase.as_deref(), Some(phase.as_str()));
        let spanned: Vec<&str> = child
            .children
            .iter()
            .map(|m| m.module.as_deref().unwrap_or("?"))
            .collect();
        let registered: Vec<&str> = modules.iter().map(String::as_str).collect();
        assert_eq!(spanned, registered, "phase {phase:?} modules");
        for module in &child.children {
            assert_eq!(module.status, Some(SpanStatus::Ok));
        }
    }

    // On the virtual clock the per-phase durations sum to the cycle
    // total with zero slack — well within the 1% acceptance bound.
    let cycle_ns = root.dur_ns.expect("cycle span closed");
    let phase_sum: u64 = root.children.iter().filter_map(|c| c.dur_ns).sum();
    assert!(cycle_ns > 0, "simulated run advanced the virtual clock");
    assert_eq!(phase_sum, cycle_ns, "phase spans tile the cycle span");
    let drift = (phase_sum as f64 - cycle_ns as f64).abs() / cycle_ns as f64;
    assert!(drift < 0.01, "phase sum within 1% of cycle total");
}

#[test]
fn histograms_are_monotone_under_virtual_time() {
    let recorder = Recorder::new(
        Clock::Virtual(VirtualClock::new()),
        Arc::new(iokc_obs::NullSink),
    );
    let mut cycle = sim_cycle(42);
    cycle.set_observability(Observability::new(recorder));
    let metrics = cycle.observability().metrics();

    let mut last_count = 0;
    let mut last_sum = 0.0;
    let mut last_runs = 0;
    for iteration in 1..=3u64 {
        cycle.run_once().expect("cycle runs");
        let cycle_ms = metrics.histogram("iokc.cycle.ms").snapshot();
        assert_eq!(cycle_ms.count, iteration, "one observation per run");
        assert!(cycle_ms.count > last_count);
        assert!(
            cycle_ms.sum > last_sum,
            "virtual time accrues every iteration: {} !> {last_sum}",
            cycle_ms.sum
        );
        let runs = metrics.counter("iokc.cycle.runs").get();
        assert_eq!(runs, iteration);
        assert!(runs > last_runs);
        last_count = cycle_ms.count;
        last_sum = cycle_ms.sum;
        last_runs = runs;
    }

    // Per-phase histograms observed once per iteration and never exceed
    // the cycle total.
    let phase_sum: f64 = [
        "generation",
        "extraction",
        "persistence",
        "analysis",
        "usage",
    ]
    .iter()
    .map(|phase| {
        let snap = metrics
            .histogram(&format!("iokc.phase.{phase}.ms"))
            .snapshot();
        assert_eq!(snap.count, 3, "phase {phase} observed each iteration");
        snap.sum
    })
    .sum();
    let cycle_sum = metrics.histogram("iokc.cycle.ms").snapshot().sum;
    assert!((phase_sum - cycle_sum).abs() <= cycle_sum * 0.01 + 1e-9);
}

#[test]
fn crash_at_workpackage_k_leaves_a_salvageable_event_log() {
    let dir = std::env::temp_dir().join(format!("iokc-obs-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("campaign dir");
    let events_path = dir.join("events.journal");

    let config = JubeConfig::parse(
        "benchmark crashy\nparam n = 1, 2, 3, 4, 5, 6\nstep run = work -n $n -o out$wp\n",
    )
    .expect("config parses");

    const K: usize = 3;
    let abort = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicUsize::new(0));
    {
        let sink = JournalEventSink::open(&events_path).expect("event journal opens");
        let recorder = Arc::new(Recorder::new(
            Clock::Virtual(VirtualClock::new()),
            Arc::new(sink),
        ));
        let options = CampaignOptions {
            max_parallel: 1,
            abort: Some(Arc::clone(&abort)),
            recorder: Some(Arc::clone(&recorder)),
            ..CampaignOptions::default()
        };
        let report = run_campaign(&config, &dir, &StdVfs, &options, || {
            let abort = Arc::clone(&abort);
            let completed = Arc::clone(&completed);
            move |_wp: usize, _step: &str, _command: &str| -> Result<StepOutcome, StepFailure> {
                // Workpackage K never finishes: the "process" dies here.
                if completed.fetch_add(1, Ordering::SeqCst) + 1 == K {
                    abort.store(true, Ordering::SeqCst);
                }
                Ok(StepOutcome {
                    output: "result 1\n".to_owned(),
                    virtual_ns: Some(50_000_000),
                })
            }
        })
        .expect("aborted campaigns still report");
        assert!(report.aborted);
        assert!(
            report.summary.completed < 6,
            "the crash cut the campaign short"
        );
    }

    // A crash can also tear the last event record mid-append; fuse some
    // torn bytes onto the log to prove salvage still works.
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&events_path)
            .expect("journal reopens");
        file.write_all(b"j1 deadbeef {\"seq\":99,\"ts_n")
            .expect("torn append");
    }

    let salvage = iokc_store::truncate_torn_tail(&events_path).expect("salvage");
    assert!(salvage.torn_tail, "the torn tail was detected and dropped");
    let report = iokc_store::read_journal(&events_path).expect("journal reads");
    let events: Vec<Event> = report
        .records
        .iter()
        .filter_map(|record| Event::parse_record(record))
        .collect();
    assert!(!events.is_empty(), "the valid prefix survived");

    let tree = build_span_tree(&events);
    assert_eq!(tree.roots.len(), 1);
    let root = &tree.roots[0];
    assert_eq!(root.name, "campaign");
    // Workpackages finished before the crash closed cleanly; the event
    // log names them, so a resumed campaign knows what is already done.
    let ok_wps = root
        .children
        .iter()
        .filter(|wp| wp.status == Some(SpanStatus::Ok))
        .count();
    assert!(
        (1..6).contains(&ok_wps),
        "some but not all workpackages completed: {ok_wps}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
