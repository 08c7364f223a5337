//! Crash consistency of corpus generation (`iokc corpus gen`'s library
//! call). The store's own crash contract is checked in `store_model.rs`:
//! fixed histories replayed with a power loss at every operation, and a
//! state machine over random ones. A seeded chaos run over plain saves
//! stays here as a smoke check of the same contract.
//!
//! Here the generation runs on the deterministic [`FaultVfs`], crashed
//! at every virtual-filesystem operation it performs, and every disk
//! image a real disk could expose (`crash_states`) is resumed: it must
//! end in the run set of the uninterrupted run, byte for byte, with the
//! campaign journal its one header record. And the campaign pays for
//! durability per batch, not per point.
//!
//! A sweep campaign (`iokc sweep`'s executor) is crashed the same way,
//! at every operation and at every barrier of its journal: every image
//! resumes to the result table of the uninterrupted run, and no
//! workpackage whose result was durable runs again.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use iokc_benchmarks::corpus::generate;
use iokc_benchmarks::CorpusSpec;
use iokc_core::model::{Knowledge, KnowledgeItem, KnowledgeSource};
use iokc_extract::Io500Extractor;
use iokc_jube::campaign::replay_vfs;
use iokc_jube::{
    run_campaign, CampaignError, CampaignOptions, CampaignReport, JubeConfig, StepFailure,
    StepOutcome,
};
use iokc_store::journal::read_journal_vfs;
use iokc_store::{
    DbError, DeadlineToken, DiskFault, FaultPlan, FaultVfs, KnowledgeStore, Query, RunKind,
    RunPredicate, Vfs,
};

fn kb() -> PathBuf {
    PathBuf::from("/kb.json")
}

fn bench(i: usize) -> Knowledge {
    Knowledge::new(KnowledgeSource::Ior, &format!("ior -t 1m -b 16m #{i}"))
}

#[test]
fn seeded_chaos_never_leaves_the_store_incoherent() {
    for seed in 0..12u64 {
        let plan = FaultPlan::seeded(seed, 200, 5, &DiskFault::CHAOS);
        let vfs = Arc::new(FaultVfs::new(plan));
        let Ok(mut store) = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>)
        else {
            continue;
        };
        let mut last_generation = store.generation();
        for i in 0..10 {
            if store.is_read_only() {
                break;
            }
            match store.save_knowledge(&bench(i)) {
                Ok(_) => {
                    assert!(
                        store.generation() > last_generation,
                        "seed {seed}: acknowledged write did not advance the generation"
                    );
                }
                Err(DbError::ReadOnly(_)) => break,
                Err(_) => {
                    // A failed write must leave memory equal to disk and
                    // the generation untouched (monotone, no phantom
                    // bumps).
                    assert_eq!(store.generation(), last_generation, "seed {seed}");
                }
            }
            last_generation = store.generation();
            assert!(
                store.indexes_consistent().expect("index rebuild"),
                "seed {seed}: indexes diverged after op {i}"
            );
        }
        // Whatever the chaos did, the durable image still opens with
        // consistent indexes.
        let survivor = Arc::new(FaultVfs::from_state(vfs.durable_state()));
        let reopened = KnowledgeStore::open_with_vfs(kb(), survivor as Arc<dyn Vfs>)
            .unwrap_or_else(|e| panic!("seed {seed}: durable image does not reopen: {e}"));
        assert!(reopened.indexes_consistent().expect("index rebuild"));
    }
}

/// Corpus shape for the crash enumeration: three batches (3 + 3 + 2
/// points) over a store that seals every second run, so the first two
/// batches each commit a prefix through a seal before their own log
/// record, and a crash between the two leaves a partial batch durable.
const CORPUS_RUNS: usize = 8;
const CORPUS_BATCH: usize = 3;

fn campaign_dir() -> PathBuf {
    PathBuf::from("/campaign")
}

/// Open the store on `vfs` and generate (or resume) the corpus.
fn run_corpus(vfs: &Arc<FaultVfs>) -> Result<(KnowledgeStore, (usize, usize)), String> {
    let mut store = KnowledgeStore::open_with_vfs(kb(), Arc::clone(vfs) as Arc<dyn Vfs>)
        .map_err(|e| e.to_string())?;
    store.set_seal_threshold(2);
    let spec = CorpusSpec::new(CORPUS_RUNS, 42);
    let done = generate(
        &spec,
        &Io500Extractor,
        &mut store,
        &campaign_dir(),
        CORPUS_BATCH,
    )
    .map_err(|e| e.to_string())?;
    Ok((store, done))
}

/// The corpus as a reader sees it: one line per IO500 run, in id order,
/// with its id, its corpus index and its whole serialized item.
fn corpus_runs(store: &KnowledgeStore) -> Vec<String> {
    store
        .query_summaries(
            &Query::new(RunPredicate::Kind(RunKind::Io500)),
            &DeadlineToken::unbounded(),
        )
        .expect("corpus query")
        .iter()
        .map(|row| {
            let run = store
                .load_io500(row.id)
                .expect("run loads")
                .expect("run exists");
            let index = run.options["corpus_index"].clone();
            let item = KnowledgeItem::Io500(run).to_json().to_compact();
            format!("{} {index} {item}", row.id)
        })
        .collect()
}

#[test]
fn corpus_generation_resumes_to_the_uninterrupted_run_set_from_every_crash_point() {
    let probe_vfs = Arc::new(FaultVfs::pristine());
    let (probe, done) = run_corpus(&probe_vfs).expect("fault-free generation");
    assert_eq!(done, (CORPUS_RUNS, 0));
    let expected = corpus_runs(&probe);
    assert_eq!(expected.len(), CORPUS_RUNS);
    let total_ops = probe_vfs.op_count();
    assert!(total_ops > 40, "generation too small to be interesting");
    let reference = probe_vfs.durable_state();

    let mut images = 0;
    let mut identical = 0;
    for op in 0..total_ops {
        let vfs = Arc::new(FaultVfs::new(FaultPlan::at(op, DiskFault::Crash)));
        // Ok only when the crash hit cleanup the store does not wait on.
        let _ = run_corpus(&vfs);
        assert!(vfs.crashed(), "crash op {op} never fired");

        for state in vfs.crash_states() {
            let svfs = Arc::new(FaultVfs::from_state(state));
            let (resumed, (generated, skipped)) =
                run_corpus(&svfs).unwrap_or_else(|e| panic!("crash op {op}: resume failed: {e}"));
            assert_eq!(generated + skipped, CORPUS_RUNS, "crash op {op}");
            assert_eq!(
                corpus_runs(&resumed),
                expected,
                "crash op {op}: resumed run set differs from the uninterrupted one"
            );
            assert_eq!(resumed.io500_count(), CORPUS_RUNS, "crash op {op}");
            drop(resumed);

            // The journal is the header, whole; a second resume finds
            // nothing to do.
            let journal = iokc_jube::journal_path(&campaign_dir());
            let report = read_journal_vfs(&journal, &*svfs).expect("journal read");
            assert_eq!(
                (report.records.len(), report.torn_tail),
                (1, false),
                "crash op {op}"
            );
            let (_, again) = run_corpus(&svfs).expect("second resume");
            assert_eq!(again, (0, CORPUS_RUNS), "crash op {op}");

            // Same seed, same bytes: every file of the uninterrupted run
            // is there byte for byte. What else is there the crash
            // stranded and no read looks at: a log of an epoch a seal had
            // already moved past.
            images += 1;
            let durable = svfs.durable_state();
            for (path, bytes) in &reference {
                assert!(
                    durable.get(path) == Some(bytes),
                    "crash op {op}: {} differs from the uninterrupted run's",
                    path.display()
                );
            }
            let strays: Vec<&PathBuf> = durable
                .keys()
                .filter(|path| !reference.contains_key(*path))
                .collect();
            for path in &strays {
                let name = path.to_string_lossy();
                assert!(
                    name.contains(".wal-"),
                    "crash op {op}: unexpected file {name}"
                );
            }
            identical += usize::from(strays.is_empty());
        }
    }
    eprintln!(
        "corpus crash enumeration: {total_ops} crash points, {images} images, \
         {identical} end byte-identical to the uninterrupted run, the rest with strays only"
    );
}

/// The campaign pays for durability per batch, not per point: 64 more
/// points in one more batch add that batch's barriers (a `Start` and a
/// `Done` record per point would add 128), and the journal stays one
/// record long.
#[test]
fn corpus_generation_pays_no_barrier_per_point() {
    let syncs = |runs: usize| {
        let vfs = Arc::new(FaultVfs::pristine());
        let mut store = KnowledgeStore::open_with_vfs(kb(), Arc::clone(&vfs) as Arc<dyn Vfs>)
            .expect("open store");
        let spec = CorpusSpec::new(runs, 42);
        let done = generate(&spec, &Io500Extractor, &mut store, &campaign_dir(), 64);
        assert_eq!(done, Ok((runs, 0)));
        let journal = iokc_jube::journal_path(&campaign_dir());
        let report = read_journal_vfs(&journal, &*vfs).expect("journal read");
        assert_eq!(report.records.len(), 1, "{runs} points, one journal record");
        vfs.sync_count()
    };
    let (small, large) = (syncs(64), syncs(128));
    assert!(
        large - small < 8,
        "64 more points cost {} more barriers",
        large - small
    );
}

const SWEEP: &str = "\
benchmark power-loss
param n = 1, 2, 3, 4
step run = work -n $n -o out$wp
pattern value = result {v:f}
";

/// Run (or resume) the four-workpackage sweep on `vfs`, one workpackage
/// at a time, noting in `ran` every workpackage a step ran for.
fn power_loss_sweep(
    vfs: &FaultVfs,
    ran: &Mutex<Vec<usize>>,
) -> Result<CampaignReport, CampaignError> {
    let config = JubeConfig::parse(SWEEP).expect("config parses");
    let options = CampaignOptions {
        max_parallel: 1,
        ..CampaignOptions::default()
    };
    run_campaign(&config, &campaign_dir(), vfs, &options, || {
        |wp: usize, _: &str, command: &str| -> Result<StepOutcome, StepFailure> {
            ran.lock().expect("ran lock").push(wp);
            let n: f64 = command
                .split_whitespace()
                .nth(2)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| StepFailure::permanent("bad command"))?;
            Ok(StepOutcome {
                output: format!("result {}\n", n * 10.0),
                virtual_ns: Some(10_000_000),
            })
        }
    })
}

#[test]
fn a_campaign_resumes_to_the_uninterrupted_table_from_every_power_loss() {
    let config = JubeConfig::parse(SWEEP).expect("config parses");
    let probe = FaultVfs::pristine();
    let reference = power_loss_sweep(&probe, &Mutex::new(Vec::new()))
        .expect("fault-free campaign")
        .workspace
        .result_table(&config)
        .render();
    let crash_points: Vec<(u64, DiskFault)> = (0..probe.op_count())
        .map(|op| (op, DiskFault::Crash))
        .chain((0..probe.sync_count()).map(|sync| (sync, DiskFault::CrashSync)))
        .collect();

    let mut images = 0;
    for &(at, kind) in &crash_points {
        let vfs = FaultVfs::new(FaultPlan::at(at, kind));
        let crashed = power_loss_sweep(&vfs, &Mutex::new(Vec::new()));
        assert!(vfs.crashed(), "{kind:?} at {at} never fired");
        assert!(
            crashed.is_err(),
            "{kind:?} at {at}: a lost journal write is an error"
        );
        for state in vfs.crash_states() {
            let svfs = FaultVfs::from_state(state);
            let journal = iokc_jube::journal_path(&campaign_dir());
            let durable: BTreeSet<usize> = replay_vfs(&journal, &svfs)
                .expect("image replays")
                .done
                .into_keys()
                .collect();
            let ran = Mutex::new(Vec::new());
            let resumed = power_loss_sweep(&svfs, &ran)
                .unwrap_or_else(|e| panic!("{kind:?} at {at}: resume failed: {e}"));
            assert!(
                resumed.summary.is_complete(),
                "{kind:?} at {at}: {}",
                resumed.summary
            );
            assert_eq!(
                resumed.workspace.result_table(&config).render(),
                reference,
                "{kind:?} at {at}: resumed table differs from the uninterrupted one"
            );
            let ran = ran.into_inner().expect("ran lock");
            assert!(
                ran.iter().all(|wp| !durable.contains(wp)),
                "{kind:?} at {at}: durable workpackages {durable:?} ran again: {ran:?}"
            );
            assert_eq!(resumed.summary.replayed, durable.len(), "{kind:?} at {at}");
            // What the resume journaled is readable: a second one runs
            // nothing.
            let ran = Mutex::new(Vec::new());
            let again = power_loss_sweep(&svfs, &ran).expect("second resume");
            let ran = ran.into_inner().expect("ran lock");
            assert!(
                ran.is_empty(),
                "{kind:?} at {at}: a second resume ran {ran:?}"
            );
            assert_eq!(again.summary.replayed, 4, "{kind:?} at {at}");
            images += 1;
        }
    }
    eprintln!(
        "campaign power-loss enumeration: {} crash points, {images} images",
        crash_points.len()
    );
}
