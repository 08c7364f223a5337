//! End-to-end campaign durability harness.
//!
//! Drives the full stack — JUBE config → supervised executor →
//! simulated IOR runs — through the failure shapes the campaign layer
//! exists for: a worker killed mid-workpackage (retried in place), a
//! poisoned parameter value (quarantined without failing the sweep),
//! and the whole campaign process dying at workpackage `k` (resumed
//! from the journal, re-running only unfinished work, with result
//! tables identical to an uninterrupted run).

use iokc_benchmarks::SimCampaignRunner;
use iokc_core::resilience::RetryPolicy;
use iokc_jube::campaign::replay;
use iokc_jube::{journal_path, run_campaign, CampaignOptions, JubeConfig};
use iokc_sim::faults::CrashSchedule;
use iokc_store::StdVfs;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// 4 transfer sizes x 4 segment counts = 16 workpackages; the `bogus`
/// transfer size cannot be parsed by IOR, so its four combinations fail
/// permanently and must be quarantined.
const CONFIG: &str = "\
benchmark ior-campaign-e2e
param xfer = 1m, 2m, 4m, bogus
param sseg = 1, 2, 4, 8
step run = ior -a mpiio -t $xfer -b 4m -s $sseg -i 1 -o /scratch/e$wp/t -k
pattern write_bw = Max Write: {bw:f} MiB/sec
";

const TOTAL: usize = 16;
const POISONED: usize = 4; // the xfer=bogus block, wp ids 12..=15

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iokc-e2e-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("campaign dir");
    dir
}

fn options() -> CampaignOptions {
    CampaignOptions {
        max_parallel: 4,
        retry: RetryPolicy::with_retries(2).seeded(42),
        quarantine_threshold: 3,
        ..CampaignOptions::default()
    }
}

#[test]
fn campaign_survives_worker_crash_process_death_and_poisoned_params() {
    let config = JubeConfig::parse(CONFIG).expect("valid config");
    assert_eq!(config.expand().len(), TOTAL);

    // ---- Phase A: uninterrupted reference run -------------------------
    let dir_a = scratch("reference");
    let hooks = SimCampaignRunner::new(42, 8, 4);
    let reference = run_campaign(&config, &dir_a, &StdVfs, &options(), || hooks.runner())
        .expect("reference campaign");
    assert!(
        reference.summary.is_complete(),
        "quarantined combinations must not fail the sweep: {}",
        reference.summary
    );
    assert_eq!(reference.summary.completed, TOTAL - POISONED);
    assert_eq!(reference.summary.quarantined, POISONED);
    let quarantined_ids: BTreeSet<usize> =
        reference.quarantined.iter().map(|(wp, _)| *wp).collect();
    assert_eq!(quarantined_ids, (12..16).collect::<BTreeSet<usize>>());
    for (_, reason) in &reference.quarantined {
        assert!(reason.contains("permanent failure"), "{reason}");
    }
    let reference_table = reference.workspace.result_table(&config).render();
    assert_eq!(reference_table.lines().count(), 2 + TOTAL - POISONED);

    // ---- Phase B: worker crash at wp 2 + process death at wp k --------
    let dir_b = scratch("crash");
    // Workpackage 2's first attempt is killed mid-workpackage: the
    // supervisor must retry it within the same campaign run.
    let crashes = Arc::new(Mutex::new(CrashSchedule::at_workpackages(&[(2, 0)])));
    let hooks = SimCampaignRunner::new(42, 8, 4).with_crashes(Arc::clone(&crashes));
    // After k successful workpackage completions the whole campaign
    // "process" dies: workers stop and discard unjournaled results.
    let k = 5;
    let abort = Arc::new(AtomicBool::new(false));
    let completions = AtomicUsize::new(0);
    let crash_options = CampaignOptions {
        abort: Some(Arc::clone(&abort)),
        ..options()
    };
    let crashed = run_campaign(&config, &dir_b, &StdVfs, &crash_options, || {
        let mut inner = hooks.runner();
        let abort = Arc::clone(&abort);
        let completions = &completions;
        move |wp: usize, step: &str, command: &str| {
            let result = inner(wp, step, command);
            if result.is_ok() && completions.fetch_add(1, Ordering::SeqCst) + 1 >= k {
                abort.store(true, Ordering::SeqCst);
            }
            result
        }
    })
    .expect("crashed campaign");
    assert!(crashed.aborted);
    assert!(!crashed.summary.is_complete());
    assert!(
        crashes.lock().expect("schedule lock").worker_calls(2) >= 1,
        "the keyed crash schedule fired"
    );

    // ---- Phase C: resume from the journal -----------------------------
    let state = replay(&journal_path(&dir_b)).expect("replay");
    let done_before: BTreeSet<usize> = state.done.keys().copied().collect();
    let pending: BTreeSet<usize> = (0..TOTAL).filter(|wp| state.is_pending(*wp)).collect();
    assert!(
        !done_before.is_empty(),
        "some work was journaled before the crash"
    );
    assert!(!pending.is_empty(), "the crash left unfinished work");

    let executed = Mutex::new(BTreeSet::new());
    let hooks = SimCampaignRunner::new(42, 8, 4);
    let resumed = run_campaign(&config, &dir_b, &StdVfs, &options(), || {
        let mut inner = hooks.runner();
        let executed = &executed;
        move |wp: usize, step: &str, command: &str| {
            executed
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(wp);
            inner(wp, step, command)
        }
    })
    .expect("resumed campaign");
    let executed = executed
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();

    // Only unfinished workpackages re-ran; completed ones replayed from
    // the journal without touching the simulator.
    assert_eq!(
        executed, pending,
        "resume re-runs exactly the unfinished work"
    );
    assert!(executed.is_disjoint(&done_before));
    assert_eq!(resumed.summary.replayed, done_before.len());
    assert!(resumed.summary.is_complete(), "{}", resumed.summary);
    assert_eq!(resumed.summary.quarantined, POISONED);

    // The interrupted-and-resumed campaign is indistinguishable from the
    // uninterrupted one.
    assert_eq!(
        resumed.workspace.result_table(&config).render(),
        reference_table
    );

    std::fs::remove_dir_all(&dir_a).expect("cleanup");
    std::fs::remove_dir_all(&dir_b).expect("cleanup");
}

#[test]
fn resume_rejects_a_different_configuration() {
    let config = JubeConfig::parse(CONFIG).expect("valid config");
    let dir = scratch("mismatch");
    let hooks = SimCampaignRunner::new(42, 4, 4);
    run_campaign(&config, &dir, &StdVfs, &options(), || hooks.runner()).expect("campaign");
    let other = JubeConfig::parse(
        "benchmark other\nparam xfer = 1m\nstep run = ior -a mpiio -t $xfer -b 4m -s 1 -i 1 -o /scratch/m$wp/t -k\n",
    )
    .expect("valid config");
    let err = run_campaign(&other, &dir, &StdVfs, &options(), || hooks.runner())
        .expect_err("fingerprint mismatch");
    assert!(
        matches!(err, iokc_jube::CampaignError::Mismatch { .. }),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
