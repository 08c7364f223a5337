//! Property tests for campaign durability.
//!
//! The two invariants the campaign layer promises:
//!
//! 1. *Any* truncation of the journal — a crash can cut the file at any
//!    byte — leaves a resumable campaign that re-runs exactly the
//!    workpackages whose completion did not survive, and still converges
//!    to the same result table.
//! 2. A campaign that crashes after `k` workpackages and resumes
//!    produces result tables identical to an uninterrupted run,
//!    regardless of crash point or worker-pool width.

use iokc_jube::campaign::replay;
use iokc_jube::{
    journal_path, run_campaign, CampaignOptions, JubeConfig, StepFailure, StepOutcome,
};
use iokc_store::StdVfs;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const CONFIG: &str = "\
benchmark props
param a = 1, 2, 3
param b = 10, 20
step run = work -a $a -b $b -o out$wp
pattern v = value {v:f}
";

fn scratch(tag: &str, case: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iokc-props-{tag}-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("campaign dir");
    dir
}

/// Deterministic runner: output depends only on the workpackage params.
fn runner() -> impl FnMut(usize, &str, &str) -> Result<StepOutcome, StepFailure> {
    |_, _, command: &str| {
        let field = |flag: &str| -> f64 {
            command
                .split_whitespace()
                .skip_while(|t| *t != flag)
                .nth(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        Ok(StepOutcome {
            output: format!("value {}\n", field("-a") * 100.0 + field("-b")),
            virtual_ns: Some(10_000_000),
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_journal_resumes_rerunning_only_unfinished(frac in 0.0f64..1.0, case in 0usize..1_000_000) {
        let config = JubeConfig::parse(CONFIG).expect("valid config");
        let dir = scratch("truncate", case);

        // Reference: an uninterrupted campaign and its journal bytes.
        let reference =
            run_campaign(&config, &dir, &StdVfs, &CampaignOptions::default(), runner).expect("reference");
        let reference_table = reference.workspace.result_table(&config).render();
        let path = journal_path(&dir);
        let full = std::fs::metadata(&path).expect("journal metadata").len();

        // Crash: cut the journal at an arbitrary byte offset.
        let keep = (frac * full as f64) as u64;
        iokc_store::persist::inject_torn_write(&path, keep).expect("torn write");
        let salvaged_done: BTreeSet<usize> =
            replay(&path).expect("replay").done.keys().copied().collect();

        // Resume: only workpackages whose completion was lost re-run.
        let executed = Mutex::new(BTreeSet::new());
        let resumed = run_campaign(&config, &dir, &StdVfs, &CampaignOptions::default(), || {
            let executed = &executed;
            move |wp: usize, step: &str, command: &str| {
                executed
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(wp);
                runner()(wp, step, command)
            }
        })
        .expect("resume");
        let executed = executed
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        let expected: BTreeSet<usize> =
            (0..6).filter(|wp| !salvaged_done.contains(wp)).collect();
        prop_assert_eq!(&executed, &expected, "keep={} of {}", keep, full);
        prop_assert!(resumed.summary.is_complete());
        prop_assert_eq!(resumed.summary.replayed, salvaged_done.len());
        prop_assert_eq!(
            resumed.workspace.result_table(&config).render(),
            reference_table.clone()
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn crash_at_k_plus_resume_equals_fresh_run(k in 0usize..7, width in 1usize..5, case in 0usize..1_000_000) {
        let config = JubeConfig::parse(CONFIG).expect("valid config");

        // Uninterrupted run.
        let dir_fresh = scratch("fresh", case);
        let fresh = run_campaign(&config, &dir_fresh, &StdVfs, &CampaignOptions::default(), runner)
            .expect("fresh");
        let fresh_table = fresh.workspace.result_table(&config).render();

        // Crash after k completed workpackages, then resume.
        let dir_crash = scratch("crash", case);
        let abort = Arc::new(AtomicBool::new(false));
        let completed = AtomicUsize::new(0);
        let options = CampaignOptions {
            max_parallel: width,
            abort: Some(Arc::clone(&abort)),
            ..CampaignOptions::default()
        };
        let crashed = run_campaign(&config, &dir_crash, &StdVfs, &options, || {
            let abort = Arc::clone(&abort);
            let completed = &completed;
            move |wp: usize, step: &str, command: &str| {
                let out = runner()(wp, step, command);
                if completed.fetch_add(1, Ordering::SeqCst) + 1 >= k {
                    abort.store(true, Ordering::SeqCst);
                }
                out
            }
        })
        .expect("crashed run");
        prop_assert!(crashed.aborted || crashed.summary.is_complete());

        let resumed = run_campaign(&config, &dir_crash, &StdVfs, &CampaignOptions::default(), runner)
            .expect("resume");
        prop_assert!(resumed.summary.is_complete());
        prop_assert_eq!(
            resumed.workspace.result_table(&config).render(),
            fresh_table.clone()
        );
        std::fs::remove_dir_all(&dir_fresh).expect("cleanup");
        std::fs::remove_dir_all(&dir_crash).expect("cleanup");
    }
}
