//! Campaign runner hooks: simulated benchmark steps for the supervised
//! sweep executor.
//!
//! [`iokc_jube::run_campaign`] is benchmark-agnostic — it asks a runner
//! factory for a fresh runner per workpackage attempt. This module
//! supplies that runner for the simulated system: each step command is
//! parsed as an IOR or mdtest invocation, executed in its own simulated
//! world (seeded per workpackage so campaigns are reproducible), and
//! reported back with the world's virtual clock so per-workpackage
//! deadlines are deterministic in tests.
//!
//! Fault-harness tests plug in a shared [`CrashSchedule`]: before a
//! workpackage's first step runs, the schedule decides whether this
//! worker "dies" mid-workpackage ([`iokc_sim::faults::CrashSchedule::tick_worker`]),
//! producing the transient failure shape the supervisor retries.

use crate::ior::{run_ior, IorConfig};
use crate::mdtest::{run_mdtest, MdtestConfig};
use crate::mkdir_p;
use iokc_jube::{StepFailure, StepOutcome};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::{CrashSchedule, FaultPlan};
use iokc_sim::prelude::SystemConfig;
use std::sync::{Arc, Mutex};

/// A boxed campaign step runner, as consumed by
/// [`iokc_jube::run_campaign`]'s runner factory.
pub type CampaignRunner =
    Box<dyn FnMut(usize, &str, &str) -> Result<StepOutcome, StepFailure> + Send>;

/// Builds per-attempt step runners that execute sweep commands on the
/// simulated FUCHS-CSC system.
#[derive(Clone)]
pub struct SimCampaignRunner {
    /// Base seed; each workpackage runs in a world seeded
    /// `base_seed ^ wp`, so results are reproducible per combination
    /// and independent of execution order.
    pub base_seed: u64,
    /// MPI tasks per workpackage run.
    pub tasks: u32,
    /// Processes per node (clamped to `tasks`).
    pub ppn: u32,
    /// Optional worker-kill schedule shared with a fault harness.
    pub crashes: Option<Arc<Mutex<CrashSchedule>>>,
}

impl SimCampaignRunner {
    /// A runner with no fault injection.
    #[must_use]
    pub fn new(base_seed: u64, tasks: u32, ppn: u32) -> SimCampaignRunner {
        SimCampaignRunner {
            base_seed,
            tasks,
            ppn,
            crashes: None,
        }
    }

    /// Attach a worker-kill schedule (builder style).
    #[must_use]
    pub fn with_crashes(mut self, crashes: Arc<Mutex<CrashSchedule>>) -> SimCampaignRunner {
        self.crashes = Some(crashes);
        self
    }

    /// One fresh runner, for one workpackage attempt. Pass
    /// `|| hooks.runner()` as the campaign's runner factory.
    #[must_use]
    pub fn runner(&self) -> CampaignRunner {
        let base_seed = self.base_seed;
        let tasks = self.tasks;
        let ppn = self.ppn.min(self.tasks).max(1);
        let crashes = self.crashes.clone();
        let mut ticked = false;
        Box::new(move |wp: usize, _step: &str, command: &str| {
            // One crash decision per attempt, taken before the first
            // step: a killed worker produces no output at all.
            if !ticked {
                ticked = true;
                if let Some(schedule) = &crashes {
                    let killed = schedule
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .tick_worker(wp as u64);
                    if killed {
                        return Err(StepFailure::worker_crash());
                    }
                }
            }
            run_sim_step(base_seed ^ wp as u64, tasks, ppn, command)
        })
    }
}

/// Execute one step command in a fresh simulated world and capture its
/// output and virtual elapsed time.
fn run_sim_step(
    seed: u64,
    tasks: u32,
    ppn: u32,
    command: &str,
) -> Result<StepOutcome, StepFailure> {
    let mut world = World::new(SystemConfig::fuchs_csc(), FaultPlan::none(), seed);
    let layout = JobLayout::new(tasks, ppn);
    let output = if command.trim_start().starts_with("mdtest") {
        let config = MdtestConfig::parse_command(command)
            .map_err(|e| StepFailure::permanent(e.to_string()))?;
        mkdir_p(&mut world, &format!("{}/x", config.dir))
            .map_err(|e| StepFailure::transient(e.to_string()))?;
        run_mdtest(&mut world, layout, &config)
            .map_err(|e| StepFailure::transient(e.to_string()))?
            .render()
    } else {
        let config =
            IorConfig::parse_command(command).map_err(|e| StepFailure::permanent(e.to_string()))?;
        mkdir_p(&mut world, &config.test_file)
            .map_err(|e| StepFailure::transient(e.to_string()))?;
        run_ior(&mut world, layout, &config, seed)
            .map_err(|e| StepFailure::transient(e.to_string()))?
            .render()
    };
    Ok(StepOutcome {
        output,
        virtual_ns: Some(world.now().nanos()),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_jube::{run_campaign, CampaignOptions, JubeConfig};
    use iokc_store::StdVfs;

    const CONFIG: &str = "\
benchmark ior-campaign
param xfer = 1m, 2m
step run = ior -a mpiio -t $xfer -b 4m -s 2 -i 1 -o /scratch/c$wp/t -k
pattern write_bw = Max Write: {bw:f} MiB/sec
";

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("iokc-bench-camp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("campaign dir");
        dir
    }

    #[test]
    fn sim_runner_drives_a_campaign_with_virtual_time() {
        let config = JubeConfig::parse(CONFIG).expect("valid config");
        let hooks = SimCampaignRunner::new(42, 8, 4);
        let dir = scratch("ok");
        let report = run_campaign(&config, &dir, &StdVfs, &CampaignOptions::default(), || {
            hooks.runner()
        })
        .expect("campaign");
        assert!(report.summary.is_complete(), "{}", report.summary);
        let series = report.workspace.metric_series(&config, "write_bw");
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|(_, bw)| *bw > 0.0));
        // The simulated world reported a virtual clock, so the journal
        // carries deterministic elapsed times.
        let state = iokc_jube::campaign::replay(&iokc_jube::journal_path(&dir)).expect("replay");
        assert!(state.done.values().all(|d| d.elapsed_ms > 0));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn crash_schedule_kills_workers_and_the_supervisor_recovers() {
        let config = JubeConfig::parse(CONFIG).expect("valid config");
        // Kill workpackage 1's first two attempts.
        let crashes = Arc::new(Mutex::new(CrashSchedule::at_workpackages(&[
            (1, 0),
            (1, 1),
        ])));
        let hooks = SimCampaignRunner::new(42, 8, 4).with_crashes(Arc::clone(&crashes));
        let dir = scratch("crash");
        let options = CampaignOptions {
            retry: iokc_core::resilience::RetryPolicy::with_retries(3),
            ..CampaignOptions::default()
        };
        let report =
            run_campaign(&config, &dir, &StdVfs, &options, || hooks.runner()).expect("campaign");
        assert!(report.summary.is_complete(), "{}", report.summary);
        assert_eq!(report.summary.retried, 1, "wp 1 needed retries");
        let ticks = crashes.lock().expect("schedule lock").worker_calls(1);
        assert_eq!(ticks, 3, "two kills plus the surviving attempt");
        // The crash-free result is identical to a crash-free campaign:
        // retries re-run in fresh worlds with the same per-wp seed.
        let clean_dir = scratch("clean");
        let clean = run_campaign(
            &config,
            &clean_dir,
            &StdVfs,
            &CampaignOptions::default(),
            || SimCampaignRunner::new(42, 8, 4).runner(),
        )
        .expect("clean campaign");
        assert_eq!(
            report.workspace.result_table(&config).render(),
            clean.workspace.result_table(&config).render()
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
        std::fs::remove_dir_all(&clean_dir).expect("cleanup");
    }

    #[test]
    fn mdtest_commands_are_dispatched_by_prefix() {
        let config = JubeConfig::parse(
            "benchmark md\nparam n = 100\nstep run = mdtest -n $n -d /scratch/md$wp -u\n\
             pattern create = {v:f} file creations per second",
        )
        .expect("valid config");
        let hooks = SimCampaignRunner::new(7, 4, 4);
        let dir = scratch("mdtest");
        let report = run_campaign(&config, &dir, &StdVfs, &CampaignOptions::default(), || {
            hooks.runner()
        })
        .expect("campaign");
        assert!(report.summary.is_complete(), "{}", report.summary);
        assert!(report.workspace.workpackages[0].outputs[0]
            .1
            .contains("File creation"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
