//! [`Generator`] phase modules: benchmarks as knowledge sources (§V-A).
//!
//! Each generator owns a simulated [`World`] (its "allocation" on the
//! cluster), runs its benchmark when the cycle asks, and emits the raw
//! artifacts a real deployment would leave behind: the benchmark's stdout
//! in its native format, BeeGFS entry info for the test file, `/proc`
//! snapshots, and (optionally) a binary Darshan log. The IOR generator is
//! reconfigurable, closing Example I's loop: the usage phase hands it a
//! new command and the next cycle iteration runs it.

use crate::hacc::{run_hacc, HaccConfig};
use crate::instrument::{darshan_from_phases, InstrumentOptions};
use crate::io500::{run_io500, Io500Config};
use crate::ior::{run_ior, IorConfig};
use crate::mdtest::{run_mdtest, MdtestConfig};
use iokc_core::ctx::PhaseCtx;
use iokc_core::phases::{Artifact, ArtifactKind, CycleError, Generator, PhaseKind};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::CrashSchedule;
use iokc_sim::metrics::EngineStats;
use iokc_sim::script::ScriptSet;
use iokc_sim::sysinfo::ProcSnapshot;
use std::collections::BTreeSet;

/// Unix-time base for simulated runs (the paper's submission era).
const EPOCH: u64 = 1_656_590_400;

/// Publish what the simulator did since `before` was read from `world`
/// — one `generate` — into the cycle's metrics registry.
fn publish_sim_stats(ctx: &PhaseCtx, world: &World, before: &EngineStats) {
    let delta = world.stats().since(before);
    ctx.counter("sim.events").add(delta.events());
    ctx.counter("sim.rate_solves").add(delta.rate_solves);
    ctx.counter("sim.flows_solved").add(delta.flows_solved);
    ctx.counter("sim.resources_solved")
        .add(delta.resources_solved);
}

/// An IOR run as a knowledge generator.
pub struct IorGenerator {
    world: World,
    layout: JobLayout,
    config: IorConfig,
    seed: u64,
    /// Also emit a binary Darshan log artifact for each run.
    pub with_darshan: bool,
    /// Process-level fault injection: invocation attempts on this
    /// schedule die with a transient error instead of producing output.
    pub crashes: CrashSchedule,
    runs: u64,
}

impl IorGenerator {
    /// Create a generator executing `config` on `world`.
    #[must_use]
    pub fn new(world: World, layout: JobLayout, config: IorConfig, seed: u64) -> IorGenerator {
        IorGenerator {
            world,
            layout,
            config,
            seed,
            with_darshan: false,
            crashes: CrashSchedule::none(),
            runs: 0,
        }
    }

    /// The current command line.
    #[must_use]
    pub fn command(&self) -> String {
        self.config.to_command()
    }

    /// Access the world (inspection in tests and examples).
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }
}

impl Generator for IorGenerator {
    fn name(&self) -> &str {
        "ior-generator"
    }

    /// Accept any command the IOR front end can parse (the cycle's
    /// regeneration path).
    fn reconfigure(&mut self, command: &str) -> bool {
        match IorConfig::parse_command(command) {
            Ok(config) => {
                self.config = config;
                true
            }
            Err(_) => false,
        }
    }

    fn generate(&mut self, ctx: &mut PhaseCtx) -> Result<Vec<Artifact>, CycleError> {
        if self.crashes.tick() {
            return Err(ctx.transient_error(format!(
                "injected crash on attempt {}",
                self.crashes.calls() - 1
            )));
        }
        let run_tag = format!("ior-run-{}", self.runs);
        self.runs += 1;
        let start = self.world.now();
        let sim_before = self.world.stats();
        let start_ns = start.nanos();
        let start_unix = EPOCH + start_ns / 1_000_000_000;
        let result = run_ior(
            &mut self.world,
            self.layout,
            &self.config,
            self.seed ^ self.runs,
        )
        .map_err(|e| CycleError::new(PhaseKind::Generation, "ior-generator", e))?;
        let end_ns = self.world.now().nanos();
        // Report the benchmark's simulated duration on the cycle's
        // (virtual) timeline, so spans reflect what a real run costs.
        ctx.advance_virtual_ns(self.world.elapsed_ns_since(start));
        publish_sim_stats(ctx, &self.world, &sim_before);
        let end_unix = EPOCH + end_ns / 1_000_000_000;
        let system_name = self.world.system().cluster.name.clone();

        let mut artifacts = Vec::new();
        let with_run_meta = |a: Artifact| {
            a.with_meta("run", &run_tag)
                .with_meta("system", &system_name)
                .with_meta("tasks", &self.layout.np.to_string())
                .with_meta("start_time", &start_unix.to_string())
                .with_meta("end_time", &end_unix.to_string())
        };
        artifacts.push(with_run_meta(
            Artifact::text(ArtifactKind::IorOutput, "ior_stdout", result.render())
                .with_meta("command", &self.config.to_command()),
        ));
        // Entry info of the (first) test file, when it still exists — in
        // the format of whatever file system the world is configured with.
        let probe = self.config.file_for(0);
        if self
            .world
            .system()
            .pfs
            .fs_type
            .eq_ignore_ascii_case("lustre")
        {
            if let Some(text) = self.world.namespace().entry_info_lustre(&probe) {
                artifacts.push(with_run_meta(Artifact::text(
                    ArtifactKind::LustreStripeInfo,
                    "getstripe",
                    text,
                )));
            }
        } else if let Some(text) = self.world.namespace().entry_info(&probe) {
            artifacts.push(with_run_meta(Artifact::text(
                ArtifactKind::BeegfsEntryInfo,
                "entryinfo",
                text,
            )));
        }
        let snapshot = ProcSnapshot::of(&self.world.system().cluster);
        artifacts.push(with_run_meta(Artifact::text(
            ArtifactKind::ProcCpuinfo,
            "cpuinfo",
            snapshot.render_cpuinfo(),
        )));
        artifacts.push(with_run_meta(Artifact::text(
            ArtifactKind::ProcMeminfo,
            "meminfo",
            snapshot.render_meminfo(),
        )));
        if self.with_darshan {
            let phase_refs: Vec<&iokc_sim::metrics::PhaseResult> =
                result.phases.iter().map(|(_, _, p)| p).collect();
            let log = darshan_from_phases(
                &phase_refs,
                &InstrumentOptions {
                    job_id: self.runs,
                    nprocs: self.layout.np,
                    exe: "ior".to_owned(),
                    dxt: true,
                    api: self.config.api,
                    start_unix,
                },
            );
            artifacts.push(with_run_meta(Artifact::binary(
                ArtifactKind::DarshanLog,
                "darshan.log",
                iokc_darshan::encode(&log),
            )));
        }
        Ok(artifacts)
    }
}

/// An IO500 run as a knowledge generator.
pub struct Io500Generator {
    world: World,
    layout: JobLayout,
    config: Io500Config,
    runs: u64,
}

impl Io500Generator {
    /// Create a generator executing the suite on `world`.
    #[must_use]
    pub fn new(world: World, layout: JobLayout, config: Io500Config) -> Io500Generator {
        Io500Generator {
            world,
            layout,
            config,
            runs: 0,
        }
    }
}

impl Generator for Io500Generator {
    fn name(&self) -> &str {
        "io500-generator"
    }

    fn generate(&mut self, ctx: &mut PhaseCtx) -> Result<Vec<Artifact>, CycleError> {
        let run_tag = format!("io500-run-{}", self.runs);
        self.runs += 1;
        let start = self.world.now();
        let sim_before = self.world.stats();
        let start_ns = start.nanos();
        let start_unix = EPOCH + start_ns / 1_000_000_000;
        let result = run_io500(&mut self.world, self.layout, &self.config)
            .map_err(|e| CycleError::new(PhaseKind::Generation, "io500-generator", e))?;
        ctx.advance_virtual_ns(self.world.elapsed_ns_since(start));
        publish_sim_stats(ctx, &self.world, &sim_before);
        let system_name = self.world.system().cluster.name.clone();
        let snapshot = ProcSnapshot::of(&self.world.system().cluster);
        let with_run_meta = |a: Artifact| {
            a.with_meta("run", &run_tag)
                .with_meta("system", &system_name)
                .with_meta("tasks", &self.layout.np.to_string())
                .with_meta("start_time", &start_unix.to_string())
        };
        Ok(vec![
            with_run_meta(
                Artifact::text(ArtifactKind::Io500Output, "io500_result", result.render())
                    .with_meta("dir", &self.config.dir),
            ),
            with_run_meta(Artifact::text(
                ArtifactKind::ProcCpuinfo,
                "cpuinfo",
                snapshot.render_cpuinfo(),
            )),
            with_run_meta(Artifact::text(
                ArtifactKind::ProcMeminfo,
                "meminfo",
                snapshot.render_meminfo(),
            )),
        ])
    }
}

/// An mdtest run as a knowledge generator.
pub struct MdtestGenerator {
    world: World,
    layout: JobLayout,
    config: MdtestConfig,
    runs: u64,
}

impl MdtestGenerator {
    /// Create a generator executing `config` on `world`.
    #[must_use]
    pub fn new(world: World, layout: JobLayout, config: MdtestConfig) -> MdtestGenerator {
        MdtestGenerator {
            world,
            layout,
            config,
            runs: 0,
        }
    }
}

impl Generator for MdtestGenerator {
    fn name(&self) -> &str {
        "mdtest-generator"
    }

    fn reconfigure(&mut self, command: &str) -> bool {
        match MdtestConfig::parse_command(command) {
            Ok(config) => {
                self.config = config;
                true
            }
            Err(_) => false,
        }
    }

    fn generate(&mut self, ctx: &mut PhaseCtx) -> Result<Vec<Artifact>, CycleError> {
        let run_tag = format!("mdtest-run-{}", self.runs);
        self.runs += 1;
        let start = self.world.now();
        let sim_before = self.world.stats();
        let start_ns = start.nanos();
        let start_unix = EPOCH + start_ns / 1_000_000_000;
        let result = run_mdtest(&mut self.world, self.layout, &self.config)
            .map_err(|e| CycleError::new(PhaseKind::Generation, "mdtest-generator", e))?;
        let end_ns = self.world.now().nanos();
        ctx.advance_virtual_ns(self.world.elapsed_ns_since(start));
        publish_sim_stats(ctx, &self.world, &sim_before);
        let end_unix = EPOCH + end_ns / 1_000_000_000;
        let system_name = self.world.system().cluster.name.clone();
        Ok(vec![Artifact::text(
            ArtifactKind::MdtestOutput,
            "mdtest_stdout",
            result.render(),
        )
        .with_meta("run", &run_tag)
        .with_meta("system", &system_name)
        .with_meta("tasks", &self.layout.np.to_string())
        .with_meta("command", &self.config.to_command())
        .with_meta("start_time", &start_unix.to_string())
        .with_meta("end_time", &end_unix.to_string())])
    }
}

/// A HACC-IO run as a knowledge generator.
pub struct HaccGenerator {
    world: World,
    layout: JobLayout,
    config: HaccConfig,
    runs: u64,
}

impl HaccGenerator {
    /// Create a generator executing `config` on `world`.
    #[must_use]
    pub fn new(world: World, layout: JobLayout, config: HaccConfig) -> HaccGenerator {
        HaccGenerator {
            world,
            layout,
            config,
            runs: 0,
        }
    }

    /// Unlink the checkpoint files that exist, each by the first rank
    /// that writes it.
    fn cleanup(&self) -> ScriptSet {
        let mut cleanup = self.world.scripts(self.layout.np);
        let mut seen = BTreeSet::new();
        for rank in 0..self.layout.np {
            let (file, _) = hacc_file_of(&self.config, rank);
            if self.world.namespace().file(&file).is_some() && seen.insert(file.clone()) {
                cleanup.rank(rank).unlink(&file);
            }
        }
        cleanup
    }
}

impl Generator for HaccGenerator {
    fn name(&self) -> &str {
        "hacc-generator"
    }

    fn generate(&mut self, ctx: &mut PhaseCtx) -> Result<Vec<Artifact>, CycleError> {
        let run_tag = format!("hacc-run-{}", self.runs);
        self.runs += 1;
        let start = self.world.now();
        let sim_before = self.world.stats();
        let start_ns = start.nanos();
        let start_unix = EPOCH + start_ns / 1_000_000_000;
        // Fresh file set per run: HACC-IO overwrites its checkpoint; the
        // simulated namespace keeps files, so unlink the previous set.
        if self.runs > 1 {
            let cleanup = self.cleanup();
            if cleanup.total_ops() > 0 {
                self.world
                    .run(self.layout, &cleanup)
                    .map_err(|e| CycleError::new(PhaseKind::Generation, "hacc-generator", e))?;
            }
        }
        let result = run_hacc(&mut self.world, self.layout, &self.config)
            .map_err(|e| CycleError::new(PhaseKind::Generation, "hacc-generator", e))?;
        let end_ns = self.world.now().nanos();
        ctx.advance_virtual_ns(self.world.elapsed_ns_since(start));
        publish_sim_stats(ctx, &self.world, &sim_before);
        let end_unix = EPOCH + end_ns / 1_000_000_000;
        let system_name = self.world.system().cluster.name.clone();
        Ok(vec![Artifact::text(
            ArtifactKind::HaccOutput,
            "hacc_stdout",
            result.render(),
        )
        .with_meta("run", &run_tag)
        .with_meta("system", &system_name)
        .with_meta("tasks", &self.layout.np.to_string())
        .with_meta("start_time", &start_unix.to_string())
        .with_meta("end_time", &end_unix.to_string())])
    }
}

/// The file a rank writes in a HACC-IO configuration (mirror of the
/// private `HaccConfig::file_of`).
fn hacc_file_of(config: &HaccConfig, rank: u32) -> (String, u64) {
    match config.mode {
        crate::hacc::FileMode::SingleSharedFile => (config.path.clone(), 0),
        crate::hacc::FileMode::FilePerProcess => (format!("{}.{rank:06}", config.path), 0),
        crate::hacc::FileMode::FilePerGroup { group_size } => {
            let group = rank / group_size.max(1);
            (format!("{}.g{group:04}", config.path), 0)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_sim::config::SystemConfig;
    use iokc_sim::faults::FaultPlan;

    fn ctx() -> PhaseCtx {
        PhaseCtx::detached(PhaseKind::Generation, "test")
    }

    fn small_world(seed: u64) -> World {
        World::new(SystemConfig::test_small(), FaultPlan::none(), seed)
    }

    #[test]
    fn ior_generator_emits_expected_artifacts() {
        let config =
            IorConfig::parse_command("ior -a posix -b 1m -t 256k -s 1 -i 1 -o /scratch/g -F -k")
                .unwrap();
        let mut generator = IorGenerator::new(small_world(3), JobLayout::new(2, 2), config, 1);
        generator.with_darshan = true;
        let artifacts = generator.generate(&mut ctx()).unwrap();
        let kinds: Vec<ArtifactKind> = artifacts.iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&ArtifactKind::IorOutput));
        assert!(kinds.contains(&ArtifactKind::BeegfsEntryInfo));
        assert!(kinds.contains(&ArtifactKind::ProcCpuinfo));
        assert!(kinds.contains(&ArtifactKind::ProcMeminfo));
        assert!(kinds.contains(&ArtifactKind::DarshanLog));
        let ior = artifacts
            .iter()
            .find(|a| a.kind == ArtifactKind::IorOutput)
            .unwrap();
        assert!(ior.as_text().unwrap().contains("Max Write:"));
        assert_eq!(ior.meta["run"], "ior-run-0");
        assert_eq!(ior.meta["tasks"], "2");
        // Second run advances the tag and time.
        let again = generator.generate(&mut ctx()).unwrap();
        assert_eq!(again[0].meta["run"], "ior-run-1");
        assert!(again[0].meta["start_time"] >= ior.meta["start_time"]);
    }

    #[test]
    fn lustre_world_emits_getstripe_artifacts() {
        let mut system = SystemConfig::test_small();
        system.pfs.fs_type = "Lustre".to_owned();
        let world = World::new(system, FaultPlan::none(), 4);
        let config =
            IorConfig::parse_command("ior -a posix -b 512k -t 256k -s 1 -F -i 1 -o /scratch/lg -k")
                .unwrap();
        let mut generator = IorGenerator::new(world, JobLayout::new(2, 2), config, 1);
        let artifacts = generator.generate(&mut ctx()).unwrap();
        let kinds: Vec<ArtifactKind> = artifacts.iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&ArtifactKind::LustreStripeInfo));
        assert!(!kinds.contains(&ArtifactKind::BeegfsEntryInfo));
        let lfs = artifacts
            .iter()
            .find(|a| a.kind == ArtifactKind::LustreStripeInfo)
            .unwrap();
        assert!(lfs.as_text().unwrap().contains("lmm_stripe_count"));
    }

    #[test]
    fn ior_generator_reconfigures() {
        let config =
            IorConfig::parse_command("ior -a posix -b 1m -t 256k -s 1 -i 1 -o /scratch/r -F -k")
                .unwrap();
        let mut generator = IorGenerator::new(small_world(5), JobLayout::new(2, 2), config, 1);
        assert!(generator.reconfigure("ior -a posix -b 2m -t 256k -s 1 -i 1 -o /scratch/r -F -k"));
        assert!(generator.command().contains("-b 2m"));
        assert!(!generator.reconfigure("mdtest -n 100"));
        let artifacts = generator.generate(&mut ctx()).unwrap();
        assert!(artifacts[0].meta["command"].contains("-b 2m"));
    }

    #[test]
    fn mdtest_generator_reconfigures_and_emits() {
        let config = MdtestConfig::parse_command("mdtest -n 8 -d /scratch -u").unwrap();
        let mut generator = MdtestGenerator::new(small_world(7), JobLayout::new(2, 2), config);
        let artifacts = generator.generate(&mut ctx()).unwrap();
        assert_eq!(artifacts.len(), 1);
        assert_eq!(artifacts[0].kind, ArtifactKind::MdtestOutput);
        assert!(artifacts[0].as_text().unwrap().contains("SUMMARY rate:"));
        assert!(generator.reconfigure("mdtest -n 4 -d /scratch -w 128"));
        assert!(!generator.reconfigure("ior -b 4m"));
        let again = generator.generate(&mut ctx()).unwrap();
        assert!(again[0].meta["command"].contains("-w 128"));
    }

    #[test]
    fn hacc_generator_runs_twice() {
        use crate::hacc::FileMode;
        use iokc_sim::api::IoApi;
        let config = HaccConfig::new(
            10_000,
            FileMode::FilePerProcess,
            IoApi::Posix,
            "/scratch/haccgen",
        );
        let mut generator = HaccGenerator::new(small_world(8), JobLayout::new(2, 2), config);
        let first = generator.generate(&mut ctx()).unwrap();
        assert!(first[0]
            .as_text()
            .unwrap()
            .contains("Aggregate Checkpoint Performance"));
        // Second run must clean up the previous checkpoint files first.
        let second = generator.generate(&mut ctx()).unwrap();
        assert_eq!(second[0].meta["run"], "hacc-run-1");
    }

    /// The second run's cleanup unlinks the first run's checkpoint and
    /// nothing else, whatever other names the world's table holds.
    #[test]
    fn a_rerun_unlinks_exactly_the_previous_checkpoint() {
        use crate::hacc::FileMode;
        use iokc_sim::api::IoApi;
        use iokc_sim::script::OpKind;
        let modes = [
            (FileMode::FilePerProcess, 4),
            (FileMode::FilePerGroup { group_size: 2 }, 2),
        ];
        for (mode, files) in modes {
            let config = HaccConfig::new(10_000, mode, IoApi::Posix, "/scratch/haccgen");
            let mut generator = HaccGenerator::new(small_world(8), JobLayout::new(4, 2), config);
            generator.generate(&mut ctx()).unwrap();
            assert_eq!(generator.world.namespace().file_count(), files);
            let cleanup = generator.cleanup();
            assert_eq!(cleanup.total_ops(), files, "{mode:?}");
            let result = generator.world.run(generator.layout, &cleanup).unwrap();
            assert_eq!(result.ops(OpKind::Unlink), files as u64);
            assert_eq!(generator.world.namespace().file_count(), 0);
            generator.generate(&mut ctx()).unwrap();
            assert_eq!(generator.world.namespace().file_count(), files);
        }
    }

    #[test]
    fn io500_generator_emits_result_block() {
        let mut generator = Io500Generator::new(
            small_world(9),
            JobLayout::new(2, 2),
            Io500Config::small("/scratch/gen500"),
        );
        // The detached registry is process-wide, so only growth is exact.
        let mut ctx = ctx();
        let solves_before = ctx.counter("sim.rate_solves").get();
        let artifacts = generator.generate(&mut ctx).unwrap();
        assert!(
            ctx.counter("sim.rate_solves").get() > solves_before,
            "a generate publishes the engine's census"
        );
        let output = artifacts
            .iter()
            .find(|a| a.kind == ArtifactKind::Io500Output)
            .unwrap();
        assert!(output.as_text().unwrap().contains("[SCORE ]"));
        assert_eq!(output.meta["tasks"], "2");
        assert_eq!(output.meta["dir"], "/scratch/gen500");
    }
}
