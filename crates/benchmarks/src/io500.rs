//! A reimplementation of the IO500 benchmark suite.
//!
//! Runs the standard twelve phases — the four bandwidth tests (ior-easy /
//! ior-hard, write then read), the seven metadata tests (mdtest-easy /
//! mdtest-hard: write, stat, delete, plus hard read) and `find` — and
//! reports each phase plus the geometric-mean scores in the official
//! result format. The paper integrates IO500 both as a knowledge
//! generator (§V-A) and as the basis of the bounding-box anomaly detector
//! (§V-E2, after Liem et al.).

use crate::find::run_find;
use crate::ior::{run_ior, Access, IorConfig};
use iokc_sim::api::IoApi;
use iokc_sim::engine::{JobLayout, SimError, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::script::{OpenMode, StripeHint};
use iokc_util::stats::geometric_mean;
use std::collections::BTreeMap;

/// Per-phase fault schedule: faults to activate while a named phase runs
/// (e.g. a node failing during `ior-easy-read`, the Fig. 6 scenario).
/// Phases not listed run under the world's base fault plan.
pub type PhaseFaults = BTreeMap<String, FaultPlan>;

/// The unit a phase reports in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseUnit {
    /// Bandwidth phases (GiB/s).
    GibPerSec,
    /// Metadata phases (kIOPS).
    Kiops,
}

impl PhaseUnit {
    /// Unit string as printed in result lines.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseUnit::GibPerSec => "GiB/s",
            PhaseUnit::Kiops => "kIOPS",
        }
    }
}

/// One phase's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Io500Phase {
    /// Official phase name (e.g. `ior-easy-write`).
    pub name: String,
    /// Measured value in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: PhaseUnit,
    /// Elapsed seconds.
    pub time_s: f64,
}

/// IO500 workload scale (per-rank sizes, kept configurable so tests run
/// quickly while experiment binaries use realistic scales).
#[derive(Debug, Clone, PartialEq)]
pub struct Io500Config {
    /// Working directory.
    pub dir: String,
    /// ior-easy: bytes per rank (file-per-process, 256 KiB aligned
    /// transfers).
    pub ior_easy_bytes_per_rank: u64,
    /// ior-hard: number of 47008-byte writes per rank to one shared file.
    pub ior_hard_writes_per_rank: u64,
    /// mdtest-easy: files per rank (0-byte, unique dirs).
    pub mdtest_easy_files_per_rank: u64,
    /// mdtest-hard: files per rank (3901-byte, shared dir).
    pub mdtest_hard_files_per_rank: u64,
}

impl Io500Config {
    /// A small scale suitable for unit tests and quick demos.
    #[must_use]
    pub fn small(dir: &str) -> Io500Config {
        Io500Config {
            dir: dir.to_owned(),
            ior_easy_bytes_per_rank: 8 << 20,
            ior_hard_writes_per_rank: 64,
            mdtest_easy_files_per_rank: 40,
            mdtest_hard_files_per_rank: 30,
        }
    }

    /// A medium scale for the paper's experiments (40 ranks on the
    /// simulated FUCHS-CSC).
    #[must_use]
    pub fn standard(dir: &str) -> Io500Config {
        Io500Config {
            dir: dir.to_owned(),
            ior_easy_bytes_per_rank: 256 << 20,
            ior_hard_writes_per_rank: 1500,
            mdtest_easy_files_per_rank: 400,
            mdtest_hard_files_per_rank: 250,
        }
    }
}

/// A complete IO500 run.
#[derive(Debug, Clone, PartialEq)]
pub struct Io500Result {
    /// Scale used.
    pub config: Io500Config,
    /// Rank count.
    pub np: u32,
    /// All phases in execution order.
    pub phases: Vec<Io500Phase>,
    /// Geometric mean of bandwidth phases, GiB/s.
    pub bw_score: f64,
    /// Geometric mean of metadata phases, kIOPS.
    pub md_score: f64,
    /// Overall score: √(bw × md).
    pub total_score: f64,
}

impl Io500Result {
    /// Look up a phase by name.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&Io500Phase> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Render the official result block.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("IO500 version io500-isc22 (iokc reimplementation)\n");
        for p in &self.phases {
            out.push_str(&format!(
                "[RESULT] {:>20} {:>14.6} {} : time {:.3} seconds\n",
                p.name,
                p.value,
                p.unit.as_str(),
                p.time_s
            ));
        }
        out.push_str(&format!(
            "[SCORE ] Bandwidth {:.6} GiB/s : IOPS {:.6} kiops : TOTAL {:.6}\n",
            self.bw_score, self.md_score, self.total_score
        ));
        out
    }
}

const HARD_XFER: u64 = 47_008; // IO500's deliberately unaligned size

/// Execute the IO500 suite.
pub fn run_io500(
    world: &mut World,
    layout: JobLayout,
    config: &Io500Config,
) -> Result<Io500Result, SimError> {
    run_io500_with_faults(world, layout, config, &PhaseFaults::new())
}

/// Switch the world onto the scheduled plan for a phase (or back to the
/// base plan).
fn phase_faults(world: &mut World, base: &FaultPlan, schedule: &PhaseFaults, phase: &str) {
    match schedule.get(phase) {
        Some(plan) => {
            let mut combined = base.clone();
            for fault in plan.faults() {
                combined.push(*fault);
            }
            world.set_faults(combined);
        }
        None => world.set_faults(base.clone()),
    }
}

/// Execute the IO500 suite with a per-phase fault schedule.
pub fn run_io500_with_faults(
    world: &mut World,
    layout: JobLayout,
    config: &Io500Config,
    schedule: &PhaseFaults,
) -> Result<Io500Result, SimError> {
    let base_faults = world.faults().clone();
    let np = layout.np;
    let mut phases: Vec<Io500Phase> = Vec::with_capacity(12);

    // Working directories.
    let easy_dir = format!("{}/ior-easy", config.dir);
    let hard_dir = format!("{}/ior-hard", config.dir);
    let mde_dir = format!("{}/mdtest-easy", config.dir);
    let mdh_dir = format!("{}/mdtest-hard", config.dir);
    let mut setup = world.scripts(np);
    setup
        .rank(0)
        .mkdir(&config.dir)
        .mkdir(&easy_dir)
        .mkdir(&hard_dir)
        .mkdir(&mde_dir)
        .mkdir(&mdh_dir);
    // mdtest-easy unique dirs.
    for rank in 0..np {
        setup.rank(rank).barrier();
        let tree = format!("{mde_dir}/mdtest_tree.{rank}");
        setup.rank(rank).mkdir(&tree);
    }
    setup.rank(0).mkdir(&format!("{mdh_dir}/shared"));
    world.run(layout, &setup)?;
    // Each rank's mdtest files, named once for the seven phases that
    // walk them.
    let easy_tree = easy_tree_paths(config, &mde_dir, np);
    let hard_tree = hard_tree_paths(config, &mdh_dir, np);

    // --- Phase 1: ior-easy-write -------------------------------------
    phase_faults(world, &base_faults, schedule, "ior-easy-write");
    let ior_easy = IorConfig {
        api: IoApi::Posix,
        block_size: config.ior_easy_bytes_per_rank,
        transfer_size: 256 << 10,
        segments: 1,
        file_per_proc: true,
        reorder_tasks: true,
        fsync: true,
        iterations: 1,
        test_file: format!("{easy_dir}/ior_file_easy"),
        keep_file: true,
        write: true,
        read: false,
        collective: false,
        random_offsets: false,
        deadline_secs: 0,
        stripe: StripeHint {
            chunk_size: None,
            stripe_count: Some(4),
        },
    };
    let result = run_ior(world, layout, &ior_easy, 1)?;
    phases.push(bw_phase("ior-easy-write", &result, Access::Write, np));

    // --- Phase 2: mdtest-easy-write ----------------------------------
    phase_faults(world, &base_faults, schedule, "mdtest-easy-write");
    phases.push(md_phase(
        world,
        layout,
        "mdtest-easy-write",
        MdAction::Create { bytes: 0 },
        &easy_tree,
    )?);

    // --- Phase 3: ior-hard-write --------------------------------------
    phase_faults(world, &base_faults, schedule, "ior-hard-write");
    let ior_hard = IorConfig {
        api: IoApi::MpiIo { collective: false },
        block_size: HARD_XFER,
        transfer_size: HARD_XFER,
        segments: config.ior_hard_writes_per_rank,
        file_per_proc: false,
        reorder_tasks: true,
        fsync: true,
        iterations: 1,
        test_file: format!("{hard_dir}/ior_file_hard"),
        keep_file: true,
        write: true,
        read: false,
        collective: false,
        random_offsets: false,
        deadline_secs: 0,
        stripe: StripeHint {
            chunk_size: None,
            stripe_count: Some(4),
        },
    };
    let result = run_ior(world, layout, &ior_hard, 2)?;
    phases.push(bw_phase("ior-hard-write", &result, Access::Write, np));

    // --- Phase 4: mdtest-hard-write ----------------------------------
    phase_faults(world, &base_faults, schedule, "mdtest-hard-write");
    phases.push(md_phase(
        world,
        layout,
        "mdtest-hard-write",
        MdAction::Create { bytes: 3901 },
        &hard_tree,
    )?);

    // --- Phase 5: find -------------------------------------------------
    phase_faults(world, &base_faults, schedule, "find");
    let find = run_find(world, layout, &config.dir, "")?;
    phases.push(Io500Phase {
        name: "find".to_owned(),
        value: find.rate / 1000.0,
        unit: PhaseUnit::Kiops,
        time_s: find.elapsed_s,
    });

    // --- Phase 6: ior-easy-read ----------------------------------------
    phase_faults(world, &base_faults, schedule, "ior-easy-read");
    let mut easy_read = ior_easy.clone();
    easy_read.write = false;
    easy_read.read = true;
    let result = run_ior(world, layout, &easy_read, 3)?;
    phases.push(bw_phase("ior-easy-read", &result, Access::Read, np));

    // --- Phase 7: mdtest-easy-stat --------------------------------------
    phase_faults(world, &base_faults, schedule, "mdtest-easy-stat");
    phases.push(md_phase(
        world,
        layout,
        "mdtest-easy-stat",
        MdAction::Stat,
        &easy_tree,
    )?);

    // --- Phase 8: ior-hard-read -----------------------------------------
    phase_faults(world, &base_faults, schedule, "ior-hard-read");
    let mut hard_read = ior_hard.clone();
    hard_read.write = false;
    hard_read.read = true;
    let result = run_ior(world, layout, &hard_read, 4)?;
    phases.push(bw_phase("ior-hard-read", &result, Access::Read, np));

    // --- Phase 9: mdtest-hard-stat ---------------------------------------
    phase_faults(world, &base_faults, schedule, "mdtest-hard-stat");
    phases.push(md_phase(
        world,
        layout,
        "mdtest-hard-stat",
        MdAction::Stat,
        &hard_tree,
    )?);

    // --- Phase 10: mdtest-easy-delete -------------------------------------
    phase_faults(world, &base_faults, schedule, "mdtest-easy-delete");
    phases.push(md_phase(
        world,
        layout,
        "mdtest-easy-delete",
        MdAction::Delete,
        &easy_tree,
    )?);

    // --- Phase 11: mdtest-hard-read ----------------------------------------
    phase_faults(world, &base_faults, schedule, "mdtest-hard-read");
    phases.push(md_phase(
        world,
        layout,
        "mdtest-hard-read",
        MdAction::Read {
            bytes: 3901,
            peer_shift: layout.ppn,
        },
        &hard_tree,
    )?);

    // --- Phase 12: mdtest-hard-delete ----------------------------------------
    phase_faults(world, &base_faults, schedule, "mdtest-hard-delete");
    phases.push(md_phase(
        world,
        layout,
        "mdtest-hard-delete",
        MdAction::Delete,
        &hard_tree,
    )?);

    // Cleanup of IOR files (IO500 removes its working set).
    world.set_faults(base_faults.clone());
    let mut cleanup = world.scripts(np);
    for rank in 0..np {
        cleanup
            .rank(rank)
            .unlink(&format!("{easy_dir}/ior_file_easy.{rank:08}"));
    }
    cleanup.rank(0).unlink(&format!("{hard_dir}/ior_file_hard"));
    world.run(layout, &cleanup)?;

    let bw_values: Vec<f64> = phases
        .iter()
        .filter(|p| p.unit == PhaseUnit::GibPerSec)
        .map(|p| p.value)
        .collect();
    let md_values: Vec<f64> = phases
        .iter()
        .filter(|p| p.unit == PhaseUnit::Kiops)
        .map(|p| p.value)
        .collect();
    let bw_score = geometric_mean(&bw_values);
    let md_score = geometric_mean(&md_values);
    Ok(Io500Result {
        config: config.clone(),
        np,
        total_score: (bw_score * md_score).sqrt(),
        bw_score,
        md_score,
        phases,
    })
}

fn bw_phase(name: &str, run: &crate::ior::IorRunResult, access: Access, np: u32) -> Io500Phase {
    let sample = run
        .samples_of(access)
        .next()
        .expect("io500 ior phase produced one sample");
    let bytes = run.config.aggregate_bytes(np);
    Io500Phase {
        name: name.to_owned(),
        value: iokc_util::units::to_gib(bytes) / sample.total_s.max(1e-9),
        unit: PhaseUnit::GibPerSec,
        time_s: sample.total_s,
    }
}

/// What a metadata phase does with each file.
enum MdAction {
    Create { bytes: u64 },
    Stat,
    Read { bytes: u64, peer_shift: u32 },
    Delete,
}

/// Per-rank file path generator: `paths[rank]` is a closure-free list of
/// that rank's file paths.
fn easy_tree_paths(config: &Io500Config, mde_dir: &str, np: u32) -> Vec<Vec<String>> {
    (0..np)
        .map(|rank| {
            (0..config.mdtest_easy_files_per_rank)
                .map(|i| format!("{mde_dir}/mdtest_tree.{rank}/file.mdtest.{rank}.{i}"))
                .collect()
        })
        .collect()
}

fn hard_tree_paths(config: &Io500Config, mdh_dir: &str, np: u32) -> Vec<Vec<String>> {
    (0..np)
        .map(|rank| {
            (0..config.mdtest_hard_files_per_rank)
                .map(|i| format!("{mdh_dir}/shared/file.mdtest.{rank}.{i}"))
                .collect()
        })
        .collect()
}

fn md_phase(
    world: &mut World,
    layout: JobLayout,
    name: &str,
    action: MdAction,
    paths: &[Vec<String>],
) -> Result<Io500Phase, SimError> {
    let np = layout.np;
    let mut set = world.scripts(np);
    let mut total_ops = 0u64;
    for rank in 0..np {
        let rank_paths: &[String] = match &action {
            MdAction::Read { peer_shift, .. } => {
                // Read a different node's files to defeat the page cache.
                &paths[((rank + peer_shift) % np) as usize]
            }
            _ => &paths[rank as usize],
        };
        let mut rs = set.rank(rank);
        for path in rank_paths {
            total_ops += 1;
            match &action {
                MdAction::Create { bytes } => {
                    rs.open(path, OpenMode::Write);
                    if *bytes > 0 {
                        rs.write(path, 0, *bytes);
                    }
                    rs.close(path);
                }
                MdAction::Stat => {
                    rs.stat(path);
                }
                MdAction::Read { bytes, .. } => {
                    rs.open(path, OpenMode::Read);
                    if *bytes > 0 {
                        rs.read(path, 0, *bytes);
                    }
                    rs.close(path);
                }
                MdAction::Delete => {
                    rs.unlink(path);
                }
            }
        }
        rs.barrier();
    }
    let result = world.run(layout, &set)?;
    let elapsed = result.wall().as_secs_f64().max(1e-9);
    Ok(Io500Phase {
        name: name.to_owned(),
        value: total_ops as f64 / elapsed / 1000.0,
        unit: PhaseUnit::Kiops,
        time_s: elapsed,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_sim::config::SystemConfig;
    use iokc_sim::faults::{Fault, FaultPlan, FaultTarget};

    fn run_small(seed: u64, faults: FaultPlan) -> Io500Result {
        let mut world = World::new(SystemConfig::test_small().with_noise(0.05), faults, seed);
        run_io500(
            &mut world,
            JobLayout::new(4, 2),
            &Io500Config::small("/scratch/io500"),
        )
        .unwrap()
    }

    #[test]
    fn all_twelve_phases_report() {
        let result = run_small(1, FaultPlan::none());
        assert_eq!(result.phases.len(), 12);
        let names: Vec<&str> = result.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "ior-easy-write",
                "mdtest-easy-write",
                "ior-hard-write",
                "mdtest-hard-write",
                "find",
                "ior-easy-read",
                "mdtest-easy-stat",
                "ior-hard-read",
                "mdtest-hard-stat",
                "mdtest-easy-delete",
                "mdtest-hard-read",
                "mdtest-hard-delete",
            ]
        );
        for p in &result.phases {
            assert!(p.value > 0.0, "{} reported zero", p.name);
            assert!(p.time_s > 0.0);
        }
    }

    #[test]
    fn scores_are_geometric_means() {
        let result = run_small(2, FaultPlan::none());
        let bw: Vec<f64> = result
            .phases
            .iter()
            .filter(|p| p.unit == PhaseUnit::GibPerSec)
            .map(|p| p.value)
            .collect();
        assert_eq!(bw.len(), 4);
        let md: Vec<f64> = result
            .phases
            .iter()
            .filter(|p| p.unit == PhaseUnit::Kiops)
            .map(|p| p.value)
            .collect();
        assert_eq!(md.len(), 8);
        assert!((result.bw_score - geometric_mean(&bw)).abs() < 1e-12);
        assert!((result.md_score - geometric_mean(&md)).abs() < 1e-12);
        assert!((result.total_score - (result.bw_score * result.md_score).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn easy_beats_hard() {
        let result = run_small(3, FaultPlan::none());
        let easy_w = result.phase("ior-easy-write").unwrap().value;
        let hard_w = result.phase("ior-hard-write").unwrap().value;
        assert!(
            easy_w > hard_w * 1.4,
            "ior-easy write {easy_w} should clearly beat ior-hard {hard_w}"
        );
        let md_easy = result.phase("mdtest-easy-write").unwrap().value;
        let md_hard = result.phase("mdtest-hard-write").unwrap().value;
        assert!(
            md_easy > md_hard,
            "mdtest-easy {md_easy} should beat mdtest-hard {md_hard}"
        );
    }

    #[test]
    fn degraded_target_lowers_read_bandwidth() {
        let healthy = run_small(4, FaultPlan::none());
        let degraded = run_small(
            4,
            FaultPlan::none()
                .with(Fault::permanent(FaultTarget::StorageTarget(0), 0.12))
                .with(Fault::permanent(FaultTarget::StorageTarget(1), 0.12)),
        );
        assert!(
            degraded.phase("ior-easy-read").unwrap().value
                < healthy.phase("ior-easy-read").unwrap().value,
            "degraded targets must lower ior-easy-read"
        );
        assert!(degraded.total_score < healthy.total_score);
    }

    #[test]
    fn render_matches_official_format() {
        let result = run_small(5, FaultPlan::none());
        let text = result.render();
        assert!(text.contains("[RESULT]"));
        assert!(text.contains("ior-easy-write"));
        assert!(text.contains("GiB/s : time"));
        assert!(text.contains("kIOPS : time"));
        assert!(text.contains("[SCORE ] Bandwidth"));
        assert!(text.contains("TOTAL"));
    }

    #[test]
    fn working_set_is_cleaned_up() {
        let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), 6);
        run_io500(
            &mut world,
            JobLayout::new(2, 2),
            &Io500Config::small("/scratch/clean"),
        )
        .unwrap();
        assert_eq!(
            world.namespace().file_count(),
            0,
            "io500 must remove everything it created"
        );
    }
}
