//! A reimplementation of the mdtest metadata benchmark.
//!
//! mdtest stresses file-metadata paths: each rank creates, stats, reads
//! and removes a population of (usually tiny) files. IO500 uses two
//! standard variants:
//!
//! * **easy** — each rank works in its own directory (metadata load
//!   spreads across metadata servers), zero-byte files;
//! * **hard** — all ranks share one directory (every operation hammers
//!   the same metadata server) and each file carries a 3901-byte write
//!   (read back in `mdtest-hard-read`).

use iokc_sim::engine::{JobLayout, SimError, World};
use iokc_sim::metrics::PhaseResult;
#[cfg(test)]
use iokc_sim::script::OpKind;
use iokc_sim::script::OpenMode;
use iokc_util::stats;

/// mdtest variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdWorkload {
    /// Unique directory per rank, empty files.
    Easy,
    /// Single shared directory, 3901-byte files.
    Hard,
    /// Arbitrary combination parsed from a command line.
    Custom {
        /// Unique directory per rank (`-u`)?
        unique_dirs: bool,
        /// Payload bytes per file (`-w`).
        bytes: u64,
    },
}

impl MdWorkload {
    /// Name fragment used in IO500 phase names.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MdWorkload::Easy => "easy",
            MdWorkload::Hard => "hard",
            MdWorkload::Custom { .. } => "custom",
        }
    }

    /// Per-file payload bytes.
    #[must_use]
    pub fn file_bytes(self) -> u64 {
        match self {
            MdWorkload::Easy => 0,
            MdWorkload::Hard => 3901,
            MdWorkload::Custom { bytes, .. } => bytes,
        }
    }

    /// Does every rank work in its own directory?
    #[must_use]
    pub fn unique_dirs(self) -> bool {
        match self {
            MdWorkload::Easy => true,
            MdWorkload::Hard => false,
            MdWorkload::Custom { unique_dirs, .. } => unique_dirs,
        }
    }
}

/// mdtest configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MdtestConfig {
    /// Files per rank (`-n`).
    pub files_per_rank: u64,
    /// Variant (easy/hard).
    pub workload: MdWorkload,
    /// Working directory root (`-d`).
    pub dir: String,
    /// Iterations (`-i`).
    pub iterations: u32,
}

impl MdtestConfig {
    /// The IO500 `mdtest-easy` setup at a given scale.
    #[must_use]
    pub fn easy(dir: &str, files_per_rank: u64) -> MdtestConfig {
        MdtestConfig {
            files_per_rank,
            workload: MdWorkload::Easy,
            dir: dir.to_owned(),
            iterations: 1,
        }
    }

    /// The IO500 `mdtest-hard` setup at a given scale.
    #[must_use]
    pub fn hard(dir: &str, files_per_rank: u64) -> MdtestConfig {
        MdtestConfig {
            files_per_rank,
            workload: MdWorkload::Hard,
            dir: dir.to_owned(),
            iterations: 1,
        }
    }

    fn rank_dir(&self, rank: u32) -> String {
        if self.workload.unique_dirs() {
            format!("{}/mdtest_tree.{rank}", self.dir)
        } else {
            format!("{}/mdtest_shared", self.dir)
        }
    }

    /// Parse an `mdtest …` command line: `-n <files/rank>`, `-d <dir>`,
    /// `-i <iterations>`, `-u` (unique dirs), `-w <bytes>` (payload).
    pub fn parse_command(command: &str) -> Result<MdtestConfig, MdtestParseError> {
        let tokens: Vec<&str> = command.split_whitespace().collect();
        let mut i = 0;
        if tokens.first().copied() == Some("mdtest") {
            i = 1;
        }
        let mut files_per_rank = 100u64;
        let mut dir = "/scratch".to_owned();
        let mut iterations = 1u32;
        let mut unique_dirs = false;
        let mut bytes = 0u64;
        let value = |i: &mut usize, flag: &str| -> Result<String, MdtestParseError> {
            *i += 1;
            tokens
                .get(*i)
                .map(|s| (*s).to_owned())
                .ok_or_else(|| MdtestParseError(format!("missing value for {flag}")))
        };
        while i < tokens.len() {
            match tokens[i] {
                "-n" => {
                    files_per_rank = value(&mut i, "-n")?
                        .parse()
                        .map_err(|_| MdtestParseError("bad -n".into()))?;
                }
                "-d" => dir = value(&mut i, "-d")?,
                "-i" => {
                    iterations = value(&mut i, "-i")?
                        .parse()
                        .map_err(|_| MdtestParseError("bad -i".into()))?;
                }
                "-u" => unique_dirs = true,
                "-w" | "-e" => {
                    bytes = value(&mut i, "-w")?
                        .parse()
                        .map_err(|_| MdtestParseError("bad payload size".into()))?;
                }
                other => return Err(MdtestParseError(format!("unknown option {other}"))),
            }
            i += 1;
        }
        if files_per_rank == 0 || iterations == 0 {
            return Err(MdtestParseError("-n and -i must be non-zero".into()));
        }
        let workload = match (unique_dirs, bytes) {
            (true, 0) => MdWorkload::Easy,
            (false, 3901) => MdWorkload::Hard,
            _ => MdWorkload::Custom { unique_dirs, bytes },
        };
        Ok(MdtestConfig {
            files_per_rank,
            workload,
            dir,
            iterations,
        })
    }

    /// Render the canonical command line for this configuration.
    #[must_use]
    pub fn to_command(&self) -> String {
        let mut out = format!(
            "mdtest -n {} -d {} -i {}",
            self.files_per_rank, self.dir, self.iterations
        );
        if self.workload.unique_dirs() {
            out.push_str(" -u");
        }
        let bytes = self.workload.file_bytes();
        if bytes > 0 {
            out.push_str(&format!(" -w {bytes} -e {bytes}"));
        }
        out
    }

    fn file_path(&self, rank: u32, index: u64) -> String {
        format!("{}/file.mdtest.{rank}.{index}", self.rank_dir(rank))
    }
}

/// Error parsing an mdtest command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdtestParseError(pub String);

impl std::fmt::Display for MdtestParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid mdtest command: {}", self.0)
    }
}

impl std::error::Error for MdtestParseError {}

/// The metadata phases mdtest measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MdPhase {
    /// File creation (plus payload write for hard).
    Creation,
    /// `stat` on every file.
    Stat,
    /// Read-back of the payload.
    Read,
    /// `unlink` of every file.
    Removal,
}

impl MdPhase {
    /// All phases in execution order.
    pub const ALL: [MdPhase; 4] = [
        MdPhase::Creation,
        MdPhase::Stat,
        MdPhase::Read,
        MdPhase::Removal,
    ];

    /// Label used in mdtest's summary table.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MdPhase::Creation => "File creation",
            MdPhase::Stat => "File stat",
            MdPhase::Read => "File read",
            MdPhase::Removal => "File removal",
        }
    }
}

/// Result of one mdtest run.
#[derive(Debug, Clone)]
pub struct MdtestResult {
    /// Configuration executed.
    pub config: MdtestConfig,
    /// Rank count.
    pub np: u32,
    /// Per-iteration rates (ops/s) for each phase.
    pub rates: Vec<(MdPhase, Vec<f64>)>,
    /// Raw per-phase results of the final iteration.
    pub phases: Vec<(MdPhase, PhaseResult)>,
}

impl MdtestResult {
    /// Mean rate of a phase over iterations, ops/s.
    #[must_use]
    pub fn mean_rate(&self, phase: MdPhase) -> f64 {
        self.rates
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, rates)| stats::mean(rates))
            .unwrap_or(0.0)
    }

    /// Render mdtest's native `SUMMARY rate` table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("mdtest-3.4.0 (iokc reimplementation) was launched with ");
        out.push_str(&format!(
            "{} total task(s) on {} node(s)\n",
            self.np,
            self.np // one rank per node is not implied; informational only
        ));
        out.push_str(&format!(
            "Command line used: mdtest -n {} -d {}{}\n\n",
            self.config.files_per_rank,
            self.config.dir,
            match self.config.workload {
                MdWorkload::Easy => " -u".to_owned(),
                MdWorkload::Hard => " -w 3901 -e 3901".to_owned(),
                MdWorkload::Custom { unique_dirs, bytes } => {
                    let mut extra = String::new();
                    if unique_dirs {
                        extra.push_str(" -u");
                    }
                    if bytes > 0 {
                        extra.push_str(&format!(" -w {bytes} -e {bytes}"));
                    }
                    extra
                }
            }
        ));
        out.push_str(&format!(
            "SUMMARY rate: (of {} iterations)\n",
            self.config.iterations
        ));
        out.push_str(
            "   Operation                      Max            Min           Mean        Std Dev\n",
        );
        out.push_str(
            "   ---------                      ---            ---           ----        -------\n",
        );
        for (phase, rates) in &self.rates {
            out.push_str(&format!(
                "   {:<22}   : {:>14.3} {:>14.3} {:>14.3} {:>14.3}\n",
                phase.label(),
                stats::max(rates),
                stats::min(rates),
                stats::mean(rates),
                stats::stddev(rates)
            ));
        }
        out
    }
}

/// Execute mdtest.
pub fn run_mdtest(
    world: &mut World,
    layout: JobLayout,
    config: &MdtestConfig,
) -> Result<MdtestResult, SimError> {
    let np = layout.np;
    let mut rates: Vec<(MdPhase, Vec<f64>)> =
        MdPhase::ALL.iter().map(|p| (*p, Vec::new())).collect();
    let mut last_phases = Vec::new();

    for _iter in 0..config.iterations {
        // Setup: create the working tree (rank 0 makes the root; each rank
        // its own dir under easy, rank 0 the shared dir under hard).
        let mut setup = world.scripts(np);
        if config.workload.unique_dirs() {
            for rank in 0..np {
                setup.rank(rank).mkdir(&config.rank_dir(rank));
            }
        } else {
            setup.rank(0).mkdir(&config.rank_dir(0));
        }
        for rank in 0..np {
            setup.rank(rank).barrier();
        }
        world.run(layout, &setup)?;

        last_phases.clear();
        for phase in MdPhase::ALL {
            if phase == MdPhase::Read && config.workload.file_bytes() == 0 {
                // mdtest skips the read phase for 0-byte files... it still
                // opens+closes; model it as stat-equivalent opens.
            }
            let mut set = world.scripts(np);
            for rank in 0..np {
                let mut rs = set.rank(rank);
                for index in 0..config.files_per_rank {
                    let path = config.file_path(rank, index);
                    match phase {
                        MdPhase::Creation => {
                            rs.open(&path, OpenMode::Write);
                            if config.workload.file_bytes() > 0 {
                                rs.write(&path, 0, config.workload.file_bytes());
                            }
                            rs.close(&path);
                        }
                        MdPhase::Stat => {
                            rs.stat(&path);
                        }
                        MdPhase::Read => {
                            rs.open(&path, OpenMode::Read);
                            if config.workload.file_bytes() > 0 {
                                rs.read(&path, 0, config.workload.file_bytes());
                            }
                            rs.close(&path);
                        }
                        MdPhase::Removal => {
                            rs.unlink(&path);
                        }
                    }
                }
                rs.barrier();
            }
            let result = world.run(layout, &set)?;
            let total_ops = u64::from(np) * config.files_per_rank;
            let rate = total_ops as f64 / result.wall().as_secs_f64().max(1e-9);
            rates
                .iter_mut()
                .find(|(p, _)| *p == phase)
                .expect("phase present")
                .1
                .push(rate);
            last_phases.push((phase, result));
        }

        // Teardown the tree.
        let mut teardown = world.scripts(np);
        if config.workload.unique_dirs() {
            for rank in 0..np {
                teardown.rank(rank).rmdir(&config.rank_dir(rank));
            }
        } else {
            for rank in 0..np {
                teardown.rank(rank).barrier();
            }
            teardown.rank(0).rmdir(&config.rank_dir(0));
        }
        world.run(layout, &teardown)?;
    }

    Ok(MdtestResult {
        config: config.clone(),
        np,
        rates,
        phases: last_phases,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_sim::config::SystemConfig;
    use iokc_sim::faults::FaultPlan;

    fn world() -> World {
        World::new(SystemConfig::test_small(), FaultPlan::none(), 77)
    }

    #[test]
    fn easy_runs_all_phases() {
        let mut w = world();
        let cfg = MdtestConfig::easy("/scratch", 20);
        let result = run_mdtest(&mut w, JobLayout::new(2, 2), &cfg).unwrap();
        for phase in MdPhase::ALL {
            assert!(
                result.mean_rate(phase) > 0.0,
                "{} rate is zero",
                phase.label()
            );
        }
        // Tree is gone afterwards.
        assert_eq!(w.namespace().file_count(), 0);
        assert!(!w.namespace().is_dir("/scratch/mdtest_tree.0"));
    }

    #[test]
    fn hard_is_slower_than_easy_on_creation() {
        // Shared-directory metadata contention (one MDS) vs spread trees.
        let mut w = world();
        let easy = run_mdtest(
            &mut w,
            JobLayout::new(4, 1),
            &MdtestConfig::easy("/scratch", 50),
        )
        .unwrap();
        let hard = run_mdtest(
            &mut w,
            JobLayout::new(4, 1),
            &MdtestConfig::hard("/scratch", 50),
        )
        .unwrap();
        let easy_rate = easy.mean_rate(MdPhase::Creation);
        let hard_rate = hard.mean_rate(MdPhase::Creation);
        assert!(
            hard_rate < easy_rate,
            "hard create ({hard_rate}) should trail easy ({easy_rate})"
        );
    }

    #[test]
    fn rates_are_bounded_by_metadata_capacity() {
        let mut w = world();
        let cfg = MdtestConfig::easy("/scratch", 100);
        let result = run_mdtest(&mut w, JobLayout::new(4, 1), &cfg).unwrap();
        let cap = w.system().pfs.mds_ops_per_sec * f64::from(w.system().pfs.metadata_servers);
        for phase in MdPhase::ALL {
            let rate = result.mean_rate(phase);
            assert!(rate < cap * 1.5, "{}: {rate} vs cap {cap}", phase.label());
        }
    }

    #[test]
    fn render_produces_summary_table() {
        let mut w = world();
        let cfg = MdtestConfig::hard("/scratch", 10);
        let result = run_mdtest(&mut w, JobLayout::new(2, 2), &cfg).unwrap();
        let text = result.render();
        assert!(text.contains("SUMMARY rate:"));
        assert!(text.contains("File creation"));
        assert!(text.contains("File removal"));
        assert!(text.contains("-w 3901"));
    }

    #[test]
    fn command_parse_and_roundtrip() {
        let easy = MdtestConfig::parse_command("mdtest -n 400 -d /scratch/md -i 2 -u").unwrap();
        assert_eq!(easy.workload, MdWorkload::Easy);
        assert_eq!(easy.files_per_rank, 400);
        assert_eq!(easy.iterations, 2);
        let hard = MdtestConfig::parse_command("mdtest -n 250 -d /scratch -w 3901").unwrap();
        assert_eq!(hard.workload, MdWorkload::Hard);
        let custom = MdtestConfig::parse_command("mdtest -n 10 -u -w 128").unwrap();
        assert_eq!(
            custom.workload,
            MdWorkload::Custom {
                unique_dirs: true,
                bytes: 128
            }
        );
        // Round trip through to_command.
        for config in [&easy, &hard, &custom] {
            let reparsed = MdtestConfig::parse_command(&config.to_command()).unwrap();
            assert_eq!(reparsed, *config);
        }
        assert!(MdtestConfig::parse_command("mdtest -n 0").is_err());
        assert!(MdtestConfig::parse_command("mdtest -q").is_err());
        assert!(MdtestConfig::parse_command("mdtest -n").is_err());
    }

    #[test]
    fn custom_workload_runs() {
        let mut w = world();
        let config = MdtestConfig::parse_command("mdtest -n 5 -d /scratch -u -w 256").unwrap();
        let result = run_mdtest(&mut w, JobLayout::new(2, 2), &config).unwrap();
        assert!(result.mean_rate(MdPhase::Creation) > 0.0);
        let create_phase = &result
            .phases
            .iter()
            .find(|(p, _)| *p == MdPhase::Creation)
            .unwrap()
            .1;
        assert_eq!(create_phase.bytes(OpKind::Write), 2 * 5 * 256);
    }

    #[test]
    fn hard_files_carry_payload() {
        let mut w = world();
        let cfg = MdtestConfig::hard("/scratch", 5);
        let result = run_mdtest(&mut w, JobLayout::new(2, 2), &cfg).unwrap();
        let create_phase = &result
            .phases
            .iter()
            .find(|(p, _)| *p == MdPhase::Creation)
            .unwrap()
            .1;
        assert_eq!(create_phase.bytes(OpKind::Write), 2 * 5 * 3901);
        let read_phase = &result
            .phases
            .iter()
            .find(|(p, _)| *p == MdPhase::Read)
            .unwrap()
            .1;
        assert_eq!(read_phase.bytes(OpKind::Read), 2 * 5 * 3901);
    }
}
