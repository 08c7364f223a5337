//! A reimplementation of the IOR parallel I/O benchmark.
//!
//! Covers the option surface the paper's experiments use — §V-E1 runs
//! `ior -a mpiio -b 4m -t 2m -s 40 -F -C -e -i 6 -o <file> -k` — plus the
//! pieces IO500 needs (POSIX API, unaligned transfers, shared files,
//! read-only/write-only phases). The driver compiles each iteration into
//! rank scripts for [`iokc_sim`], executes them, and reports per-iteration
//! results in IOR's native output format (see [`crate::ior_output`]).

use crate::ior_output::{render_output, IorSample};
use iokc_sim::api::{
    close_file, collective_xfer, independent_xfer, open_file, CollectiveRound, IoApi,
};
use iokc_sim::engine::{JobLayout, SimError, World};
use iokc_sim::metrics::PhaseResult;
use iokc_sim::rng::Rng;
use iokc_sim::script::{OpKind, OpenMode, ScriptSet, StripeHint};
use std::fmt;

/// Access direction of a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Write phase.
    Write,
    /// Read phase.
    Read,
}

impl Access {
    /// Lowercase name used in output rows.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Access::Write => "write",
            Access::Read => "read",
        }
    }
}

/// Parsed IOR configuration (a subset of the real tool's ~80 options,
/// chosen to cover the paper and IO500).
#[derive(Debug, Clone, PartialEq)]
pub struct IorConfig {
    /// `-a`: I/O interface.
    pub api: IoApi,
    /// `-b`: per-task block size per segment, bytes.
    pub block_size: u64,
    /// `-t`: transfer size, bytes.
    pub transfer_size: u64,
    /// `-s`: number of segments.
    pub segments: u64,
    /// `-F`: one file per task.
    pub file_per_proc: bool,
    /// `-C`: reorder tasks: read data written by a different node.
    pub reorder_tasks: bool,
    /// `-e`: fsync after each write phase.
    pub fsync: bool,
    /// `-i`: repetition count.
    pub iterations: u32,
    /// `-o`: test file path.
    pub test_file: String,
    /// `-k`: keep the test files after the run.
    pub keep_file: bool,
    /// `-w`: write phase enabled (both default on when neither given).
    pub write: bool,
    /// `-r`: read phase enabled.
    pub read: bool,
    /// `-c`: collective (two-phase) MPI-IO transfers.
    pub collective: bool,
    /// `-z`: random (shuffled) intra-rank access ordering.
    pub random_offsets: bool,
    /// `-D`: stonewall deadline in seconds (0 = off). Ranks stop issuing
    /// transfers once a phase has run this long; IO500 runs IOR this way.
    pub deadline_secs: u32,
    /// Stripe hint passed at create time (IOR's `--posix.odirect`-style
    /// extras are out of scope; striping is the tunable the paper's
    /// recommendation module targets).
    pub stripe: StripeHint,
}

impl Default for IorConfig {
    fn default() -> IorConfig {
        IorConfig {
            api: IoApi::Posix,
            block_size: 1 << 20,
            transfer_size: 256 << 10,
            segments: 1,
            file_per_proc: false,
            reorder_tasks: false,
            fsync: false,
            iterations: 1,
            test_file: "/scratch/testFile".to_owned(),
            keep_file: false,
            write: true,
            read: true,
            collective: false,
            random_offsets: false,
            deadline_secs: 0,
            stripe: StripeHint::default(),
        }
    }
}

/// Error parsing an IOR command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IorParseError(pub String);

impl fmt::Display for IorParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ior command: {}", self.0)
    }
}

impl std::error::Error for IorParseError {}

impl IorConfig {
    /// Parse an `ior …` command line (the paper's §V-E1 syntax). The
    /// leading `ior` token is optional. Unicode en-dashes (as they appear
    /// in the paper's PDF text) are accepted as `-`.
    pub fn parse_command(command: &str) -> Result<IorConfig, IorParseError> {
        let normalized = command.replace('\u{2013}', "-").replace('\u{2014}', "--");
        let tokens: Vec<&str> = normalized.split_whitespace().collect();
        let mut cfg = IorConfig::default();
        let mut explicit_rw = false;
        let mut pending_write = false;
        let mut pending_read = false;
        let mut i = 0;
        if tokens.first().copied() == Some("ior") {
            i = 1;
        }
        let value = |i: &mut usize, flag: &str| -> Result<String, IorParseError> {
            *i += 1;
            tokens
                .get(*i)
                .map(|s| (*s).to_owned())
                .ok_or_else(|| IorParseError(format!("missing value for {flag}")))
        };
        while i < tokens.len() {
            match tokens[i] {
                "-a" => {
                    let v = value(&mut i, "-a")?;
                    cfg.api = IoApi::parse(&v)
                        .ok_or_else(|| IorParseError(format!("unknown api {v}")))?;
                }
                "-b" => {
                    let v = value(&mut i, "-b")?;
                    cfg.block_size = iokc_util::units::parse_size(&v)
                        .map_err(|e| IorParseError(e.to_string()))?;
                }
                "-t" => {
                    let v = value(&mut i, "-t")?;
                    cfg.transfer_size = iokc_util::units::parse_size(&v)
                        .map_err(|e| IorParseError(e.to_string()))?;
                }
                "-s" => {
                    let v = value(&mut i, "-s")?;
                    cfg.segments = v
                        .parse()
                        .map_err(|_| IorParseError(format!("bad segment count {v}")))?;
                }
                "-i" => {
                    let v = value(&mut i, "-i")?;
                    cfg.iterations = v
                        .parse()
                        .map_err(|_| IorParseError(format!("bad iteration count {v}")))?;
                }
                "-o" => {
                    cfg.test_file = value(&mut i, "-o")?;
                }
                "-D" => {
                    let v = value(&mut i, "-D")?;
                    cfg.deadline_secs = v
                        .parse()
                        .map_err(|_| IorParseError(format!("bad deadline {v}")))?;
                }
                "-F" => cfg.file_per_proc = true,
                "-C" => cfg.reorder_tasks = true,
                "-e" => cfg.fsync = true,
                "-k" => cfg.keep_file = true,
                "-c" => cfg.collective = true,
                "-z" => cfg.random_offsets = true,
                "-w" => {
                    explicit_rw = true;
                    pending_write = true;
                }
                "-r" => {
                    explicit_rw = true;
                    pending_read = true;
                }
                other => {
                    return Err(IorParseError(format!("unknown option {other}")));
                }
            }
            i += 1;
        }
        if explicit_rw {
            cfg.write = pending_write;
            cfg.read = pending_read;
        }
        if cfg.block_size == 0 || cfg.transfer_size == 0 {
            return Err(IorParseError(
                "block and transfer size must be non-zero".into(),
            ));
        }
        if cfg.block_size % cfg.transfer_size != 0 {
            return Err(IorParseError(format!(
                "block size {} not a multiple of transfer size {}",
                cfg.block_size, cfg.transfer_size
            )));
        }
        if cfg.iterations == 0 || cfg.segments == 0 {
            return Err(IorParseError(
                "iterations and segments must be non-zero".into(),
            ));
        }
        cfg.api = cfg.api.with_collective(cfg.collective);
        Ok(cfg)
    }

    /// Render the configuration back into a canonical command line (used
    /// by the usage phase's "create configuration" feature).
    #[must_use]
    pub fn to_command(&self) -> String {
        let mut out = format!(
            "ior -a {} -b {} -t {} -s {}",
            self.api.as_str().to_ascii_lowercase(),
            render_size(self.block_size),
            render_size(self.transfer_size),
            self.segments
        );
        if self.file_per_proc {
            out.push_str(" -F");
        }
        if self.reorder_tasks {
            out.push_str(" -C");
        }
        if self.fsync {
            out.push_str(" -e");
        }
        if self.collective {
            out.push_str(" -c");
        }
        if self.random_offsets {
            out.push_str(" -z");
        }
        if self.deadline_secs > 0 {
            out.push_str(&format!(" -D {}", self.deadline_secs));
        }
        out.push_str(&format!(" -i {}", self.iterations));
        out.push_str(&format!(" -o {}", self.test_file));
        if self.keep_file {
            out.push_str(" -k");
        }
        match (self.write, self.read) {
            (true, true) => {}
            (true, false) => out.push_str(" -w"),
            (false, true) => out.push_str(" -r"),
            (false, false) => {}
        }
        out
    }

    /// Per-rank bytes per iteration.
    #[must_use]
    pub fn bytes_per_rank(&self) -> u64 {
        self.block_size * self.segments
    }

    /// Aggregate bytes per iteration for `np` ranks.
    #[must_use]
    pub fn aggregate_bytes(&self, np: u32) -> u64 {
        self.bytes_per_rank() * u64::from(np)
    }

    /// The file a rank accesses (rank-suffixed under `-F`).
    #[must_use]
    pub fn file_for(&self, rank: u32) -> String {
        if self.file_per_proc {
            format!("{}.{:08}", self.test_file, rank)
        } else {
            self.test_file.clone()
        }
    }
}

fn render_size(bytes: u64) -> String {
    const MIB: u64 = 1 << 20;
    const KIB: u64 = 1 << 10;
    const GIB: u64 = 1 << 30;
    if bytes.is_multiple_of(GIB) {
        format!("{}g", bytes / GIB)
    } else if bytes.is_multiple_of(MIB) {
        format!("{}m", bytes / MIB)
    } else if bytes.is_multiple_of(KIB) {
        format!("{}k", bytes / KIB)
    } else {
        format!("{bytes}")
    }
}

/// Result of a full IOR run.
#[derive(Debug, Clone)]
pub struct IorRunResult {
    /// The configuration executed.
    pub config: IorConfig,
    /// Rank count.
    pub np: u32,
    /// Ranks per node.
    pub ppn: u32,
    /// One sample per (iteration, access) in execution order.
    pub samples: Vec<IorSample>,
    /// The raw phase results (for Darshan instrumentation).
    pub phases: Vec<(Access, u32, PhaseResult)>,
}

impl IorRunResult {
    /// Samples of one access direction.
    pub fn samples_of(&self, access: Access) -> impl Iterator<Item = &IorSample> + '_ {
        self.samples.iter().filter(move |s| s.access == access)
    }

    /// Max bandwidth over iterations for an access direction, MiB/s.
    #[must_use]
    pub fn max_bw(&self, access: Access) -> f64 {
        self.samples_of(access)
            .map(|s| s.bw_mib)
            .fold(0.0, f64::max)
    }

    /// Mean bandwidth over iterations for an access direction, MiB/s.
    #[must_use]
    pub fn mean_bw(&self, access: Access) -> f64 {
        let values: Vec<f64> = self.samples_of(access).map(|s| s.bw_mib).collect();
        iokc_util::stats::mean(&values)
    }

    /// Render the run in IOR's output format.
    #[must_use]
    pub fn render(&self) -> String {
        render_output(self)
    }
}

/// Execute an IOR configuration against a world.
///
/// `seed` feeds only benchmark-local randomness (`-z` shuffling); system
/// randomness comes from the world's own RNG.
pub fn run_ior(
    world: &mut World,
    layout: JobLayout,
    config: &IorConfig,
    seed: u64,
) -> Result<IorRunResult, SimError> {
    let mut rng = Rng::seed_from(seed ^ 0x1092_80ff);
    let mut samples = Vec::new();
    let mut phases = Vec::new();
    for iter in 0..config.iterations {
        if config.write {
            let scripts = build_phase(world, config, layout, Access::Write, &mut rng);
            let result = world.run(layout, &scripts)?;
            samples.push(sample_from(config, layout, Access::Write, iter, &result));
            phases.push((Access::Write, iter, result));
        }
        if config.read {
            let scripts = build_phase(world, config, layout, Access::Read, &mut rng);
            let result = world.run(layout, &scripts)?;
            samples.push(sample_from(config, layout, Access::Read, iter, &result));
            phases.push((Access::Read, iter, result));
        }
        if !config.keep_file && iter + 1 == config.iterations {
            // Remove test files at the end of the run (rank 0 cleans up).
            let mut cleanup = world.scripts(layout.np);
            if config.file_per_proc {
                for rank in 0..layout.np {
                    let file = config.file_for(rank);
                    cleanup.rank(rank).unlink(&file);
                }
            } else {
                cleanup.rank(0).unlink(&config.test_file);
            }
            world.run(layout, &cleanup)?;
        }
    }
    Ok(IorRunResult {
        config: config.clone(),
        np: layout.np,
        ppn: layout.ppn,
        samples,
        phases,
    })
}

/// The rank whose data rank `r` accesses during a read phase.
fn read_peer(config: &IorConfig, layout: JobLayout, rank: u32) -> u32 {
    if config.reorder_tasks {
        // reorderTasksConstant: shift by one node's worth of tasks, so a
        // rank never reads what its own node cached.
        (rank + layout.ppn) % layout.np
    } else {
        rank
    }
}

/// Offset of (segment, transfer) for `rank` in its file.
fn xfer_offset(config: &IorConfig, np: u32, rank: u32, segment: u64, xfer: u64) -> u64 {
    let within_block = xfer * config.transfer_size;
    if config.file_per_proc {
        segment * config.block_size + within_block
    } else {
        // Segmented shared layout: segment s holds one block per rank.
        (segment * u64::from(np) + u64::from(rank)) * config.block_size + within_block
    }
}

fn build_phase(
    world: &World,
    config: &IorConfig,
    layout: JobLayout,
    access: Access,
    rng: &mut Rng,
) -> ScriptSet {
    let np = layout.np;
    let mut set = world.scripts(np);
    if config.deadline_secs > 0 {
        set.set_stonewall(iokc_sim::time::SimDuration::from_secs(u64::from(
            config.deadline_secs,
        )));
    }
    let xfers_per_block = config.block_size / config.transfer_size;
    let is_write = access == Access::Write;
    let mode = if is_write {
        OpenMode::Write
    } else {
        OpenMode::Read
    };

    // Open (collective APIs synchronize on open).
    for rank in 0..np {
        let data_rank = if is_write {
            rank
        } else {
            read_peer(config, layout, rank)
        };
        let file = config.file_for(data_rank);
        open_file(config.api, &mut set.rank(rank), &file, mode, config.stripe);
    }
    for rank in 0..np {
        set.rank(rank).barrier();
    }

    if config.api.is_collective() && !config.file_per_proc {
        // Two-phase collective rounds over the shared file: one round per
        // (segment, transfer) step; every rank contributes one piece.
        let mut tag = 1u32;
        for segment in 0..config.segments {
            for x in 0..xfers_per_block {
                let offsets: Vec<u64> = (0..np)
                    .map(|rank| {
                        let data_rank = if is_write {
                            rank
                        } else {
                            read_peer(config, layout, rank)
                        };
                        xfer_offset(config, np, data_rank, segment, x)
                    })
                    .collect();
                collective_xfer(
                    config.api,
                    &mut set,
                    &CollectiveRound {
                        path: &config.test_file,
                        offsets: &offsets,
                        len: config.transfer_size,
                        is_write,
                        ppn: layout.ppn,
                        tag: tag * (np + 1),
                    },
                );
                tag += 1;
            }
        }
    } else {
        for rank in 0..np {
            let data_rank = if is_write {
                rank
            } else {
                read_peer(config, layout, rank)
            };
            let file = config.file_for(data_rank);
            let mut accesses: Vec<u64> =
                Vec::with_capacity((config.segments * xfers_per_block) as usize);
            for segment in 0..config.segments {
                for x in 0..xfers_per_block {
                    accesses.push(xfer_offset(config, np, data_rank, segment, x));
                }
            }
            if config.random_offsets {
                rng.shuffle(&mut accesses);
            }
            let mut rs = set.rank(rank);
            for offset in accesses {
                independent_xfer(
                    config.api,
                    &mut rs,
                    &file,
                    offset,
                    config.transfer_size,
                    is_write,
                );
            }
        }
    }

    // fsync (write phases with -e), close, final barrier.
    for rank in 0..np {
        let data_rank = if is_write {
            rank
        } else {
            read_peer(config, layout, rank)
        };
        let file = config.file_for(data_rank);
        if is_write && config.fsync {
            set.rank(rank).fsync(&file);
        }
        close_file(config.api, &mut set.rank(rank), &file);
        set.rank(rank).barrier();
    }
    set
}

fn sample_from(
    config: &IorConfig,
    layout: JobLayout,
    access: Access,
    iter: u32,
    result: &PhaseResult,
) -> IorSample {
    let kind = match access {
        Access::Write => OpKind::Write,
        Access::Read => OpKind::Read,
    };
    let total_s = result.wall().as_secs_f64();
    // Under stonewalling fewer bytes move than configured; report what
    // actually happened (IOR prints the stonewalled byte count).
    let bytes = if result.stonewalled_ops > 0 {
        result.bytes(kind)
    } else {
        config.aggregate_bytes(layout.np)
    };
    let ops = result.ops(kind);
    let wrrd_s = result.span_secs(kind);
    let latencies = result.latencies_secs(kind);
    IorSample {
        access,
        bw_mib: if total_s > 0.0 {
            iokc_util::units::to_mib(bytes) / total_s
        } else {
            0.0
        },
        iops: if wrrd_s > 0.0 {
            ops as f64 / wrrd_s
        } else {
            0.0
        },
        latency_s: iokc_util::stats::mean(&latencies),
        block_kib: config.block_size / 1024,
        xfer_kib: config.transfer_size / 1024,
        open_s: result.span_secs(OpKind::Open),
        wrrd_s,
        close_s: result.span_secs(OpKind::Close),
        total_s,
        iter,
        ops,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_sim::config::SystemConfig;
    use iokc_sim::faults::FaultPlan;
    use iokc_util::units::MIB;

    #[test]
    fn parses_the_papers_command() {
        let cfg = IorConfig::parse_command(
            "ior -a mpiio -b 4m -t 2m -s 40 -F -C -e -i 6 -o /scratch/fuchs/zhuz/test80 -k",
        )
        .unwrap();
        assert_eq!(cfg.api, IoApi::MpiIo { collective: false });
        assert_eq!(cfg.block_size, 4 * MIB);
        assert_eq!(cfg.transfer_size, 2 * MIB);
        assert_eq!(cfg.segments, 40);
        assert!(cfg.file_per_proc && cfg.reorder_tasks && cfg.fsync && cfg.keep_file);
        assert_eq!(cfg.iterations, 6);
        assert_eq!(cfg.test_file, "/scratch/fuchs/zhuz/test80");
        assert!(cfg.write && cfg.read, "neither -w nor -r means both");
    }

    #[test]
    fn parses_en_dashes_from_pdf_text() {
        let cfg =
            IorConfig::parse_command("ior \u{2013}a mpiio \u{2013}b 4m \u{2013}t 2m \u{2013}s 40")
                .unwrap();
        assert_eq!(cfg.segments, 40);
    }

    #[test]
    fn command_roundtrip() {
        let original = "ior -a mpiio -b 4m -t 2m -s 40 -F -C -e -i 6 -o /scratch/t -k";
        let cfg = IorConfig::parse_command(original).unwrap();
        let rendered = cfg.to_command();
        let reparsed = IorConfig::parse_command(&rendered).unwrap();
        assert_eq!(cfg, reparsed);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(IorConfig::parse_command("ior -a netcdf").is_err());
        assert!(IorConfig::parse_command("ior -b").is_err());
        assert!(IorConfig::parse_command("ior -b 3m -t 2m").is_err());
        assert!(IorConfig::parse_command("ior -q").is_err());
        assert!(IorConfig::parse_command("ior -i 0").is_err());
    }

    #[test]
    fn write_only_and_read_only() {
        let w = IorConfig::parse_command("ior -w -o /scratch/x").unwrap();
        assert!(w.write && !w.read);
        let r = IorConfig::parse_command("ior -r -o /scratch/x").unwrap();
        assert!(!r.write && r.read);
    }

    fn small_world() -> World {
        World::new(SystemConfig::test_small(), FaultPlan::none(), 11)
    }

    #[test]
    fn runs_file_per_process() {
        let mut world = small_world();
        let cfg =
            IorConfig::parse_command("ior -a posix -b 1m -t 256k -s 2 -F -i 2 -o /scratch/fp -k")
                .unwrap();
        let result = run_ior(&mut world, JobLayout::new(4, 2), &cfg, 1).unwrap();
        // 2 iterations × (write + read).
        assert_eq!(result.samples.len(), 4);
        for s in &result.samples {
            assert!(s.bw_mib > 0.0, "sample has zero bandwidth: {s:?}");
            assert_eq!(s.ops, 4 * 2 * 4); // np × segments × xfers/block
        }
        // Files kept: namespace still has them.
        assert!(world.namespace().file("/scratch/fp.00000000").is_some());
        assert!(world.namespace().file("/scratch/fp.00000003").is_some());
    }

    #[test]
    fn shared_file_without_keep_is_removed() {
        let mut world = small_world();
        let cfg =
            IorConfig::parse_command("ior -a posix -b 512k -t 256k -s 1 -i 1 -o /scratch/shared")
                .unwrap();
        run_ior(&mut world, JobLayout::new(2, 2), &cfg, 1).unwrap();
        assert!(world.namespace().file("/scratch/shared").is_none());
    }

    #[test]
    fn reorder_tasks_defeats_cache_on_read() {
        // Without -C the read phase is served from page cache and reports
        // (much) higher bandwidth than with -C.
        let run = |reorder: bool| {
            let mut world = small_world();
            let mut cfg = IorConfig::parse_command(
                "ior -a posix -b 1m -t 256k -s 2 -F -i 1 -o /scratch/cc -k",
            )
            .unwrap();
            cfg.reorder_tasks = reorder;
            let result = run_ior(&mut world, JobLayout::new(4, 2), &cfg, 1).unwrap();
            result.max_bw(Access::Read)
        };
        let cached = run(false);
        let reordered = run(true);
        assert!(
            cached > reordered * 2.0,
            "cached read {cached} should dwarf reordered {reordered}"
        );
    }

    #[test]
    fn collective_mode_executes_on_shared_file() {
        let mut world = small_world();
        let cfg = IorConfig::parse_command(
            "ior -a mpiio -c -b 512k -t 256k -s 2 -i 1 -o /scratch/coll -k",
        )
        .unwrap();
        let result = run_ior(&mut world, JobLayout::new(4, 2), &cfg, 1).unwrap();
        assert_eq!(result.samples.len(), 2);
        assert!(result.max_bw(Access::Write) > 0.0);
        // Aggregate file size is still np × block × segments.
        assert_eq!(
            world.namespace().file("/scratch/coll").unwrap().size,
            4 * 512 * 1024 * 2
        );
    }

    #[test]
    fn output_renders_and_contains_summary() {
        let mut world = small_world();
        let cfg =
            IorConfig::parse_command("ior -a posix -b 1m -t 512k -s 1 -F -i 2 -o /scratch/ro -k")
                .unwrap();
        let result = run_ior(&mut world, JobLayout::new(2, 2), &cfg, 1).unwrap();
        let text = result.render();
        assert!(text.contains("Max Write:"));
        assert!(text.contains("Max Read:"));
        assert!(text.contains("access"));
        assert!(text.contains("write"));
        assert_eq!(
            text.matches("\nwrite").count(),
            3,
            "2 iteration rows + summary row"
        );
    }

    #[test]
    fn random_offsets_shuffle_deterministically() {
        let build = |seed: u64| {
            let mut world = small_world();
            let mut cfg = IorConfig::parse_command(
                "ior -a posix -b 1m -t 256k -s 1 -F -i 1 -o /scratch/z -k",
            )
            .unwrap();
            cfg.random_offsets = true;
            run_ior(&mut world, JobLayout::new(2, 2), &cfg, seed)
                .unwrap()
                .samples[0]
                .bw_mib
        };
        assert_eq!(build(5), build(5));
    }

    #[test]
    fn stonewall_caps_phase_duration() {
        // A run that would take ~2 s through a narrow fabric is
        // stonewalled after 1 s: fewer ops complete and the phase span
        // shrinks accordingly.
        let sys = {
            let mut s = SystemConfig::test_small();
            s.cluster.fabric_bandwidth = 0.2e9;
            s
        };
        let unlimited = {
            let mut world = World::new(sys.clone(), FaultPlan::none(), 19);
            let cfg = IorConfig::parse_command(
                "ior -a posix -b 32m -t 1m -s 3 -F -i 1 -o /scratch/sw -k -w",
            )
            .unwrap();
            run_ior(&mut world, JobLayout::new(4, 2), &cfg, 1).unwrap()
        };
        let walled = {
            let mut world = World::new(sys, FaultPlan::none(), 19);
            let cfg = IorConfig::parse_command(
                "ior -a posix -b 32m -t 1m -s 3 -F -i 1 -D 1 -o /scratch/sw -k -w",
            )
            .unwrap();
            run_ior(&mut world, JobLayout::new(4, 2), &cfg, 1).unwrap()
        };
        let full = unlimited.samples_of(Access::Write).next().unwrap();
        let capped = walled.samples_of(Access::Write).next().unwrap();
        assert!(
            full.total_s > 1.5,
            "uncapped run too fast: {}",
            full.total_s
        );
        assert!(
            capped.total_s < full.total_s * 0.8,
            "stonewall must shorten the phase: {} vs {}",
            capped.total_s,
            full.total_s
        );
        assert!(capped.ops < full.ops, "{} vs {}", capped.ops, full.ops);
        // Round trip of the flag.
        let cfg = IorConfig::parse_command("ior -D 30 -o /scratch/x").unwrap();
        assert_eq!(cfg.deadline_secs, 30);
        assert!(cfg.to_command().contains("-D 30"));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn config_command_roundtrip(
                api in prop_oneof![Just("posix"), Just("mpiio"), Just("hdf5")],
                block_pow in 18u32..24,
                xfer_pow in 16u32..20,
                segments in 1u64..50,
                iterations in 1u32..8,
                deadline in 0u32..100,
                flags in proptest::collection::vec(any::<bool>(), 7),
            ) {
                let mut config = IorConfig::parse_command(&format!(
                    "ior -a {api} -o /scratch/prop"
                ))
                .unwrap();
                config.block_size = 1 << block_pow.max(xfer_pow);
                config.transfer_size = 1 << xfer_pow;
                config.segments = segments;
                config.iterations = iterations;
                config.deadline_secs = deadline;
                config.file_per_proc = flags[0];
                config.reorder_tasks = flags[1];
                config.fsync = flags[2];
                config.keep_file = flags[3];
                config.collective = flags[4] && api != "posix";
                config.api = config.api.with_collective(config.collective);
                config.random_offsets = flags[5];
                config.write = true;
                config.read = flags[6];
                let reparsed = IorConfig::parse_command(&config.to_command()).unwrap();
                prop_assert_eq!(reparsed, config);
            }

            #[test]
            fn parse_never_panics(command in ".{0,80}") {
                let _ = IorConfig::parse_command(&command);
            }
        }
    }

    #[test]
    fn more_segments_move_more_bytes() {
        let cfg = IorConfig::parse_command("ior -b 4m -t 2m -s 40 -o /scratch/x").unwrap();
        assert_eq!(cfg.bytes_per_rank(), 160 * MIB);
        assert_eq!(cfg.aggregate_bytes(80), 80 * 160 * MIB);
    }
}
