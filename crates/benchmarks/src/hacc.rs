//! A reimplementation of the HACC-IO checkpoint/restart benchmark.
//!
//! HACC-IO emulates the I/O of the HACC cosmology code: every rank owns a
//! particle population and checkpoints it (9 variables, 38 bytes per
//! particle: 7× `f32`, 1× `i64`, 1× `u16`), then restarts by reading it
//! back. The paper (§V-A) integrates it for "real I/O patterns like
//! checkpoint and restart", with its three file modes and two APIs.

use iokc_sim::api::{close_file, independent_xfer, open_file, IoApi};
use iokc_sim::engine::{JobLayout, SimError, World};
use iokc_sim::metrics::PhaseResult;
#[cfg(test)]
use iokc_sim::script::OpKind;
use iokc_sim::script::{OpenMode, StripeHint};

/// Bytes per particle record (xx,yy,zz,vx,vy,vz,phi as f32; pid as i64;
/// mask as u16).
pub const BYTES_PER_PARTICLE: u64 = 38;

/// How ranks map to checkpoint files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileMode {
    /// All ranks write one shared file.
    SingleSharedFile,
    /// Each rank writes its own file.
    FilePerProcess,
    /// Ranks are partitioned into groups of `group_size`, one file each.
    FilePerGroup {
        /// Ranks per group file.
        group_size: u32,
    },
}

impl FileMode {
    /// Name used in output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FileMode::SingleSharedFile => "single-shared-file",
            FileMode::FilePerProcess => "file-per-process",
            FileMode::FilePerGroup { .. } => "one-file-per-group",
        }
    }
}

/// HACC-IO configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HaccConfig {
    /// Particles per rank.
    pub particles_per_rank: u64,
    /// File layout mode.
    pub mode: FileMode,
    /// I/O interface (POSIX or MPI-IO per the real benchmark).
    pub api: IoApi,
    /// Checkpoint file path (base name).
    pub path: String,
    /// Perform the restart (read-back) phase.
    pub restart: bool,
}

impl HaccConfig {
    /// A standard configuration.
    #[must_use]
    pub fn new(particles_per_rank: u64, mode: FileMode, api: IoApi, path: &str) -> HaccConfig {
        HaccConfig {
            particles_per_rank,
            mode,
            api,
            path: path.to_owned(),
            restart: true,
        }
    }

    /// Bytes each rank moves per phase.
    #[must_use]
    pub fn bytes_per_rank(&self) -> u64 {
        self.particles_per_rank * BYTES_PER_PARTICLE
    }

    fn file_of(&self, rank: u32) -> (String, u64) {
        match self.mode {
            FileMode::SingleSharedFile => {
                (self.path.clone(), u64::from(rank) * self.bytes_per_rank())
            }
            FileMode::FilePerProcess => (format!("{}.{rank:06}", self.path), 0),
            FileMode::FilePerGroup { group_size } => {
                let gs = group_size.max(1);
                let group = rank / gs;
                let within = u64::from(rank % gs);
                (
                    format!("{}.g{group:04}", self.path),
                    within * self.bytes_per_rank(),
                )
            }
        }
    }
}

/// Result of a HACC-IO run.
#[derive(Debug, Clone)]
pub struct HaccResult {
    /// Configuration executed.
    pub config: HaccConfig,
    /// Rank count.
    pub np: u32,
    /// Checkpoint (write) bandwidth, MiB/s.
    pub checkpoint_bw_mib: f64,
    /// Restart (read) bandwidth, MiB/s (0 when restart disabled).
    pub restart_bw_mib: f64,
    /// Checkpoint phase record.
    pub checkpoint: PhaseResult,
    /// Restart phase record, when performed.
    pub restart: Option<PhaseResult>,
}

impl HaccResult {
    /// Render HACC-IO-style summary output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("-------- HACC-IO (iokc reimplementation) --------\n");
        out.push_str(&format!("Number of ranks    : {}\n", self.np));
        out.push_str(&format!(
            "Particles per rank : {}\n",
            self.config.particles_per_rank
        ));
        out.push_str(&format!(
            "File mode          : {}\n",
            self.config.mode.as_str()
        ));
        out.push_str(&format!(
            "API                : {}\n",
            self.config.api.as_str()
        ));
        out.push_str(&format!(
            "Data per rank      : {:.2} MB\n",
            self.config.bytes_per_rank() as f64 / 1e6
        ));
        out.push_str(&format!(
            "Aggregate Checkpoint Performance: {:.2} MiB/s\n",
            self.checkpoint_bw_mib
        ));
        if self.restart.is_some() {
            out.push_str(&format!(
                "Aggregate Restart Performance:    {:.2} MiB/s\n",
                self.restart_bw_mib
            ));
        }
        out
    }
}

/// Execute HACC-IO: checkpoint, then (optionally) restart.
pub fn run_hacc(
    world: &mut World,
    layout: JobLayout,
    config: &HaccConfig,
) -> Result<HaccResult, SimError> {
    let np = layout.np;
    let per_rank = config.bytes_per_rank();
    // HACC-IO transfers each rank's particle block in large chunks; the
    // real GLEAN layer pushes one contiguous buffer — model as up to 8 MiB
    // pieces so striping parallelism is exercised.
    const PIECE: u64 = 8 << 20;

    // Checkpoint phase.
    let mut write_set = world.scripts(np);
    for rank in 0..np {
        let (file, base) = config.file_of(rank);
        open_file(
            config.api,
            &mut write_set.rank(rank),
            &file,
            OpenMode::Write,
            StripeHint::default(),
        );
        write_set.rank(rank).barrier();
        let mut written = 0;
        while written < per_rank {
            let len = PIECE.min(per_rank - written);
            independent_xfer(
                config.api,
                &mut write_set.rank(rank),
                &file,
                base + written,
                len,
                true,
            );
            written += len;
        }
        write_set.rank(rank).fsync(&file);
        close_file(config.api, &mut write_set.rank(rank), &file);
        write_set.rank(rank).barrier();
    }
    let checkpoint = world.run(layout, &write_set)?;
    let checkpoint_bw_mib =
        iokc_util::units::mib_per_sec(per_rank * u64::from(np), checkpoint.wall().nanos());

    // Restart phase: every rank reads back a *different* rank's block
    // (restart after re-balancing never aligns with the writer), which
    // also defeats the page cache as on a real restart from a fresh job.
    let (restart, restart_bw_mib) = if config.restart {
        let mut read_set = world.scripts(np);
        for rank in 0..np {
            let peer = (rank + layout.ppn) % np;
            let (file, base) = config.file_of(peer);
            open_file(
                config.api,
                &mut read_set.rank(rank),
                &file,
                OpenMode::Read,
                StripeHint::default(),
            );
            read_set.rank(rank).barrier();
            let mut read = 0;
            while read < per_rank {
                let len = PIECE.min(per_rank - read);
                independent_xfer(
                    config.api,
                    &mut read_set.rank(rank),
                    &file,
                    base + read,
                    len,
                    false,
                );
                read += len;
            }
            close_file(config.api, &mut read_set.rank(rank), &file);
            read_set.rank(rank).barrier();
        }
        let result = world.run(layout, &read_set)?;
        let bw = iokc_util::units::mib_per_sec(per_rank * u64::from(np), result.wall().nanos());
        (Some(result), bw)
    } else {
        (None, 0.0)
    };

    Ok(HaccResult {
        config: config.clone(),
        np,
        checkpoint_bw_mib,
        restart_bw_mib,
        checkpoint,
        restart,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_sim::config::SystemConfig;
    use iokc_sim::faults::FaultPlan;

    fn world() -> World {
        World::new(SystemConfig::test_small(), FaultPlan::none(), 123)
    }

    #[test]
    fn particle_record_is_38_bytes() {
        // 7 × f32 + i64 + u16 = 28 + 8 + 2.
        assert_eq!(BYTES_PER_PARTICLE, 7 * 4 + 8 + 2);
        let cfg = HaccConfig::new(
            1_000_000,
            FileMode::FilePerProcess,
            IoApi::Posix,
            "/scratch/p",
        );
        assert_eq!(cfg.bytes_per_rank(), 38_000_000);
    }

    #[test]
    fn file_modes_map_ranks_correctly() {
        let mk = |mode| HaccConfig::new(100, mode, IoApi::Posix, "/scratch/hacc");
        let ssf = mk(FileMode::SingleSharedFile);
        assert_eq!(ssf.file_of(0), ("/scratch/hacc".to_owned(), 0));
        assert_eq!(ssf.file_of(3), ("/scratch/hacc".to_owned(), 3 * 3800));
        let fpp = mk(FileMode::FilePerProcess);
        assert_eq!(fpp.file_of(2), ("/scratch/hacc.000002".to_owned(), 0));
        let fpg = mk(FileMode::FilePerGroup { group_size: 2 });
        assert_eq!(fpg.file_of(0), ("/scratch/hacc.g0000".to_owned(), 0));
        assert_eq!(fpg.file_of(1), ("/scratch/hacc.g0000".to_owned(), 3800));
        assert_eq!(fpg.file_of(2), ("/scratch/hacc.g0001".to_owned(), 0));
    }

    #[test]
    fn checkpoint_and_restart_run() {
        let mut w = world();
        let cfg = HaccConfig::new(
            50_000,
            FileMode::FilePerProcess,
            IoApi::Posix,
            "/scratch/hc",
        );
        let result = run_hacc(&mut w, JobLayout::new(4, 2), &cfg).unwrap();
        assert!(result.checkpoint_bw_mib > 0.0);
        assert!(result.restart_bw_mib > 0.0);
        assert_eq!(result.checkpoint.bytes(OpKind::Write), 4 * 50_000 * 38);
        assert_eq!(
            result.restart.as_ref().unwrap().bytes(OpKind::Read),
            4 * 50_000 * 38
        );
    }

    #[test]
    fn shared_file_mode_creates_one_file() {
        let mut w = world();
        let cfg = HaccConfig::new(
            10_000,
            FileMode::SingleSharedFile,
            IoApi::MpiIo { collective: false },
            "/scratch/ssf",
        );
        run_hacc(&mut w, JobLayout::new(4, 2), &cfg).unwrap();
        assert!(w.namespace().file("/scratch/ssf").is_some());
        assert_eq!(
            w.namespace().file("/scratch/ssf").unwrap().size,
            4 * 380_000
        );
        assert_eq!(w.namespace().file_count(), 1);
    }

    #[test]
    fn group_mode_creates_one_file_per_group() {
        let mut w = world();
        let cfg = HaccConfig::new(
            10_000,
            FileMode::FilePerGroup { group_size: 2 },
            IoApi::Posix,
            "/scratch/grp",
        );
        run_hacc(&mut w, JobLayout::new(4, 2), &cfg).unwrap();
        assert_eq!(w.namespace().file_count(), 2);
        assert!(w.namespace().file("/scratch/grp.g0000").is_some());
        assert!(w.namespace().file("/scratch/grp.g0001").is_some());
    }

    #[test]
    fn render_reports_performance() {
        let mut w = world();
        let cfg = HaccConfig::new(10_000, FileMode::FilePerProcess, IoApi::Posix, "/scratch/r");
        let result = run_hacc(&mut w, JobLayout::new(2, 2), &cfg).unwrap();
        let text = result.render();
        assert!(text.contains("Aggregate Checkpoint Performance:"));
        assert!(text.contains("Aggregate Restart Performance:"));
        assert!(text.contains("file-per-process"));
        assert!(text.contains("Particles per rank : 10000"));
    }
}
