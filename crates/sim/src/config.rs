//! Cluster and parallel file system configuration.
//!
//! The default preset models FUCHS-CSC, the evaluation system of the paper
//! (§V-E): 198 nodes × 2× Intel Xeon E5-2670 v2 (20 cores/node), 128 GB
//! RAM per node, BeeGFS over InfiniBand FDR with ~27 GB/s aggregate
//! bandwidth.

use iokc_util::units::GIB;
#[cfg(test)]
use iokc_util::units::MIB;

/// Hardware description of the compute side of the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Human-readable system name (appears in knowledge objects).
    pub name: String,
    /// Number of compute nodes.
    pub nodes: u32,
    /// Cores per node.
    pub cores_per_node: u32,
    /// RAM per node, bytes.
    pub mem_per_node: u64,
    /// Per-node NIC bandwidth, bytes/s (FDR InfiniBand ≈ 6.8 GB/s usable).
    pub nic_bandwidth: f64,
    /// One-way network latency, nanoseconds.
    pub network_latency_ns: u64,
    /// Aggregate fabric bandwidth towards storage, bytes/s.
    pub fabric_bandwidth: f64,
    /// Memory bandwidth per node (page-cache hits), bytes/s.
    pub memory_bandwidth: f64,
    /// CPU model string reported in the simulated `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Nominal CPU frequency in MHz.
    pub cpu_mhz: f64,
}

impl ClusterConfig {
    /// The FUCHS-CSC cluster at Goethe University Frankfurt, as described
    /// in §V-E of the paper.
    #[must_use]
    pub fn fuchs_csc() -> ClusterConfig {
        ClusterConfig {
            name: "FUCHS-CSC".to_owned(),
            nodes: 198,
            cores_per_node: 20,
            mem_per_node: 128 * GIB,
            nic_bandwidth: 6.8e9,
            network_latency_ns: 1_700,
            fabric_bandwidth: 27.0e9,
            memory_bandwidth: 50.0e9,
            cpu_model: "Intel(R) Xeon(R) CPU E5-2670 v2 @ 2.50GHz".to_owned(),
            cpu_mhz: 2500.0,
        }
    }

    /// A tiny test cluster for fast unit tests.
    #[must_use]
    pub fn test_small() -> ClusterConfig {
        ClusterConfig {
            name: "test-small".to_owned(),
            nodes: 4,
            cores_per_node: 4,
            mem_per_node: 8 * GIB,
            nic_bandwidth: 1.0e9,
            network_latency_ns: 2_000,
            fabric_bandwidth: 2.0e9,
            memory_bandwidth: 20.0e9,
            cpu_model: "TestCPU".to_owned(),
            cpu_mhz: 2000.0,
        }
    }
}

/// RAID scheme of a storage pool, reported in the `filesystems` knowledge
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaidScheme {
    /// Striping without redundancy.
    Raid0,
    /// Mirrored pairs.
    Raid10,
    /// Distributed parity.
    Raid6,
}

impl RaidScheme {
    /// Effective write amplification (fraction of raw bandwidth available
    /// for payload writes).
    #[must_use]
    pub fn write_efficiency(self) -> f64 {
        match self {
            RaidScheme::Raid0 => 1.0,
            RaidScheme::Raid10 => 0.5,
            RaidScheme::Raid6 => 0.7,
        }
    }

    /// Name as shown by storage tooling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RaidScheme::Raid0 => "RAID0",
            RaidScheme::Raid10 => "RAID10",
            RaidScheme::Raid6 => "RAID6",
        }
    }
}

/// BeeGFS-like parallel file system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PfsConfig {
    /// File system brand string (e.g. "BeeGFS") for knowledge objects.
    pub fs_type: String,
    /// Number of metadata servers.
    pub metadata_servers: u32,
    /// Metadata operation service rate per server, ops/s.
    pub mds_ops_per_sec: f64,
    /// Number of storage targets (OSTs).
    pub storage_targets: u32,
    /// Sequential write (disk) bandwidth per storage target, bytes/s.
    pub target_bandwidth: f64,
    /// Read-path bandwidth per storage target, bytes/s. Recently written
    /// data is served from server-side RAM on BeeGFS-like systems, so
    /// reads see a separate, stabler capacity than the disk write path
    /// (background noise is applied to the disk path only).
    pub target_read_bandwidth: f64,
    /// Fixed per-request overhead at a target, nanoseconds (seek + commit;
    /// bounds small-transfer IOPS).
    pub target_op_overhead_ns: u64,
    /// Default stripe chunk size in bytes (BeeGFS default: 512 KiB).
    pub default_chunk_size: u64,
    /// Default number of targets a file is striped across
    /// (BeeGFS default: 4).
    pub default_stripe_count: u32,
    /// RAID scheme backing each target.
    pub raid: RaidScheme,
    /// Name of the storage pool.
    pub storage_pool: String,
}

impl PfsConfig {
    /// BeeGFS as deployed on FUCHS-CSC. The compute fabric offers
    /// 27 GB/s aggregate, but the storage backend is far smaller — the
    /// paper's 80-rank IOR run measures ~2.85 GiB/s writes — so the
    /// targets, not the fabric, are the system bottleneck (six HDD-array
    /// targets at ~520 MB/s each).
    #[must_use]
    pub fn beegfs_fuchs() -> PfsConfig {
        PfsConfig {
            fs_type: "BeeGFS".to_owned(),
            metadata_servers: 4,
            mds_ops_per_sec: 22_000.0,
            storage_targets: 6,
            target_bandwidth: 5.2e8,
            target_read_bandwidth: 5.45e8,
            target_op_overhead_ns: 120_000,
            default_chunk_size: 512 * 1024,
            default_stripe_count: 4,
            raid: RaidScheme::Raid6,
            storage_pool: "Default".to_owned(),
        }
    }

    /// A small configuration for unit tests.
    #[must_use]
    pub fn test_small() -> PfsConfig {
        PfsConfig {
            fs_type: "BeeGFS".to_owned(),
            metadata_servers: 2,
            mds_ops_per_sec: 10_000.0,
            storage_targets: 4,
            target_bandwidth: 0.8e9,
            target_read_bandwidth: 0.9e9,
            target_op_overhead_ns: 100_000,
            default_chunk_size: 512 * 1024,
            default_stripe_count: 2,
            raid: RaidScheme::Raid0,
            storage_pool: "Default".to_owned(),
        }
    }

    /// Aggregate raw storage bandwidth across all targets, bytes/s.
    #[must_use]
    pub fn aggregate_target_bandwidth(&self) -> f64 {
        f64::from(self.storage_targets) * self.target_bandwidth
    }
}

/// Complete simulated system: compute plus storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Compute/cluster side.
    pub cluster: ClusterConfig,
    /// Storage side.
    pub pfs: PfsConfig,
    /// Multiplicative background-noise scale (sigma of the lognormal
    /// interference process; `0.0` disables noise entirely).
    pub noise_sigma: f64,
    /// Noise resampling interval, nanoseconds of simulated time.
    pub noise_interval_ns: u64,
}

impl SystemConfig {
    /// FUCHS-CSC with BeeGFS and mild background interference, the
    /// environment of the paper's experiments.
    #[must_use]
    pub fn fuchs_csc() -> SystemConfig {
        SystemConfig {
            cluster: ClusterConfig::fuchs_csc(),
            pfs: PfsConfig::beegfs_fuchs(),
            noise_sigma: 0.06,
            noise_interval_ns: 100_000_000,
        }
    }

    /// Small deterministic system for unit tests (noise disabled).
    #[must_use]
    pub fn test_small() -> SystemConfig {
        SystemConfig {
            cluster: ClusterConfig::test_small(),
            pfs: PfsConfig::test_small(),
            noise_sigma: 0.0,
            noise_interval_ns: 100_000_000,
        }
    }

    /// Builder-style override of the noise scale.
    #[must_use]
    pub fn with_noise(mut self, sigma: f64) -> SystemConfig {
        self.noise_sigma = sigma;
        self
    }

    /// Builder-style override of the noise resampling interval.
    #[must_use]
    pub fn with_noise_interval(mut self, nanos: u64) -> SystemConfig {
        self.noise_interval_ns = nanos.max(1_000_000);
        self
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn fuchs_matches_paper() {
        let c = ClusterConfig::fuchs_csc();
        assert_eq!(c.nodes, 198);
        assert_eq!(c.cores_per_node, 20);
        assert_eq!(c.mem_per_node, 128 * GIB);
        assert!((c.fabric_bandwidth - 27e9).abs() < 1.0);
    }

    #[test]
    fn beegfs_storage_is_the_bottleneck() {
        let s = SystemConfig::fuchs_csc();
        assert!(s.pfs.aggregate_target_bandwidth() < s.cluster.fabric_bandwidth);
        // ~3 GB/s raw storage, matching the paper's measured ~2.85 GiB/s.
        assert!((s.pfs.aggregate_target_bandwidth() - 3.12e9).abs() < 1e7);
        assert_eq!(s.pfs.default_chunk_size, 512 * 1024);
    }

    #[test]
    fn raid_efficiencies() {
        assert_eq!(RaidScheme::Raid0.write_efficiency(), 1.0);
        assert!(RaidScheme::Raid10.write_efficiency() < 1.0);
        assert_eq!(RaidScheme::Raid6.as_str(), "RAID6");
    }

    #[test]
    fn default_chunk_is_mib_fraction() {
        let p = PfsConfig::beegfs_fuchs();
        assert_eq!(MIB % p.default_chunk_size, 0);
    }

    #[test]
    fn with_noise_overrides() {
        let s = SystemConfig::test_small().with_noise(0.5);
        assert_eq!(s.noise_sigma, 0.5);
    }
}
