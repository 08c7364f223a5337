//! The IO500 `find` phase.
//!
//! After the write phases, IO500 runs a parallel `find` across everything
//! the benchmark created, matching files by size/timestamp. In this model
//! the cost is what matters: directory listings plus a `stat` per matched
//! candidate, partitioned across ranks.

use iokc_sim::engine::{JobLayout, SimError, World};

/// Result of the find phase.
#[derive(Debug, Clone, PartialEq)]
pub struct FindResult {
    /// Files examined (stat'ed).
    pub matched: u64,
    /// Directories traversed.
    pub dirs: u64,
    /// Rate in files/s.
    pub rate: f64,
    /// Elapsed seconds.
    pub elapsed_s: f64,
}

/// Run `find` over every directory below `root`, stat-ing each file whose
/// path contains `name_filter` (empty string matches everything).
pub fn run_find(
    world: &mut World,
    layout: JobLayout,
    root: &str,
    name_filter: &str,
) -> Result<FindResult, SimError> {
    // Snapshot the tree up front (a real find discovers it incrementally;
    // the op cost of the discovery is the readdirs below).
    let namespace = world.namespace();
    let mut dirs = vec![root];
    let mut files = Vec::new();
    let mut frontier = vec![root];
    while let Some(dir) = frontier.pop() {
        for child in namespace.list_dir(dir) {
            if namespace.is_dir(child) {
                dirs.push(child);
                frontier.push(child);
            } else if name_filter.is_empty() || child.contains(name_filter) {
                files.push(child);
            }
        }
    }

    let np = layout.np;
    let mut set = world.scripts(np);
    // Readdir work: directories round-robin across ranks.
    for (i, dir) in dirs.iter().enumerate() {
        let rank = (i as u32) % np;
        set.rank(rank).readdir(dir);
    }
    // Stat work: files round-robin across ranks.
    for (i, file) in files.iter().enumerate() {
        let rank = (i as u32) % np;
        set.rank(rank).stat(file);
    }
    for rank in 0..np {
        set.rank(rank).barrier();
    }
    let (matched, dirs) = (files.len() as u64, dirs.len() as u64);
    let result = world.run(layout, &set)?;
    let elapsed_s = result.wall().as_secs_f64().max(1e-9);
    Ok(FindResult {
        matched,
        dirs,
        rate: matched as f64 / elapsed_s,
        elapsed_s,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iokc_sim::config::SystemConfig;
    use iokc_sim::faults::FaultPlan;
    use iokc_sim::script::{OpenMode, ScriptSet};

    #[test]
    fn find_counts_and_rates() {
        let mut w = World::new(SystemConfig::test_small(), FaultPlan::none(), 9);
        let mut setup = ScriptSet::new(1);
        setup.rank(0).mkdir("/scratch/tree");
        for i in 0..30 {
            let path = format!("/scratch/tree/file.mdtest.{i}");
            setup.rank(0).open(&path, OpenMode::Write);
            setup.rank(0).close(&path);
        }
        setup.rank(0).mkdir("/scratch/tree/sub");
        setup
            .rank(0)
            .open("/scratch/tree/sub/other", OpenMode::Write);
        setup.rank(0).close("/scratch/tree/sub/other");
        w.run(JobLayout::new(1, 1), &setup).unwrap();

        let all = run_find(&mut w, JobLayout::new(2, 2), "/scratch/tree", "").unwrap();
        assert_eq!(all.matched, 31);
        assert_eq!(all.dirs, 2);
        assert!(all.rate > 0.0);

        let filtered = run_find(&mut w, JobLayout::new(2, 2), "/scratch/tree", "mdtest").unwrap();
        assert_eq!(filtered.matched, 30);
    }

    #[test]
    fn find_rate_bounded_by_metadata_capacity() {
        let mut w = World::new(SystemConfig::test_small(), FaultPlan::none(), 10);
        let mut setup = ScriptSet::new(2);
        setup.rank(0).mkdir("/scratch/big");
        for i in 0..300 {
            let path = format!("/scratch/big/f{i}");
            setup.rank(0).open(&path, OpenMode::Write);
            setup.rank(0).close(&path);
        }
        w.run(JobLayout::new(2, 2), &setup).unwrap();
        let result = run_find(&mut w, JobLayout::new(2, 2), "/scratch/big", "").unwrap();
        assert_eq!(result.matched, 300);
        let cap = w.system().pfs.mds_ops_per_sec * f64::from(w.system().pfs.metadata_servers);
        assert!(
            result.rate < cap * 1.5,
            "find rate {} vs MDS cap {cap}",
            result.rate
        );
        assert!(
            result.rate > 1000.0,
            "find rate {} implausibly low",
            result.rate
        );
    }

    #[test]
    fn empty_tree_finds_nothing() {
        let mut w = World::new(SystemConfig::test_small(), FaultPlan::none(), 9);
        let result = run_find(&mut w, JobLayout::new(1, 1), "/scratch", "").unwrap();
        assert_eq!(result.matched, 0);
        assert_eq!(result.dirs, 1);
    }
}
