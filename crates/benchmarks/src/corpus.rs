//! Fleet corpus generator: a seeded, deterministic sweep of the IO500
//! suite across cluster shapes, file-system configurations and fault
//! mixes.
//!
//! Kunkel et al.'s IO500 analysis ("A Treasure Trove of Performance")
//! works on thousands of real submissions; this module synthesizes a
//! comparable population from the simulator so the corpus-analytics
//! layer (`store::aggregate`, the distribution endpoints, the
//! corpus-wide bounding box) has fleet-scale data to chew on. Every run
//! is a full [`crate::io500::run_io500`] execution whose rendered
//! official result block is meant to flow through the normal extract
//! path (`iokc_extract::parse_io500_output`) into the store — a
//! [`CorpusRun`] is a *submission*, not a knowledge object. [`generate`]
//! is that flow for a whole spec, resumable: what `iokc corpus gen` runs.
//!
//! Determinism: point `i` of a spec with seed `s` always simulates the
//! same world. The per-run seed is `s` mixed with the index by a
//! splitmix64 step (the same independence idea as the campaign runner's
//! `base_seed ^ wp`), so results do not depend on generation order and
//! a resumed generation reproduces exactly the runs it skipped.
//!
//! Outliers: every [`CorpusSpec::outlier_every`]-th point runs with a
//! crippled storage backend (all targets at a few percent capacity).
//! Those runs land far outside the population's percentile bands —
//! they are the ground truth the corpus-wide bounding-box detector is
//! expected to flag.

use crate::io500::{run_io500, Io500Config, Io500Result};
use iokc_core::model::{Io500Knowledge, KnowledgeItem};
use iokc_core::phases::{Artifact, ArtifactKind, CycleError, Extractor, Persister, PhaseKind};
use iokc_core::PhaseCtx;
use iokc_jube::campaign::{open_journal, CampaignError};
use iokc_sim::engine::{JobLayout, SimError, World};
use iokc_sim::faults::{Fault, FaultPlan, FaultTarget};
use iokc_sim::metrics::EngineStats;
use iokc_sim::prelude::{ClusterConfig, PfsConfig, SystemConfig};
use iokc_store::{DeadlineToken, KnowledgeStore, Query, RunKind, RunPredicate};
use std::collections::BTreeMap;
use std::path::Path;

/// Unix-time base for simulated corpus runs (the paper's submission
/// era; one second per index keeps start times unique and ordered).
const EPOCH: u64 = 1_656_590_400;

/// The sweep specification: how many runs, from which seed, at what
/// workload scale, and how often to plant an outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Number of submissions to generate.
    pub runs: usize,
    /// Base seed; every run derives its own seed from it.
    pub seed: u64,
    /// Plant a crippled-backend outlier at every Nth point (`0`
    /// disables outliers). Point indexes where `index % n == n - 1`
    /// are outliers, so small corpora still contain some.
    pub outlier_every: usize,
    /// Per-rank workload scale for each submission.
    pub scale: Io500Config,
}

impl CorpusSpec {
    /// A spec with the default outlier cadence (every 32nd point) and
    /// the tiny per-rank scale that makes 10k-run corpora practical.
    #[must_use]
    pub fn new(runs: usize, seed: u64) -> CorpusSpec {
        CorpusSpec {
            runs,
            seed,
            outlier_every: 32,
            scale: CorpusSpec::tiny_scale(),
        }
    }

    /// The corpus workload scale: a complete 12-phase IO500 run kept
    /// small enough that one submission simulates in milliseconds.
    #[must_use]
    pub fn tiny_scale() -> Io500Config {
        Io500Config {
            dir: "/c".to_owned(),
            ior_easy_bytes_per_rank: 256 << 10,
            ior_hard_writes_per_rank: 8,
            mdtest_easy_files_per_rank: 12,
            mdtest_hard_files_per_rank: 8,
        }
    }

    /// A deterministic fingerprint of everything that shapes the sweep
    /// — the campaign-journal header value, so a resume onto a changed
    /// spec is rejected instead of silently mixing corpora.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.seed);
        eat(self.outlier_every as u64);
        eat(self.scale.ior_easy_bytes_per_rank);
        eat(self.scale.ior_hard_writes_per_rank);
        eat(self.scale.mdtest_easy_files_per_rank);
        eat(self.scale.mdtest_hard_files_per_rank);
        // Deliberately excludes `runs`: growing a corpus in place is a
        // resume, not a different campaign.
        hash
    }

    /// The parameter point at `index`.
    #[must_use]
    pub fn point(&self, index: usize) -> CorpusPoint {
        let shape = SHAPES[index % SHAPES.len()];
        let pfs = PFS_VARIANTS[(index / SHAPES.len()) % PFS_VARIANTS.len()];
        let tasks = TASKS[(index / (SHAPES.len() * PFS_VARIANTS.len())) % TASKS.len()];
        let fault_mix = FAULT_MIXES[index % FAULT_MIXES.len()];
        let outlier =
            self.outlier_every != 0 && index % self.outlier_every == self.outlier_every - 1;
        CorpusPoint {
            index,
            seed: self.seed ^ splitmix64(index as u64),
            shape,
            pfs,
            tasks,
            fault_mix,
            outlier,
        }
    }

    /// Simulate point `index`: build the world, run the 12 phases,
    /// render the official result block.
    pub fn execute(&self, index: usize) -> Result<CorpusRun, SimError> {
        let point = self.point(index);
        let mut world = World::new(point.system(), point.fault_plan(), point.seed);
        let layout = JobLayout::new(point.tasks, point.tasks.min(4));
        let result = run_io500(&mut world, layout, &self.scale)?;
        Ok(CorpusRun {
            output: result.render(),
            result,
            start_time: EPOCH + index as u64,
            point,
            stats: world.stats(),
        })
    }
}

/// Mix the index into the base seed (splitmix64's finalizer), so
/// adjacent points get decorrelated worlds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cluster shapes the sweep cycles through.
const SHAPES: [&str; 3] = ["fuchs", "mid", "edge"];
/// File-system variants the sweep cycles through.
const PFS_VARIANTS: [&str; 3] = ["hdd", "balanced", "flash"];
/// Rank counts the sweep cycles through.
const TASKS: [u32; 3] = [4, 8, 16];
/// Fault mixes the sweep cycles through.
const FAULT_MIXES: [&str; 4] = ["none", "congestion", "slow-target", "degraded-node"];

/// One fully-resolved sweep point: what world run `index` simulates.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusPoint {
    /// Position in the sweep.
    pub index: usize,
    /// The world seed derived for this point.
    pub seed: u64,
    /// Cluster shape name (`fuchs` / `mid` / `edge`).
    pub shape: &'static str,
    /// File-system variant name (`hdd` / `balanced` / `flash`).
    pub pfs: &'static str,
    /// MPI rank count.
    pub tasks: u32,
    /// Fault mix name (`none` / `congestion` / `slow-target` /
    /// `degraded-node`).
    pub fault_mix: &'static str,
    /// Whether this point runs with the crippled backend.
    pub outlier: bool,
}

impl CorpusPoint {
    /// The simulated system for this point.
    #[must_use]
    pub fn system(&self) -> SystemConfig {
        let cluster = match self.shape {
            "fuchs" => ClusterConfig::fuchs_csc(),
            "mid" => ClusterConfig {
                name: "mid-cluster".to_owned(),
                nodes: 32,
                ..ClusterConfig::fuchs_csc()
            },
            _ => ClusterConfig {
                name: "edge-cluster".to_owned(),
                nodes: 8,
                nic_bandwidth: 2.5e9,
                fabric_bandwidth: 8.0e9,
                ..ClusterConfig::fuchs_csc()
            },
        };
        let pfs = match self.pfs {
            "hdd" => PfsConfig {
                storage_targets: 4,
                target_bandwidth: 3.0e8,
                target_read_bandwidth: 3.2e8,
                mds_ops_per_sec: 12_000.0,
                ..PfsConfig::beegfs_fuchs()
            },
            "balanced" => PfsConfig::beegfs_fuchs(),
            _ => PfsConfig {
                storage_targets: 8,
                target_bandwidth: 1.6e9,
                target_read_bandwidth: 1.8e9,
                target_op_overhead_ns: 30_000,
                mds_ops_per_sec: 60_000.0,
                ..PfsConfig::beegfs_fuchs()
            },
        };
        SystemConfig {
            cluster,
            pfs,
            noise_sigma: 0.06,
            noise_interval_ns: 100_000_000,
        }
    }

    /// The fault plan for this point. Outliers override the mix with a
    /// storage backend running at a few percent of capacity.
    #[must_use]
    pub fn fault_plan(&self) -> FaultPlan {
        if self.outlier {
            let mut plan = FaultPlan::none();
            for target in 0..8 {
                plan.push(Fault::permanent(FaultTarget::StorageTarget(target), 0.04));
            }
            plan.push(Fault::permanent(FaultTarget::MetadataServer(0), 0.05));
            return plan;
        }
        match self.fault_mix {
            "congestion" => FaultPlan::none().with(Fault::permanent(FaultTarget::Fabric, 0.85)),
            "slow-target" => {
                FaultPlan::none().with(Fault::permanent(FaultTarget::StorageTarget(0), 0.6))
            }
            "degraded-node" => {
                FaultPlan::none().with(Fault::permanent(FaultTarget::NodeNic(0), 0.7))
            }
            _ => FaultPlan::none(),
        }
    }

    /// Provenance metadata for this point, attached to the submission's
    /// artifact so the extractor records it in the knowledge object's
    /// options map.
    #[must_use]
    pub fn params(&self) -> BTreeMap<String, String> {
        let mut params = BTreeMap::new();
        params.insert("corpus_index".to_owned(), self.index.to_string());
        params.insert("corpus_shape".to_owned(), self.shape.to_owned());
        params.insert("corpus_pfs".to_owned(), self.pfs.to_owned());
        params.insert("corpus_faults".to_owned(), self.fault_mix.to_owned());
        params.insert("corpus_outlier".to_owned(), self.outlier.to_string());
        params
    }
}

/// One generated submission: the rendered official result block plus
/// everything an ingester needs to route it through the extract path.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusRun {
    /// The resolved sweep point.
    pub point: CorpusPoint,
    /// The structured result (scores, phases).
    pub result: Io500Result,
    /// The official rendered result block — extractor input.
    pub output: String,
    /// Simulated submission time (unix seconds).
    pub start_time: u64,
    /// What simulating this point cost the engine, all phases together.
    pub stats: EngineStats,
}

impl CorpusRun {
    /// The submission as the extract phase takes it: the rendered result
    /// block, with the point's provenance ([`CorpusPoint::params`]) as
    /// metadata the extractor records in the knowledge object's options.
    #[must_use]
    pub fn artifact(&self) -> Artifact {
        let index = self.point.index;
        let mut artifact = Artifact::text(
            ArtifactKind::Io500Output,
            &format!("corpus-{index}.txt"),
            self.output.clone(),
        )
        .with_meta("tasks", &self.point.tasks.to_string())
        .with_meta("start_time", &self.start_time.to_string())
        .with_meta("system", &format!("sim-{}", self.point.shape));
        for (key, value) in self.point.params() {
            artifact = artifact.with_meta(&key, &value);
        }
        artifact
    }
}

/// Benchmark name in the header of a corpus campaign's journal.
const CAMPAIGN: &str = "io500-corpus";

/// The corpus points `store` holds, by index: every IO500 run whose
/// options carry `corpus_index`, with its run id.
fn stored_points(store: &KnowledgeStore) -> Result<BTreeMap<usize, u64>, CycleError> {
    let rows = store.query_summaries(
        &Query::new(RunPredicate::Kind(RunKind::Io500)),
        &DeadlineToken::unbounded(),
    )?;
    let mut points = BTreeMap::new();
    for row in &rows {
        let run = store.load_io500(row.id)?;
        let index = run.and_then(|k| k.options.get("corpus_index")?.parse::<usize>().ok());
        points.extend(index.map(|index| (index, row.id)));
    }
    Ok(points)
}

/// Simulate point `index` of `spec` and extract its knowledge.
fn extract_point(
    spec: &CorpusSpec,
    index: usize,
    extractor: &dyn Extractor,
    ctx: &mut PhaseCtx,
) -> Result<Vec<KnowledgeItem>, CycleError> {
    let run = spec.execute(index).map_err(|e| {
        CycleError::permanent(
            PhaseKind::Generation,
            CAMPAIGN,
            format!("corpus point {index}: {e}"),
        )
    })?;
    extractor.extract(ctx, &[&run.artifact()])
}

/// Generate (or resume) the corpus `spec` describes into `store`:
/// simulate every point the store does not hold yet, route it through
/// `extractor`, persist the points of each aligned block of `batch`
/// indices together and seal the tail.
/// Returns how many points were generated and how many were skipped
/// because the store already held them.
///
/// The store is the only record of which points exist — a point is a
/// pure function of (seed, index) and every stored submission carries
/// its `corpus_index` — so a crash at any instant resumes to exactly one
/// row per index. The journal in `dir` (read and written through the
/// store's [`iokc_store::Vfs`]) holds one record, the header carrying
/// [`CorpusSpec::fingerprint`], which vouches that the store's points
/// are this spec's; a header of another spec is a
/// [`CampaignError::Mismatch`]. With no readable header (a fresh or
/// damaged directory) the stored points have to vouch for themselves:
/// the lowest one is generated again, and unless the store holds exactly
/// that, the call is refused as [`CampaignError::ForeignResults`].
pub fn generate(
    spec: &CorpusSpec,
    extractor: &dyn Extractor,
    store: &mut KnowledgeStore,
    dir: &Path,
    batch: usize,
) -> Result<(usize, usize), CampaignError> {
    let mut ctx = PhaseCtx::detached(PhaseKind::Extraction, CAMPAIGN);
    let stored = stored_points(store)?;
    let vouch = || {
        let Some((&index, &id)) = stored.first_key_value() else {
            return Ok(());
        };
        let held = store.load_io500(id).map_err(CycleError::from)?;
        let held = held.map(|k| KnowledgeItem::Io500(Io500Knowledge { id: None, ..k }));
        if extract_point(spec, index, extractor, &mut ctx)? != Vec::from_iter(held) {
            return Err(CampaignError::ForeignResults {
                found: stored.len(),
            });
        }
        Ok(())
    };
    open_journal(
        store.vfs(),
        dir,
        CAMPAIGN,
        spec.fingerprint(),
        spec.runs,
        vouch,
    )?;

    let mut pending: Vec<KnowledgeItem> = Vec::new();
    let mut generated = 0;
    let batch = batch.max(1);
    for index in (0..spec.runs).filter(|index| !stored.contains_key(index)) {
        pending.extend(extract_point(spec, index, extractor, &mut ctx)?);
        generated += 1;
        // Batches end at the same indices wherever the generation
        // resumed, so the store logs — and its seals adopt — the records
        // of an uninterrupted run.
        if (index + 1) % batch == 0 {
            store.persist(&mut ctx, &pending)?;
            pending.clear();
        }
    }
    if !pending.is_empty() {
        store.persist(&mut ctx, &pending)?;
    }
    // Seal the tail so a freshly generated corpus is immediately in
    // segmented (index-block pruned) form for aggregation.
    store.seal_active().map_err(CycleError::from)?;
    Ok((generated, spec.runs - generated))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn points_are_deterministic_and_cover_the_sweep() {
        let spec = CorpusSpec::new(64, 42);
        let again = CorpusSpec::new(64, 42);
        let mut shapes = std::collections::BTreeSet::new();
        let mut pfs = std::collections::BTreeSet::new();
        let mut mixes = std::collections::BTreeSet::new();
        for i in 0..64 {
            assert_eq!(spec.point(i), again.point(i));
            shapes.insert(spec.point(i).shape);
            pfs.insert(spec.point(i).pfs);
            mixes.insert(spec.point(i).fault_mix);
        }
        assert_eq!(shapes.len(), SHAPES.len());
        assert_eq!(pfs.len(), PFS_VARIANTS.len());
        assert_eq!(mixes.len(), FAULT_MIXES.len());
        // Different seeds give different worlds.
        assert_ne!(spec.point(0).seed, CorpusSpec::new(64, 43).point(0).seed);
    }

    #[test]
    fn outlier_cadence_matches_spec() {
        let spec = CorpusSpec::new(96, 7);
        let outliers: Vec<usize> = (0..96).filter(|&i| spec.point(i).outlier).collect();
        assert_eq!(outliers, vec![31, 63, 95]);
        let mut off = spec.clone();
        off.outlier_every = 0;
        assert!((0..96).all(|i| !off.point(i).outlier));
    }

    #[test]
    fn execution_is_deterministic_and_renders_official_output() {
        let spec = CorpusSpec::new(8, 1234);
        let a = spec.execute(3).unwrap();
        let b = spec.execute(3).unwrap();
        assert_eq!(a, b, "same spec + index must reproduce bit-identical runs");
        assert!(a.output.contains("[RESULT]"));
        assert!(a.output.contains("[SCORE ]"));
        assert!(a.result.total_score > 0.0);
    }

    #[test]
    fn outlier_runs_score_far_below_their_healthy_twin() {
        let mut spec = CorpusSpec::new(8, 99);
        spec.outlier_every = 1; // every point an outlier
        let outlier = spec.execute(0).unwrap();
        spec.outlier_every = 0;
        let healthy = spec.execute(0).unwrap();
        assert!(
            outlier.result.total_score < healthy.result.total_score * 0.5,
            "crippled backend must visibly depress the score: {} vs {}",
            outlier.result.total_score,
            healthy.result.total_score
        );
    }

    /// A run resolves each of its names once, however many phases name
    /// it, and that changes nothing the engine does: the event counts by
    /// kind are the ones it had when every phase resolved its own paths.
    #[test]
    fn a_point_resolves_each_name_once() {
        let spec = CorpusSpec::new(27, 1);
        let scale = &spec.scale;
        // (index, rank_ready, op_finish, flow_start, flows_due, noise_tick,
        // rate_solves); no point of these has a fault edge.
        let pinned = [
            (0, 124, 606, 70, 117, 14, 117),
            (9, 248, 1062, 282, 543, 14, 543),
            (18, 496, 2110, 566, 1174, 14, 1174),
        ];
        for (index, ready, finish, flow_start, due, noise, solves) in pinned {
            let run = spec.execute(index).unwrap();
            let np = u64::from(run.point.tasks);
            // Five working directories, a tree per rank and the shared
            // one; an ior-easy file per rank and the ior-hard file; the
            // mdtest files of both trees.
            let files_per_rank =
                scale.mdtest_easy_files_per_rank + scale.mdtest_hard_files_per_rank;
            let names = 5 + np + 1 + np + 1 + np * files_per_rank;
            let stats = run.stats;
            assert_eq!(stats.paths_resolved, names, "point {index} ({np} ranks)");
            let events = (
                stats.rank_ready,
                stats.op_finish,
                stats.flow_start,
                stats.flows_due,
                stats.noise_tick,
                stats.fault_edge,
                stats.rate_solves,
            );
            let want = (ready, finish, flow_start, due, noise, 0, solves);
            assert_eq!(events, want, "point {index}");
        }
    }

    #[test]
    fn fingerprint_tracks_spec_shape_but_not_run_count() {
        let a = CorpusSpec::new(64, 42);
        let mut b = CorpusSpec::new(10_000, 42);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seed = 43;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = CorpusSpec::new(64, 42);
        c.scale.ior_hard_writes_per_rank = 9;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
