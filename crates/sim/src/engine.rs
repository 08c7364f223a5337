//! The discrete-event execution engine.
//!
//! A [`World`] owns persistent system state — namespace, page caches,
//! server queues, background-noise process, injected faults — and executes
//! [`ScriptSet`]s phase by phase. Time advances monotonically across
//! phases, so a benchmark's write phase warms caches and leaves files for
//! its read phase exactly as on a real system.
//!
//! Data movement uses a fluid-flow model: between events every in-flight
//! transfer progresses at its max–min fair rate (see [`crate::flow`]);
//! rates are re-solved in full whenever the set of flows or a capacity
//! changes (flow start/finish, noise tick, fault window edge) — over the
//! resources the in-flight flows cross, whose capacities are worked out
//! on demand, never over the cluster. Metadata operations are FIFO queues
//! at the metadata servers; small-transfer IOPS limits are modelled as a
//! serialized per-request overhead slot at each storage target.
//!
//! What an op costs the host does not depend on how large the cluster is
//! or how long its path: a world resolves each name of a run to the
//! namespace's id for it once, when the first phase that names it starts,
//! and all per-file state (dirty targets, sharing, range locks, page
//! caches) is keyed by that id.

use crate::config::SystemConfig;
use crate::faults::{FaultPlan, FaultTarget};
use crate::flow::{FlowPath, RateSolver, ResourceId};
use crate::metrics::{EngineStats, OpRecord, PhaseResult};
use crate::pfs::{FsError, NameId, Namespace};
use crate::rng::Rng;
use crate::script::{Op, OpKind, OpenMode, PathId, PathTable, Rank, ScriptSet};
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

/// How ranks are placed onto nodes: `ppn` consecutive ranks per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLayout {
    /// Total ranks.
    pub np: u32,
    /// Ranks per node.
    pub ppn: u32,
}

impl JobLayout {
    /// Create a layout; `ppn` must be non-zero.
    #[must_use]
    pub fn new(np: u32, ppn: u32) -> JobLayout {
        assert!(ppn > 0, "ppn must be non-zero");
        assert!(np > 0, "np must be non-zero");
        JobLayout { np, ppn }
    }

    /// Node hosting `rank`.
    #[must_use]
    pub fn node_of(&self, rank: Rank) -> u32 {
        rank / self.ppn
    }

    /// Number of nodes in use.
    #[must_use]
    pub fn nodes_used(&self) -> u32 {
        self.np.div_ceil(self.ppn)
    }
}

/// Errors from executing a phase.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are documented by the variant docs
pub enum SimError {
    /// A namespace operation failed (driver bug or tested misuse).
    Fs {
        rank: Rank,
        op: OpKind,
        cause: crate::pfs::FsError,
    },
    /// Ranks deadlocked (barrier/recv mismatch).
    Deadlock { waiting: u32 },
    /// The layout references more nodes than the cluster has.
    LayoutTooLarge {
        nodes_needed: u32,
        nodes_available: u32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Fs { rank, op, cause } => {
                write!(f, "rank {rank} {}: {cause}", op.as_str())
            }
            SimError::Deadlock { waiting } => {
                write!(f, "simulation deadlock: {waiting} ranks still waiting")
            }
            SimError::LayoutTooLarge {
                nodes_needed,
                nodes_available,
            } => write!(
                f,
                "job needs {nodes_needed} nodes but the cluster has {nodes_available}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A namespace refusal as the error of the op that met it.
fn fs_error(rank: Rank, op: OpKind) -> impl Fn(FsError) -> SimError {
    move |cause| SimError::Fs { rank, op, cause }
}

const FLOW_EPS: f64 = 0.5; // bytes: a flow with less remaining is complete

#[derive(Debug)]
enum Event {
    /// A rank may issue its next op.
    RankReady(Rank),
    /// A non-flow op (metadata, compute, cache read, fsync) finished.
    OpFinish(Rank),
    /// A data flow begins (after its target slot wait).
    FlowStart(ActiveFlow),
    /// The earliest flow completion under current rates is due.
    FlowsDue(u64),
    /// Resample background-noise multipliers.
    NoiseTick,
    /// A fault window starts or ends.
    FaultEdge,
}

/// A scheduled event. The queue pops the earliest time first and, within
/// one instant, in scheduling order.
#[derive(Debug)]
struct Queued {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl Ord for Queued {
    /// Reversed, because `BinaryHeap` pops its greatest element.
    fn cmp(&self, other: &Queued) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Queued) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Queued) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Queued {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowOutcome {
    /// Part of a rank's data op; op completes when `outstanding` hits zero.
    OpPart(Rank),
    /// An eager message; completes the sender's Send op and may release a
    /// waiting receiver.
    Message { from: Rank, to: Rank, tag: u32 },
}

/// Flows are kept in the order they started, which is the order
/// simultaneous completions are delivered in.
#[derive(Debug)]
struct ActiveFlow {
    path: FlowPath,
    remaining: f64,
    rate: f64,
    outcome: FlowOutcome,
}

#[derive(Debug, Clone, PartialEq)]
enum RankState {
    Ready,
    /// Waiting for `outstanding` data flows of the current op.
    DataWait {
        outstanding: u32,
    },
    /// Waiting for an `OpFinish` event.
    TimerWait,
    /// Waiting at a barrier.
    BarrierWait {
        group: u32,
    },
    /// Waiting for a message.
    RecvWait {
        from: Rank,
        tag: u32,
    },
    Done,
}

/// Persistent simulated system state across phases.
pub struct World {
    system: SystemConfig,
    faults: FaultPlan,
    namespace: Namespace,
    now: SimTime,
    rng: Rng,
    /// Per-target noise multipliers, and one for the fabric.
    target_noise: Vec<f64>,
    /// Per-target read-path noise (much smaller: server caches are calm).
    target_read_noise: Vec<f64>,
    fabric_noise: f64,
    mds_busy: Vec<SimTime>,
    target_busy: Vec<SimTime>,
    /// Per-node page cache: file → cached byte extent, with LRU order.
    /// Grown on demand, so it covers the nodes that ever cached
    /// something rather than the cluster.
    cache: Vec<NodeCache>,
    /// Engine-side state of each name, indexed by the namespace's id.
    files: Vec<FileState>,
    /// The path table of the last set run, and the namespace's id of each
    /// of its names.
    paths: Arc<PathTable>,
    path_ids: Vec<NameId>,
    /// What every phase so far cost the engine.
    stats: EngineStats,
}

/// What the engine tracks per file name. It is state of the *name*: only
/// `dirty` and `lock_busy` are reset by an unlink, so a file re-created
/// under a name that was once shared is still treated as shared.
#[derive(Debug, Clone, Default)]
struct FileState {
    /// Storage targets with unsynced dirty data.
    dirty: BTreeSet<u32>,
    /// First rank to open the name, and whether a different rank has
    /// opened it since (lock-contention model).
    first_opener: Option<Rank>,
    shared: bool,
    /// Byte-range lock clock (unaligned writers of a shared file
    /// serialize).
    lock_busy: SimTime,
}

#[derive(Debug, Clone, Default)]
struct NodeCache {
    /// File → cached byte ranges (sorted, coalesced, non-overlapping).
    files: BTreeMap<NameId, Vec<(u64, u64)>>,
    order: VecDeque<NameId>,
    total: u64,
}

impl World {
    /// Create a world over a system with a fault plan and a deterministic
    /// seed. Two worlds with the same configuration and seed produce
    /// bit-identical results.
    #[must_use]
    pub fn new(system: SystemConfig, faults: FaultPlan, seed: u64) -> World {
        let targets = system.pfs.storage_targets as usize;
        let mds = system.pfs.metadata_servers as usize;
        let namespace = Namespace::new(system.pfs.clone());
        World {
            rng: Rng::seed_from(seed),
            target_noise: vec![1.0; targets],
            target_read_noise: vec![1.0; targets],
            fabric_noise: 1.0,
            mds_busy: vec![SimTime::ZERO; mds],
            target_busy: vec![SimTime::ZERO; targets],
            cache: Vec::new(),
            files: Vec::new(),
            paths: Arc::default(),
            path_ids: Vec::new(),
            stats: EngineStats::default(),
            namespace,
            system,
            faults,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Simulated nanoseconds elapsed since `start`, saturating at zero.
    /// Generators use this to mirror a benchmark's simulated cost onto
    /// the knowledge cycle's virtual observability clock.
    #[must_use]
    pub fn elapsed_ns_since(&self, start: SimTime) -> u64 {
        self.now.since(start).nanos()
    }

    /// The simulated system configuration.
    #[must_use]
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The file system namespace (inspection, `beegfs-ctl` style queries).
    #[must_use]
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// What executing every phase so far cost the engine; the sum of the
    /// [`PhaseResult::stats`] this world has returned.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Advance the clock without doing work (gap between benchmark phases).
    pub fn sleep(&mut self, dur: SimDuration) {
        self.now += dur;
    }

    /// The active fault plan.
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Replace the fault plan. Safe between phases (no flows are in
    /// flight then); used by experiment drivers to scope a fault to a
    /// specific benchmark iteration.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// An empty script set for `np` ranks over the path table of the set
    /// this world ran last, so that the phases of a run resolve each name
    /// once: run after that one, it resolves only the names it adds.
    #[must_use]
    pub fn scripts(&self, np: u32) -> ScriptSet {
        ScriptSet::over(Arc::clone(&self.paths), np)
    }

    /// Take `table` as the run's path table, resolving only what it adds
    /// to the adopted one. A table extends that one exactly when it holds
    /// the same allocation at the adopted one's last index (see
    /// [`crate::script::PathName`]); any other is resolved in full.
    fn adopt(&mut self, table: &Arc<PathTable>) {
        let known = self.path_ids.len();
        let extends = known == 0
            || table
                .get(known - 1)
                .is_some_and(|name| name.same(&self.paths[known - 1]));
        if !extends {
            self.path_ids.clear();
        }
        let fresh = &table[self.path_ids.len()..];
        for name in fresh {
            self.path_ids.push(self.namespace.resolve(name));
        }
        self.stats.paths_resolved += fresh.len() as u64;
        self.paths = Arc::clone(table);
        let names = self.namespace.names();
        if self.files.len() < names {
            self.files.resize_with(names, FileState::default);
        }
    }

    /// Drop the adopted table, so that the next set is resolved in full
    /// whatever it extends: every phase as its own run.
    #[cfg(test)]
    fn forget_paths(&mut self) {
        self.paths = Arc::default();
        self.path_ids.clear();
    }

    /// Execute a script set to completion and return what happened.
    pub fn run(&mut self, layout: JobLayout, scripts: &ScriptSet) -> Result<PhaseResult, SimError> {
        assert_eq!(
            layout.np,
            scripts.nranks(),
            "layout rank count must match script set"
        );
        let nodes_needed = layout.nodes_used();
        if nodes_needed > self.system.cluster.nodes {
            return Err(SimError::LayoutTooLarge {
                nodes_needed,
                nodes_available: self.system.cluster.nodes,
            });
        }
        let stats_before = self.stats;
        self.adopt(scripts.table());
        let mut exec = Execution::new(self, layout, scripts);
        exec.run()?;
        let records = std::mem::take(&mut exec.records);
        let started = exec.started;
        let stonewalled: u64 = exec.stonewalled.iter().sum();
        Ok(PhaseResult {
            records,
            started,
            finished: self.now,
            paths: Arc::clone(scripts.table()),
            stonewalled_ops: stonewalled,
            stats: self.stats.since(&stats_before),
        })
    }
}

struct Execution<'w> {
    world: &'w mut World,
    layout: JobLayout,
    scripts: &'w ScriptSet,
    events: BinaryHeap<Queued>,
    seq: u64,
    started: SimTime,
    ranks: Vec<RankState>,
    pcs: Vec<usize>,
    op_start: Vec<SimTime>,
    done_count: u32,
    flows: Vec<ActiveFlow>,
    solver: RateSolver,
    flow_gen: u64,
    flows_dirty: bool,
    last_advance: SimTime,
    barriers: BTreeMap<u32, Vec<Rank>>,
    /// (to, from, tag) → delivery times of messages already delivered.
    delivered: BTreeMap<(Rank, Rank, u32), VecDeque<SimTime>>,
    records: Vec<OpRecord>,
    stonewalled: Vec<u64>,
}

impl<'w> Execution<'w> {
    fn new(world: &'w mut World, layout: JobLayout, scripts: &'w ScriptSet) -> Execution<'w> {
        let np = layout.np as usize;
        let started = world.now;
        Execution {
            world,
            layout,
            scripts,
            events: BinaryHeap::new(),
            seq: 0,
            started,
            ranks: vec![RankState::Ready; np],
            pcs: vec![0; np],
            op_start: vec![started; np],
            done_count: 0,
            flows: Vec::new(),
            solver: RateSolver::default(),
            flow_gen: 0,
            flows_dirty: false,
            last_advance: started,
            barriers: BTreeMap::new(),
            delivered: BTreeMap::new(),
            records: Vec::new(),
            stonewalled: vec![0; np],
        }
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Queued { at, seq, event });
    }

    fn run(&mut self) -> Result<(), SimError> {
        for rank in 0..self.layout.np {
            self.schedule(self.world.now, Event::RankReady(rank));
        }
        if self.world.system.noise_sigma > 0.0 {
            self.schedule(self.world.now, Event::NoiseTick);
        }
        for edge in self.world.faults.edges_after(self.world.now) {
            self.schedule(edge, Event::FaultEdge);
        }

        while self.done_count < self.layout.np {
            let Some(Queued { at, event, .. }) = self.events.pop() else {
                let waiting = self.layout.np - self.done_count;
                return Err(SimError::Deadlock { waiting });
            };
            self.advance_flows(at);
            self.world.now = at;
            let stats = &mut self.world.stats;
            match event {
                Event::RankReady(rank) => {
                    stats.rank_ready += 1;
                    // A barrier release or initial start: if the rank was
                    // waiting at a barrier, finish the barrier op first.
                    if matches!(self.ranks[rank as usize], RankState::BarrierWait { .. }) {
                        self.finish_op(rank)?;
                    } else {
                        self.issue_next(rank)?;
                    }
                }
                Event::OpFinish(rank) => {
                    stats.op_finish += 1;
                    self.finish_op(rank)?;
                }
                Event::FlowStart(flow) => {
                    stats.flow_start += 1;
                    self.flows.push(flow);
                    self.flows_dirty = true;
                }
                Event::FlowsDue(gen) => {
                    stats.flows_due += 1;
                    if gen == self.flow_gen {
                        self.flows_dirty = true;
                    }
                }
                Event::NoiseTick => {
                    stats.noise_tick += 1;
                    if self.done_count < self.layout.np {
                        self.resample_noise();
                        let next = self.world.now
                            + SimDuration(self.world.system.noise_interval_ns.max(1_000_000));
                        self.schedule(next, Event::NoiseTick);
                        if !self.flows.is_empty() {
                            self.flows_dirty = true;
                        }
                    }
                }
                Event::FaultEdge => {
                    stats.fault_edge += 1;
                    if !self.flows.is_empty() {
                        self.flows_dirty = true;
                    }
                }
            }
            self.complete_due_flows()?;
            if self.flows_dirty {
                self.recompute_rates();
            }
        }
        Ok(())
    }

    fn issue_next(&mut self, rank: Rank) -> Result<(), SimError> {
        let pc = self.pcs[rank as usize];
        let scripts = self.scripts;
        let script = scripts.script(rank);
        if pc >= script.len() {
            if self.ranks[rank as usize] != RankState::Done {
                self.ranks[rank as usize] = RankState::Done;
                self.done_count += 1;
            }
            return Ok(());
        }
        // Stonewalling: once the deadline has passed, data ops are
        // skipped (the rank "ran out of time" for further transfers) but
        // control ops still run so barriers and closes complete.
        if let Some(deadline) = scripts.stonewall() {
            if self.world.now - self.started >= deadline
                && matches!(script[pc], Op::Write { .. } | Op::Read { .. })
            {
                self.stonewalled[rank as usize] += 1;
                self.pcs[rank as usize] += 1;
                return self.issue_next(rank);
            }
        }
        self.op_start[rank as usize] = self.world.now;
        let node = self.layout.node_of(rank);
        let latency = SimDuration(self.world.system.cluster.network_latency_ns);
        let not_found = |op: OpKind, path: PathId| {
            fs_error(rank, op)(FsError::NotFound(scripts.path(path).to_owned()))
        };
        match script[pc] {
            Op::Mkdir { path } => {
                let id = self.world.path_ids[path.0 as usize];
                self.world
                    .namespace
                    .mkdir_at(id)
                    .map_err(fs_error(rank, OpKind::Mkdir))?;
                self.meta_op(rank, id, 1.2);
            }
            Op::Rmdir { path } => {
                let id = self.world.path_ids[path.0 as usize];
                self.world
                    .namespace
                    .rmdir_at(id)
                    .map_err(fs_error(rank, OpKind::Rmdir))?;
                self.meta_op(rank, id, 1.0);
            }
            Op::Open { path, mode, hint } => {
                let id = self.world.path_ids[path.0 as usize];
                let mut cost = 1.0;
                let exists = self.world.namespace.file_at(id).is_some();
                match (exists, mode) {
                    (false, OpenMode::Write) => {
                        self.world
                            .namespace
                            .create_at(id, hint, self.world.now.nanos())
                            .map_err(fs_error(rank, OpKind::Open))?;
                        cost = 1.3; // create + layout allocation
                    }
                    (false, _) => return Err(not_found(OpKind::Open, path)),
                    (true, _) => {}
                }
                // Shared-file tracking for the range-lock model.
                let file = &mut self.world.files[id.index()];
                match file.first_opener {
                    None => file.first_opener = Some(rank),
                    Some(first) if first != rank => file.shared = true,
                    Some(_) => {}
                }
                self.meta_op(rank, id, cost);
            }
            Op::Close { path } => {
                self.meta_op(rank, self.world.path_ids[path.0 as usize], 0.5);
            }
            Op::Stat { path } => {
                let id = self.world.path_ids[path.0 as usize];
                if !self.world.namespace.exists_at(id) {
                    return Err(not_found(OpKind::Stat, path));
                }
                self.meta_op(rank, id, 0.7);
            }
            Op::Unlink { path } => {
                let id = self.world.path_ids[path.0 as usize];
                self.world
                    .namespace
                    .unlink_at(id)
                    .map_err(fs_error(rank, OpKind::Unlink))?;
                let file = &mut self.world.files[id.index()];
                file.dirty.clear();
                file.lock_busy = SimTime::ZERO;
                self.meta_op(rank, id, 1.1);
            }
            Op::Readdir { path } => {
                let id = self.world.path_ids[path.0 as usize];
                let entries = self.world.namespace.dir_entries_at(id);
                // One MDS request per 64 directory entries.
                let cost = 1.0 + (entries as f64 / 64.0);
                self.meta_op(rank, id, cost);
            }
            Op::Write { path, offset, len } => {
                self.data_op(rank, node, path, offset, len, true)?;
            }
            Op::Read { path, offset, len } => {
                self.data_op(rank, node, path, offset, len, false)?;
            }
            Op::Fsync { path } => {
                let id = self.world.path_ids[path.0 as usize];
                let overhead = SimDuration(self.world.system.pfs.target_op_overhead_ns);
                let targets = std::mem::take(&mut self.world.files[id.index()].dirty);
                let mut done = self.world.now + latency;
                for t in targets {
                    let idx = t as usize;
                    let slot = self.world.target_busy[idx].max(self.world.now + latency);
                    self.world.target_busy[idx] = slot + overhead;
                    done = done.max(slot + overhead);
                }
                self.ranks[rank as usize] = RankState::TimerWait;
                self.schedule(done + latency, Event::OpFinish(rank));
            }
            Op::Barrier { group } => {
                self.ranks[rank as usize] = RankState::BarrierWait { group };
                let members = scripts.group_size(group, self.layout.np);
                let arrived = self.barriers.entry(group).or_default();
                arrived.push(rank);
                if arrived.len() as u32 == members {
                    let waiters = std::mem::take(arrived);
                    // Dissemination-barrier cost: log2(n) network hops.
                    let hops = (members.max(2) as f64).log2().ceil() as u64;
                    let release = self.world.now + SimDuration(latency.nanos() * hops);
                    for w in waiters {
                        self.schedule(release, Event::RankReady(w));
                    }
                }
            }
            Op::Compute { dur } => {
                self.ranks[rank as usize] = RankState::TimerWait;
                self.schedule(self.world.now + dur, Event::OpFinish(rank));
            }
            Op::Send { to, bytes, tag } => {
                let dst_node = self.layout.node_of(to);
                if dst_node == node {
                    // Intra-node: memory copy.
                    let dur = SimDuration::from_secs_f64(
                        bytes as f64 / self.world.system.cluster.memory_bandwidth,
                    );
                    self.ranks[rank as usize] = RankState::TimerWait;
                    self.schedule(self.world.now + dur + latency, Event::OpFinish(rank));
                    // Deliver at the same completion instant.
                    self.delivered
                        .entry((to, rank, tag))
                        .or_default()
                        .push_back(self.world.now + dur + latency);
                    self.try_release_recv(to, rank, tag, self.world.now + dur + latency);
                } else {
                    let across = [
                        self.res_nic(node),
                        self.res_fabric(),
                        self.res_nic(dst_node),
                    ];
                    let outcome = FlowOutcome::Message {
                        from: rank,
                        to,
                        tag,
                    };
                    self.ranks[rank as usize] = RankState::DataWait { outstanding: 1 };
                    self.start_flow(self.world.now + latency, across, bytes, outcome);
                }
            }
            Op::Recv { from, tag } => {
                let key = (rank, from, tag);
                let ready = self.delivered.get_mut(&key).and_then(VecDeque::pop_front);
                match ready {
                    Some(at) => {
                        self.ranks[rank as usize] = RankState::TimerWait;
                        self.schedule(at.max(self.world.now), Event::OpFinish(rank));
                    }
                    None => {
                        self.ranks[rank as usize] = RankState::RecvWait { from, tag };
                    }
                }
            }
        }
        Ok(())
    }

    /// Issue a write or read: resolve layout, acquire target slots, spawn
    /// flows (or serve from page cache).
    fn data_op(
        &mut self,
        rank: Rank,
        node: u32,
        path: PathId,
        offset: u64,
        len: u64,
        is_write: bool,
    ) -> Result<(), SimError> {
        let id = self.world.path_ids[path.0 as usize];
        let kind = if is_write {
            OpKind::Write
        } else {
            OpKind::Read
        };
        let latency = SimDuration(self.world.system.cluster.network_latency_ns);
        if self.world.cache.len() <= node as usize {
            self.world
                .cache
                .resize_with(node as usize + 1, NodeCache::default);
        }
        let Some(meta) = self.world.namespace.file_at(id) else {
            let name = self.scripts.path(path).to_owned();
            return Err(fs_error(rank, kind)(FsError::NotFound(name)));
        };

        if !is_write {
            // Page-cache check: this node previously wrote/read the range.
            if self.world.cache[node as usize].covers(id, offset, offset + len) {
                let dur = SimDuration::from_secs_f64(
                    len as f64 / self.world.system.cluster.memory_bandwidth,
                );
                self.ranks[rank as usize] = RankState::TimerWait;
                self.schedule(self.world.now + dur, Event::OpFinish(rank));
                return Ok(());
            }
        }

        let segments = meta.layout(offset, len);
        if segments.is_empty() {
            self.ranks[rank as usize] = RankState::TimerWait;
            self.schedule(self.world.now + latency, Event::OpFinish(rank));
            return Ok(());
        }

        // Shared-file unaligned accesses pay a range-lock / read-modify-
        // write penalty (the "ior-hard" effect): the lock round-trip
        // serializes all writers of the file, and the unaligned pieces
        // cost an extra service slot at the targets.
        let unaligned = self.world.files[id.index()].shared && meta.is_unaligned(offset, len);
        let unaligned_penalty = if unaligned { 2.0 } else { 1.0 };
        let raid_penalty = if is_write {
            1.0 / self.world.system.pfs.raid.write_efficiency() - 1.0
        } else {
            0.0
        };
        let overhead = self.world.system.pfs.target_op_overhead_ns as f64;
        let target_bw = self.world.system.pfs.target_bandwidth;

        // Byte-range lock acquisition: unaligned writers to a shared file
        // take turns holding the range lock for one overhead period.
        let mut earliest_start = self.world.now + latency;
        if unaligned && is_write {
            let lock = &mut self.world.files[id.index()].lock_busy;
            let granted = (*lock).max(earliest_start);
            *lock = granted + SimDuration(overhead as u64);
            earliest_start = granted;
        }

        let outstanding = segments.len() as u32;
        self.ranks[rank as usize] = RankState::DataWait { outstanding };

        for &(target, bytes) in &segments {
            let idx = target as usize;
            // Serialized per-request service slot at the target: fixed
            // overhead, scaled by lock penalty, plus RAID write
            // amplification proportional to the payload. A noisy (busy)
            // disk also serves requests more slowly, so the write-side
            // noise multiplier stretches the slot — this is what makes
            // small-transfer (IOPS-bound) workloads scatter across runs.
            let service_factor = if is_write {
                1.0 / self.world.target_noise[idx].max(0.1)
            } else {
                1.0
            };
            let slot_cost_ns = (overhead * unaligned_penalty
                + (bytes as f64 * raid_penalty / target_bw) * 1e9)
                * service_factor;
            let slot = self.world.target_busy[idx].max(earliest_start);
            self.world.target_busy[idx] = slot + SimDuration(slot_cost_ns as u64);
            let target_res = if is_write {
                self.res_target(target)
            } else {
                self.res_target_read(target)
            };
            let across = [self.res_nic(node), self.res_fabric(), target_res];
            self.start_flow(slot, across, bytes, FlowOutcome::OpPart(rank));
        }

        if is_write {
            self.world
                .namespace
                .note_write_at(id, offset, len)
                .map_err(fs_error(rank, kind))?;
            let dirty = &mut self.world.files[id.index()].dirty;
            dirty.extend(segments.iter().map(|(target, _)| *target));
            // Cache coherence: a write invalidates every *other* node's
            // cached copy of the file (close-to-open consistency on the
            // parallel FS revalidates pages against the new mtime).
            for (n, cache) in self.world.cache.iter_mut().enumerate() {
                if n != node as usize {
                    cache.remove(id);
                }
            }
        }
        // Reading populates the cache too.
        let limit = (self.world.system.cluster.mem_per_node as f64 * 0.7) as u64;
        self.world.cache[node as usize].insert(id, offset, offset + len, limit);
        Ok(())
    }

    /// Schedule a flow of `bytes` across three resources to start at `at`.
    fn start_flow(
        &mut self,
        at: SimTime,
        across: [ResourceId; 3],
        bytes: u64,
        outcome: FlowOutcome,
    ) {
        let flow = ActiveFlow {
            path: FlowPath::new(across.to_vec()),
            remaining: (bytes as f64).max(1.0),
            rate: 0.0,
            outcome,
        };
        self.schedule(at, Event::FlowStart(flow));
    }

    /// Queue a metadata operation at the MDS responsible for the name.
    fn meta_op(&mut self, rank: Rank, name: NameId, cost: f64) {
        let mds = self.world.namespace.mds_at(name) as usize;
        let latency = SimDuration(self.world.system.cluster.network_latency_ns);
        let factor = self
            .world
            .faults
            .factor(FaultTarget::MetadataServer(mds as u32), self.world.now)
            .max(1e-3);
        let base = 1.0 / self.world.system.pfs.mds_ops_per_sec;
        let jitter = 0.9 + 0.2 * self.world.rng.next_f64();
        let service = SimDuration::from_secs_f64(base * cost * jitter / factor);
        let start = self.world.mds_busy[mds].max(self.world.now + latency);
        let done = start + service;
        self.world.mds_busy[mds] = done;
        self.ranks[rank as usize] = RankState::TimerWait;
        self.schedule(done + latency, Event::OpFinish(rank));
    }

    /// Record the op `rank` was executing as complete now and issue its
    /// next one.
    fn finish_op(&mut self, rank: Rank) -> Result<(), SimError> {
        let op = &self.scripts.script(rank)[self.pcs[rank as usize]];
        let (path, offset, len) = match *op {
            Op::Write { path, offset, len } | Op::Read { path, offset, len } => {
                (Some(path), offset, len)
            }
            Op::Open { path, .. }
            | Op::Close { path }
            | Op::Fsync { path }
            | Op::Stat { path }
            | Op::Unlink { path }
            | Op::Mkdir { path }
            | Op::Rmdir { path }
            | Op::Readdir { path } => (Some(path), 0, 0),
            Op::Send { bytes, .. } => (None, 0, bytes),
            _ => (None, 0, 0),
        };
        let kind = op.kind();
        // A read that finished via timer (no flows) was a cache hit.
        let cache_hit = kind == OpKind::Read && self.ranks[rank as usize] == RankState::TimerWait;
        self.records.push(OpRecord {
            rank,
            kind,
            path,
            offset,
            len,
            start: self.op_start[rank as usize],
            end: self.world.now,
            cache_hit,
        });
        self.pcs[rank as usize] += 1;
        self.ranks[rank as usize] = RankState::Ready;
        self.issue_next(rank)
    }

    fn try_release_recv(&mut self, to: Rank, from: Rank, tag: u32, at: SimTime) {
        if self.ranks[to as usize] == (RankState::RecvWait { from, tag }) {
            // Consume the delivery we just enqueued.
            if let Some(queue) = self.delivered.get_mut(&(to, from, tag)) {
                queue.pop_front();
            }
            self.ranks[to as usize] = RankState::TimerWait;
            self.schedule(at.max(self.world.now), Event::OpFinish(to));
        }
    }

    fn advance_flows(&mut self, to: SimTime) {
        let dt = (to - self.last_advance).as_secs_f64();
        if dt > 0.0 {
            for flow in &mut self.flows {
                flow.remaining -= flow.rate * dt;
            }
        }
        self.last_advance = to;
    }

    fn complete_due_flows(&mut self) -> Result<(), SimError> {
        loop {
            // Simultaneous completions are delivered in start order, which
            // is the order `flows` is kept in.
            let mut outcomes = Vec::new();
            self.flows.retain(|flow| {
                let due = flow.remaining <= FLOW_EPS;
                if due {
                    outcomes.push(flow.outcome);
                }
                !due
            });
            if outcomes.is_empty() {
                return Ok(());
            }
            self.flows_dirty = true;
            for outcome in outcomes {
                // The op (a data op's piece, or the sender's `Send`) is
                // done once its last flow is.
                let (rank, message) = match outcome {
                    FlowOutcome::OpPart(rank) => (rank, None),
                    FlowOutcome::Message { from, to, tag } => (from, Some((to, tag))),
                };
                if let RankState::DataWait { outstanding } = &mut self.ranks[rank as usize] {
                    *outstanding -= 1;
                    if *outstanding == 0 {
                        self.finish_op(rank)?;
                    }
                }
                if let Some((to, tag)) = message {
                    self.delivered
                        .entry((to, rank, tag))
                        .or_default()
                        .push_back(self.world.now);
                    self.try_release_recv(to, rank, tag, self.world.now);
                }
            }
        }
    }

    fn resample_noise(&mut self) {
        let sigma = self.world.system.noise_sigma;
        if sigma <= 0.0 {
            return;
        }
        let mu = -sigma * sigma / 2.0; // unit-mean lognormal
        self.world.fabric_noise = self.world.rng.lognormal(mu, sigma).clamp(0.4, 1.3);
        for i in 0..self.world.target_noise.len() {
            let v = self.world.rng.lognormal(mu, sigma).clamp(0.4, 1.3);
            self.world.target_noise[i] = v;
        }
        // Read path (server cache): a fraction of the disk-side scatter.
        let read_sigma = sigma * 0.2;
        let read_mu = -read_sigma * read_sigma / 2.0;
        for i in 0..self.world.target_read_noise.len() {
            let v = self
                .world
                .rng
                .lognormal(read_mu, read_sigma)
                .clamp(0.7, 1.2);
            self.world.target_read_noise[i] = v;
        }
    }

    // Resource index layout: [0..nodes) NICs, [nodes] fabric,
    // [nodes+1..nodes+1+targets) storage targets' write (disk) path, then
    // as many again for their read (server cache) path.
    fn res_nic(&self, node: u32) -> ResourceId {
        node
    }

    fn res_fabric(&self) -> ResourceId {
        self.world.system.cluster.nodes
    }

    fn res_target(&self, target: u32) -> ResourceId {
        self.world.system.cluster.nodes + 1 + target
    }

    fn res_target_read(&self, target: u32) -> ResourceId {
        self.world.system.cluster.nodes + 1 + self.world.system.pfs.storage_targets + target
    }

    fn recompute_rates(&mut self) {
        self.flows_dirty = false;
        self.flow_gen += 1;
        self.world.stats.rate_recomputes += 1;
        if self.flows.is_empty() {
            return;
        }
        let world = &*self.world;
        let paths = self.flows.iter().map(|flow| &flow.path);
        let rates = self.solver.solve(paths, |res| world.capacity(res));
        let mut earliest = f64::INFINITY;
        for (flow, rate) in self.flows.iter_mut().zip(rates) {
            flow.rate = rate;
            if rate > 0.0 && rate.is_finite() {
                earliest = earliest.min((flow.remaining - FLOW_EPS).max(0.0) / rate);
            } else if rate.is_infinite() {
                earliest = 0.0;
            }
        }
        self.world.stats.rate_solves += 1;
        self.world.stats.flows_solved += self.flows.len() as u64;
        self.world.stats.resources_solved += self.solver.resources() as u64;
        if earliest.is_finite() {
            let due = self.world.now + SimDuration::from_secs_f64(earliest.max(1e-9));
            self.schedule(due, Event::FlowsDue(self.flow_gen));
        }
    }
}

impl World {
    /// Current capacity of one flow resource (see the index layout at
    /// `Execution::res_nic`), bytes/s: nominal bandwidth × active faults ×
    /// the noise process where it applies.
    fn capacity(&self, res: ResourceId) -> f64 {
        let cluster = &self.system.cluster;
        let pfs = &self.system.pfs;
        let fault = |target| self.faults.factor(target, self.now);
        if res < cluster.nodes {
            return cluster.nic_bandwidth * fault(FaultTarget::NodeNic(res));
        }
        if res == cluster.nodes {
            return cluster.fabric_bandwidth * fault(FaultTarget::Fabric) * self.fabric_noise;
        }
        let t = res - cluster.nodes - 1;
        if t < pfs.storage_targets {
            let f = fault(FaultTarget::StorageTarget(t));
            return pfs.target_bandwidth * f * self.target_noise[t as usize];
        }
        // Read-path (server cache) resources: per-target, fault-affected,
        // with only mild noise (reads are far stabler than disk writes).
        let t = t - pfs.storage_targets;
        let f = fault(FaultTarget::StorageTarget(t));
        pfs.target_read_bandwidth * f * self.target_read_noise[t as usize]
    }
}

impl NodeCache {
    /// Is the byte range `[start, end)` fully cached?
    fn covers(&self, file: NameId, start: u64, end: u64) -> bool {
        if end <= start {
            return true;
        }
        self.files
            .get(&file)
            .is_some_and(|ranges| ranges.iter().any(|(s, e)| *s <= start && end <= *e))
    }

    fn remove(&mut self, file: NameId) {
        if let Some(ranges) = self.files.remove(&file) {
            self.total -= ranges.iter().map(|(s, e)| e - s).sum::<u64>();
            self.order.retain(|f| *f != file);
        }
    }

    /// Cache the byte range `[start, end)` of a file, coalescing with
    /// existing ranges, and evict whole files (LRU by first touch) while
    /// over `limit`.
    fn insert(&mut self, file: NameId, start: u64, end: u64, limit: u64) {
        if end <= start {
            return;
        }
        let ranges = self.files.entry(file).or_insert_with(|| {
            self.order.push_back(file);
            Vec::new()
        });
        let before: u64 = ranges.iter().map(|(s, e)| e - s).sum();
        ranges.push((start, end));
        ranges.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        for (s, e) in ranges.drain(..) {
            match merged.last_mut() {
                Some((_, last_end)) if s <= *last_end => *last_end = (*last_end).max(e),
                _ => merged.push((s, e)),
            }
        }
        *ranges = merged;
        let after: u64 = ranges.iter().map(|(s, e)| e - s).sum();
        self.total += after - before;
        while self.total > limit {
            let Some(evict) = self.order.pop_front() else {
                break;
            };
            if let Some(ranges) = self.files.remove(&evict) {
                self.total -= ranges.iter().map(|(s, e)| e - s).sum::<u64>();
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::script::StripeHint;
    use iokc_util::units::MIB;

    fn world() -> World {
        World::new(SystemConfig::test_small(), FaultPlan::none(), 42)
    }

    fn layout(np: u32, ppn: u32) -> JobLayout {
        JobLayout::new(np, ppn)
    }

    #[test]
    fn single_rank_write_roundtrip() {
        let mut w = world();
        let mut s = ScriptSet::new(1);
        s.rank(0)
            .open("/scratch/f", OpenMode::Write)
            .write("/scratch/f", 0, 4 * MIB)
            .fsync("/scratch/f")
            .close("/scratch/f");
        let result = w.run(layout(1, 1), &s).unwrap();
        assert_eq!(result.ops(OpKind::Write), 1);
        assert_eq!(result.bytes(OpKind::Write), 4 * MIB);
        assert!(result.wall() > SimDuration::ZERO);
        assert_eq!(w.namespace().file("/scratch/f").unwrap().size, 4 * MIB);
        // 4 MiB at ~0.8 GB/s NIC-bound → ≥ 5 ms; sanity-check the scale.
        let write_secs = result.span_secs(OpKind::Write);
        assert!(
            write_secs > 0.003 && write_secs < 0.1,
            "write took {write_secs}s"
        );
    }

    #[test]
    fn bandwidth_is_capped_by_bottleneck() {
        // One rank on one node: NIC (1.0e9) is the bottleneck.
        let mut w = world();
        let mut s = ScriptSet::new(1);
        s.rank(0).open("/scratch/big", OpenMode::Write);
        for i in 0..8 {
            s.rank(0).write("/scratch/big", i * 8 * MIB, 8 * MIB);
        }
        s.rank(0).close("/scratch/big");
        let result = w.run(layout(1, 1), &s).unwrap();
        let bw_bytes = result.bytes(OpKind::Write) as f64 / result.span_secs(OpKind::Write);
        assert!(bw_bytes < 1.0e9 * 1.05, "bw {bw_bytes} exceeds NIC");
        assert!(bw_bytes > 0.4e9, "bw {bw_bytes} implausibly low");
    }

    #[test]
    fn multiple_nodes_hit_fabric_limit() {
        // 4 nodes × 1 GB/s NIC = 4 GB/s demand, fabric is 2 GB/s.
        let mut w = world();
        let mut s = ScriptSet::new(4);
        for r in 0..4 {
            let path = format!("/scratch/f{r}");
            s.rank(r).open(&path, OpenMode::Write);
            for i in 0..4 {
                s.rank(r).write(&path, i * 8 * MIB, 8 * MIB);
            }
            s.rank(r).close(&path);
        }
        let result = w.run(layout(4, 1), &s).unwrap();
        let bw = result.bytes(OpKind::Write) as f64 / result.span_secs(OpKind::Write);
        assert!(bw < 2.0e9 * 1.05, "aggregate {bw} exceeds fabric");
        assert!(bw > 1.2e9, "aggregate {bw} too low for 4 writers");
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut s = ScriptSet::new(2);
            for r in 0..2 {
                let path = format!("/scratch/d{r}");
                s.rank(r)
                    .open(&path, OpenMode::Write)
                    .write(&path, 0, 2 * MIB)
                    .close(&path)
                    .barrier();
            }
            s
        };
        let mut w1 = World::new(
            SystemConfig::test_small().with_noise(0.1),
            FaultPlan::none(),
            7,
        );
        let mut w2 = World::new(
            SystemConfig::test_small().with_noise(0.1),
            FaultPlan::none(),
            7,
        );
        let r1 = w1.run(layout(2, 2), &build()).unwrap();
        let r2 = w2.run(layout(2, 2), &build()).unwrap();
        assert_eq!(r1.finished, r2.finished);
        let ends1: Vec<_> = r1.records.iter().map(|r| r.end).collect();
        let ends2: Vec<_> = r2.records.iter().map(|r| r.end).collect();
        assert_eq!(ends1, ends2);
    }

    #[test]
    fn engine_stats_repeat_exactly_and_add_up() {
        let run = || {
            let system = SystemConfig::test_small().with_noise(0.1);
            let mut w = World::new(system, FaultPlan::none(), 7);
            let mut s = ScriptSet::new(2);
            for r in 0..2 {
                let path = format!("/scratch/s{r}");
                s.rank(r)
                    .open(&path, OpenMode::Write)
                    .write(&path, 0, 2 * MIB)
                    .close(&path)
                    .barrier();
            }
            let first = w.run(layout(2, 1), &s).unwrap().stats;
            let mut again = ScriptSet::new(2);
            again.rank(0).stat("/scratch/s1").barrier();
            again.rank(1).barrier();
            let second = w.run(layout(2, 1), &again).unwrap().stats;
            (first, second, w.stats())
        };
        let (first, second, total) = run();
        assert_eq!((first, second, total), run());
        // The world's census is the sum of its phases'.
        assert_eq!(total.since(&first), second);
        assert_eq!(total.since(&second), first);
        // 2 MiB over two 512 KiB-chunk targets is four stripe pieces a rank.
        assert_eq!(first.flow_start, 8);
        assert!(first.rate_solves >= 8 && first.flows_solved >= first.rate_solves);
        assert!(first.resources_solved >= first.rate_solves);
        assert_eq!(second.flow_start + second.rate_solves, 0);
        assert!(second.paths_resolved >= 1);
        // Two starts, two barrier releases; a stat and nothing else timed.
        assert_eq!((second.rank_ready, second.op_finish), (4, 1));
        assert_eq!(second.events(), 5 + second.noise_tick);
    }

    #[test]
    fn seed_changes_results_under_noise() {
        let build = || {
            let mut s = ScriptSet::new(1);
            s.rank(0)
                .open("/scratch/n", OpenMode::Write)
                .write("/scratch/n", 0, 16 * MIB)
                .close("/scratch/n");
            s
        };
        let sys = SystemConfig::test_small().with_noise(0.2);
        let mut w1 = World::new(sys.clone(), FaultPlan::none(), 1);
        let mut w2 = World::new(sys, FaultPlan::none(), 2);
        let r1 = w1.run(layout(1, 1), &build()).unwrap();
        let r2 = w2.run(layout(1, 1), &build()).unwrap();
        assert_ne!(r1.finished, r2.finished);
    }

    #[test]
    fn barrier_synchronizes() {
        let mut s = ScriptSet::new(2);
        // Rank 0 computes 10 ms then barriers; rank 1 barriers immediately.
        s.rank(0).compute(SimDuration::from_millis(10)).barrier();
        s.rank(1).barrier();
        let mut w = world();
        let result = w.run(layout(2, 2), &s).unwrap();
        let barrier_ends: Vec<SimTime> = result
            .records
            .iter()
            .filter(|r| r.kind == OpKind::Barrier)
            .map(|r| r.end)
            .collect();
        assert_eq!(barrier_ends.len(), 2);
        assert_eq!(barrier_ends[0], barrier_ends[1]);
        assert!(barrier_ends[0] >= SimTime::from_millis(10));
    }

    #[test]
    fn send_recv_transfers() {
        let mut s = ScriptSet::new(2);
        s.rank(0).send(1, MIB, 5);
        s.rank(1).recv(0, 5);
        let mut w = world();
        let result = w.run(layout(2, 1), &s).unwrap();
        assert_eq!(result.ops(OpKind::Send), 1);
        assert_eq!(result.ops(OpKind::Recv), 1);
        let send_end = result.last_end(OpKind::Send).unwrap();
        let recv_end = result.last_end(OpKind::Recv).unwrap();
        assert!(recv_end >= send_end);
        // 1 MiB over a 1 GB/s NIC ≈ 1 ms.
        assert!(send_end.as_secs_f64() > 5e-4);
    }

    #[test]
    fn recv_before_send_blocks_until_delivery() {
        let mut s = ScriptSet::new(2);
        s.rank(0).recv(1, 9);
        s.rank(1)
            .compute(SimDuration::from_millis(5))
            .send(0, 1024, 9);
        let mut w = world();
        let result = w.run(layout(2, 1), &s).unwrap();
        let recv_end = result.last_end(OpKind::Recv).unwrap();
        assert!(recv_end >= SimTime::from_millis(5));
    }

    #[test]
    fn mismatched_barrier_deadlocks() {
        let mut s = ScriptSet::new(2);
        s.rank(0).barrier();
        // Rank 1 never reaches the barrier.
        s.rank(1).recv(0, 1);
        let mut w = world();
        let err = w.run(layout(2, 2), &s).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { waiting: 2 }));
    }

    #[test]
    fn read_after_remote_write_misses_cache() {
        let mut w = world();
        let mut s1 = ScriptSet::new(1);
        s1.rank(0)
            .open("/scratch/c", OpenMode::Write)
            .write("/scratch/c", 0, MIB)
            .close("/scratch/c");
        w.run(layout(1, 1), &s1).unwrap();

        // Same node re-reads: cache hit, fast.
        let mut s2 = ScriptSet::new(1);
        s2.rank(0)
            .open("/scratch/c", OpenMode::Read)
            .read("/scratch/c", 0, MIB)
            .close("/scratch/c");
        let hit = w.run(layout(1, 1), &s2).unwrap();
        assert!(hit
            .records
            .iter()
            .any(|r| r.kind == OpKind::Read && r.cache_hit));

        // A rank on another node reads: miss, slower.
        let mut s3 = ScriptSet::new(2);
        s3.rank(1)
            .open("/scratch/c", OpenMode::Read)
            .read("/scratch/c", 0, MIB)
            .close("/scratch/c");
        let miss = w.run(layout(2, 1), &s3).unwrap();
        let miss_read = miss
            .records
            .iter()
            .find(|r| r.kind == OpKind::Read)
            .unwrap();
        assert!(!miss_read.cache_hit);
        let hit_read = hit.records.iter().find(|r| r.kind == OpKind::Read).unwrap();
        assert!(miss_read.duration() > hit_read.duration());
    }

    #[test]
    fn fault_slows_writes() {
        let run = |faults: FaultPlan| {
            let mut w = World::new(SystemConfig::test_small(), faults, 3);
            let mut s = ScriptSet::new(1);
            s.rank(0).open("/scratch/x", OpenMode::Write);
            for i in 0..4 {
                s.rank(0).write("/scratch/x", i * 4 * MIB, 4 * MIB);
            }
            s.rank(0).close("/scratch/x");
            w.run(layout(1, 1), &s).unwrap().span_secs(OpKind::Write)
        };
        let healthy = run(FaultPlan::none());
        let degraded =
            run(FaultPlan::none().with(crate::faults::Fault::permanent(FaultTarget::Fabric, 0.25)));
        assert!(
            degraded > healthy * 1.5,
            "degraded {degraded} vs healthy {healthy}"
        );
    }

    #[test]
    fn open_missing_for_read_errors() {
        let mut w = world();
        let mut s = ScriptSet::new(1);
        s.rank(0).open("/scratch/absent", OpenMode::Read);
        let err = w.run(layout(1, 1), &s).unwrap_err();
        assert!(matches!(
            err,
            SimError::Fs {
                op: OpKind::Open,
                ..
            }
        ));
    }

    #[test]
    fn layout_too_large_is_rejected() {
        let mut w = world();
        let s = ScriptSet::new(64);
        let err = w.run(layout(64, 1), &s).unwrap_err();
        assert!(matches!(err, SimError::LayoutTooLarge { .. }));
    }

    #[test]
    fn metadata_rate_bounded_by_mds() {
        // 200 creates on one MDS-bound workload: rate must not exceed the
        // configured aggregate MDS capability.
        let mut w = world();
        let mut s = ScriptSet::new(1);
        s.rank(0).mkdir("/scratch/md");
        for i in 0..200 {
            let path = format!("/scratch/md/f{i}");
            s.rank(0).open(&path, OpenMode::Write).close(&path);
        }
        let result = w.run(layout(1, 1), &s).unwrap();
        let rate = result.op_rate(OpKind::Open);
        let cap = w.system().pfs.mds_ops_per_sec * f64::from(w.system().pfs.metadata_servers);
        assert!(rate < cap, "open rate {rate} exceeds MDS capacity {cap}");
        assert!(rate > 500.0, "open rate {rate} implausibly low");
    }

    #[test]
    fn unaligned_shared_writes_slower_than_aligned() {
        let run_pattern = |offset_base: u64, xfer: u64| {
            let mut w = world();
            let mut setup = ScriptSet::new(2);
            for r in 0..2 {
                setup.rank(r).open("/scratch/shared", OpenMode::Write);
            }
            w.run(layout(2, 2), &setup).unwrap();
            let mut s = ScriptSet::new(2);
            for r in 0..2 {
                for i in 0..64 {
                    let off = offset_base + (u64::from(r) * 64 + i) * xfer;
                    s.rank(r).write("/scratch/shared", off, xfer);
                }
            }
            let res = w.run(layout(2, 2), &s).unwrap();
            res.bandwidth_mib(OpKind::Write)
        };
        // Aligned 512 KiB transfers vs ior-hard-style 47008-byte ones.
        let aligned = run_pattern(0, 512 * 1024);
        let unaligned = run_pattern(0, 47_008);
        assert!(
            unaligned < aligned * 0.6,
            "unaligned {unaligned} not sufficiently below aligned {aligned}"
        );
    }

    mod prop {
        use super::*;
        use iokc_util::units::MIB;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn runs_are_bit_reproducible(
                seed in any::<u64>(),
                np in 1u32..8,
                writes in 1u64..6,
                noise in 0.0f64..0.3,
            ) {
                let build = || {
                    let mut scripts = ScriptSet::new(np);
                    for rank in 0..np {
                        let path = format!("/scratch/p{rank}");
                        scripts.rank(rank).open(&path, OpenMode::Write);
                        for i in 0..writes {
                            scripts.rank(rank).write(&path, i * MIB, MIB);
                        }
                        scripts.rank(rank).close(&path).barrier();
                    }
                    scripts
                };
                let run = |seed: u64| {
                    let system = SystemConfig::test_small().with_noise(noise);
                    let mut world = World::new(system, FaultPlan::none(), seed);
                    let result = world
                        .run(JobLayout::new(np, np.min(4)), &build())
                        .unwrap();
                    let ends: Vec<u64> =
                        result.records.iter().map(|r| r.end.nanos()).collect();
                    (result.finished.nanos(), ends)
                };
                prop_assert_eq!(run(seed), run(seed));
            }

            /// Random (well-formed) scripts must always terminate: any
            /// mix of creates, writes, reads, stats and fsyncs on a
            /// rank's own file can neither deadlock nor panic.
            #[test]
            fn random_scripts_always_terminate(
                seed in any::<u64>(),
                np in 1u32..6,
                ops in proptest::collection::vec(0u8..6, 1..30),
            ) {
                let mut world =
                    World::new(SystemConfig::test_small(), FaultPlan::none(), seed);
                let mut scripts = ScriptSet::new(np);
                for rank in 0..np {
                    let path = format!("/scratch/r{rank}");
                    scripts.rank(rank).open(&path, OpenMode::Write);
                    let mut extent = 0u64;
                    for op in &ops {
                        match op % 6 {
                            0 => {
                                scripts.rank(rank).write(&path, extent, 256 << 10);
                                extent += 256 << 10;
                            }
                            1 if extent > 0 => {
                                scripts.rank(rank).read(&path, 0, extent.min(256 << 10));
                            }
                            2 => {
                                scripts.rank(rank).stat(&path);
                            }
                            3 => {
                                scripts.rank(rank).fsync(&path);
                            }
                            4 => {
                                scripts
                                    .rank(rank)
                                    .compute(SimDuration::from_micros(50));
                            }
                            _ => {
                                scripts.rank(rank).barrier();
                            }
                        }
                    }
                    scripts.rank(rank).close(&path).barrier();
                }
                let result = world.run(JobLayout::new(np, np), &scripts).unwrap();
                prop_assert!(result.finished >= result.started);
                // Every rank's close completed.
                prop_assert_eq!(result.ops(OpKind::Close), u64::from(np));
            }

            #[test]
            fn conservation_all_bytes_written(
                np in 1u32..6,
                blocks in 1u64..5,
            ) {
                let mut world =
                    World::new(SystemConfig::test_small(), FaultPlan::none(), 3);
                let mut scripts = ScriptSet::new(np);
                for rank in 0..np {
                    let path = format!("/scratch/c{rank}");
                    scripts.rank(rank).open(&path, OpenMode::Write);
                    for i in 0..blocks {
                        scripts.rank(rank).write(&path, i * MIB, MIB);
                    }
                    scripts.rank(rank).close(&path);
                }
                let result = world.run(JobLayout::new(np, np), &scripts).unwrap();
                prop_assert_eq!(
                    result.bytes(OpKind::Write),
                    u64::from(np) * blocks * MIB
                );
                // Every file reached its expected size.
                for rank in 0..np {
                    let path = format!("/scratch/c{rank}");
                    prop_assert_eq!(
                        world.namespace().file(&path).unwrap().size,
                        blocks * MIB
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            /// A world whose sets share one table does what a twin does
            /// that forgets its table and runs every set over a private
            /// copy of its own, resolving it in full: the same records,
            /// trace and files, never more names resolved. Sets come
            /// fresh, from the world, or as forks of an earlier world
            /// set; a phase's own names make a fork append other names
            /// at the rows the set it was forked beside filled.
            #[test]
            fn a_shared_table_resolves_like_a_fresh_one(
                seed in any::<u64>(),
                phases in proptest::collection::vec(
                    (
                        0u8..3,
                        0usize..4,
                        proptest::collection::vec((0u8..10, 0usize..8), 1..12),
                    ),
                    1..8,
                ),
            ) {
                let trace = |phase: &PhaseResult| -> Vec<String> {
                    let line = |r: &OpRecord| {
                        let path = r.path.map_or("-", |id| phase.paths[id.0 as usize].as_str());
                        format!("{} {} {path} {} {}", r.rank, r.kind.as_str(), r.offset, r.len)
                    };
                    phase.records.iter().map(line).collect()
                };
                let files = |world: &World| -> Vec<(String, Option<u64>)> {
                    let ns = world.namespace();
                    let size = |name: &str| ns.file(name).map(|meta| meta.size);
                    ns.list_dir("/scratch").map(|name| (name.to_owned(), size(name))).collect()
                };
                let system = SystemConfig::test_small().with_noise(0.1);
                let mut world = World::new(system.clone(), FaultPlan::none(), seed);
                let mut twin = World::new(system, FaultPlan::none(), seed);
                let mut forks: Vec<ScriptSet> = Vec::new();
                for (phase, (source, fork, ops)) in phases.into_iter().enumerate() {
                    let mut set = match source {
                        0 => ScriptSet::new(2),
                        1 if !forks.is_empty() => forks[fork % forks.len()].clone(),
                        _ => {
                            let set = world.scripts(2);
                            forks.push(set.clone());
                            set
                        }
                    };
                    for (i, (op, pick)) in ops.into_iter().enumerate() {
                        let path = match pick {
                            0..4 => format!("/scratch/f{pick}"),
                            _ => format!("/scratch/p{phase}.{pick}"),
                        };
                        let path = path.as_str();
                        let len = 64 << (10 + pick);
                        let mut rank = set.rank((i % 2) as u32);
                        match op {
                            0..5 => {
                                rank.open(path, OpenMode::Write).write(path, 0, len).close(path)
                            }
                            5 => rank.stat(path),
                            6 => rank.unlink(path),
                            7 => rank.readdir("/scratch"),
                            8 => rank.mkdir(path),
                            _ => rank.rmdir(path),
                        };
                    }
                    let got = world.run(layout(2, 2), &set);
                    twin.forget_paths();
                    let want = twin.run(layout(2, 2), &set.with_private_table());
                    match (got, want) {
                        (Ok(got), Ok(want)) => {
                            prop_assert_eq!(&got.records, &want.records);
                            prop_assert_eq!(trace(&got), trace(&want));
                            prop_assert_eq!(got.stats.events(), want.stats.events());
                            prop_assert!(got.stats.paths_resolved <= want.stats.paths_resolved);
                        }
                        (got, want) => prop_assert_eq!(got.err(), want.err()),
                    }
                    prop_assert_eq!(world.now(), twin.now());
                    prop_assert_eq!(files(&world), files(&twin));
                }
            }
        }
    }

    #[test]
    fn stripe_count_affects_single_writer() {
        let run_with = |stripe: u32| {
            let mut w = World::new(
                SystemConfig {
                    cluster: crate::config::ClusterConfig {
                        nic_bandwidth: 10.0e9, // not the bottleneck
                        fabric_bandwidth: 10.0e9,
                        ..crate::config::ClusterConfig::test_small()
                    },
                    pfs: crate::config::PfsConfig::test_small(),
                    noise_sigma: 0.0,
                    noise_interval_ns: 100_000_000,
                },
                FaultPlan::none(),
                5,
            );
            let mut s = ScriptSet::new(1);
            s.rank(0).open_hint(
                "/scratch/st",
                OpenMode::Write,
                StripeHint {
                    chunk_size: None,
                    stripe_count: Some(stripe),
                },
            );
            for i in 0..8 {
                s.rank(0).write("/scratch/st", i * 4 * MIB, 4 * MIB);
            }
            s.rank(0).close("/scratch/st");
            w.run(layout(1, 1), &s)
                .unwrap()
                .bandwidth_mib(OpKind::Write)
        };
        let one = run_with(1);
        let four = run_with(4);
        assert!(
            four > one * 1.5,
            "stripe 4 ({four}) should beat stripe 1 ({one})"
        );
    }
}
