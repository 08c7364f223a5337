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
//! rates are recomputed whenever the set of flows or a capacity changes
//! (op start/finish, noise tick, fault window edge). Metadata operations
//! are FIFO queues at the metadata servers; small-transfer IOPS limits are
//! modelled as a serialized per-request overhead slot at each storage
//! target.

use crate::config::SystemConfig;
use crate::faults::{FaultPlan, FaultTarget};
use crate::flow::{solve_rates, FlowPath};
use crate::metrics::{EngineStats, OpRecord, PhaseResult};
use crate::pfs::Namespace;
use crate::rng::Rng;
use crate::script::{Op, OpKind, OpenMode, PathId, Rank, ScriptSet};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

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

const FLOW_EPS: f64 = 0.5; // bytes: a flow with less remaining is complete

#[derive(Debug, Clone)]
enum Event {
    /// A rank may issue its next op.
    RankReady(Rank),
    /// A non-flow op (metadata, compute, cache read, fsync) finished.
    OpFinish(Rank),
    /// A data flow begins (after its target slot wait).
    FlowStart(PendingFlow),
    /// The earliest flow completion under current rates is due.
    FlowsDue(u64),
    /// Resample background-noise multipliers.
    NoiseTick,
    /// A fault window starts or ends.
    FaultEdge,
}

#[derive(Debug, Clone)]
struct PendingFlow {
    resources: Vec<u32>,
    bytes: f64,
    outcome: FlowOutcome,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowOutcome {
    /// Part of a rank's data op; op completes when `outstanding` hits zero.
    OpPart(Rank),
    /// An eager message; completes the sender's Send op and may release a
    /// waiting receiver.
    Message { from: Rank, to: Rank, tag: u32 },
}

#[derive(Debug, Clone)]
struct ActiveFlow {
    id: u64,
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

#[derive(Debug, Default)]
struct Mailbox {
    /// (to, from, tag) → delivery times of messages already delivered.
    delivered: BTreeMap<(Rank, Rank, u32), VecDeque<SimTime>>,
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
    cache: Vec<NodeCache>,
    /// File → storage targets with unsynced dirty data.
    dirty: BTreeMap<String, BTreeSet<u32>>,
    /// Files opened by more than one distinct rank (lock-contention model).
    shared_files: BTreeMap<String, Rank>,
    shared_flag: BTreeSet<String>,
    /// Per-shared-file byte-range lock clock (unaligned writers serialize).
    file_lock_busy: BTreeMap<String, SimTime>,
    /// What every phase so far cost the engine.
    stats: EngineStats,
}

#[derive(Debug, Clone, Default)]
struct NodeCache {
    /// File → cached byte ranges (sorted, coalesced, non-overlapping).
    files: BTreeMap<String, Vec<(u64, u64)>>,
    order: VecDeque<String>,
    total: u64,
}

impl World {
    /// Create a world over a system with a fault plan and a deterministic
    /// seed. Two worlds with the same configuration and seed produce
    /// bit-identical results.
    #[must_use]
    pub fn new(system: SystemConfig, faults: FaultPlan, seed: u64) -> World {
        let nodes = system.cluster.nodes as usize;
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
            cache: vec![NodeCache::default(); nodes],
            dirty: BTreeMap::new(),
            shared_files: BTreeMap::new(),
            shared_flag: BTreeSet::new(),
            file_lock_busy: BTreeMap::new(),
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

    /// Add a fault to the active plan.
    pub fn add_fault(&mut self, fault: crate::faults::Fault) {
        self.faults.push(fault);
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
        let mut exec = Execution::new(self, layout, scripts);
        exec.run()?;
        let records = std::mem::take(&mut exec.records);
        let finished = exec.world.now;
        let stonewalled: u64 = exec.stonewalled.iter().sum();
        let (started, stats) = (exec.started, exec.stats);
        self.stats += stats;
        Ok(PhaseResult {
            records,
            started,
            finished,
            paths: scripts.paths().to_vec(),
            stonewalled_ops: stonewalled,
            stats,
        })
    }
}

struct Execution<'w> {
    world: &'w mut World,
    layout: JobLayout,
    scripts: &'w ScriptSet,
    events: BinaryHeap<Reverse<(u64, u64)>>,
    payloads: BTreeMap<u64, Event>,
    seq: u64,
    started: SimTime,
    ranks: Vec<RankState>,
    pcs: Vec<usize>,
    op_start: Vec<SimTime>,
    done_count: u32,
    flows: Vec<ActiveFlow>,
    next_flow_id: u64,
    flow_gen: u64,
    flows_dirty: bool,
    last_advance: SimTime,
    barriers: BTreeMap<u32, Vec<Rank>>,
    mailbox: Mailbox,
    records: Vec<OpRecord>,
    stonewalled: Vec<u64>,
    noise_active: bool,
    stats: EngineStats,
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
            payloads: BTreeMap::new(),
            seq: 0,
            started,
            ranks: vec![RankState::Ready; np],
            pcs: vec![0; np],
            op_start: vec![started; np],
            done_count: 0,
            flows: Vec::new(),
            next_flow_id: 0,
            flow_gen: 0,
            flows_dirty: false,
            last_advance: started,
            barriers: BTreeMap::new(),
            mailbox: Mailbox::default(),
            records: Vec::new(),
            stonewalled: vec![0; np],
            noise_active: false,
            stats: EngineStats::default(),
        }
    }

    fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.payloads.insert(seq, event);
        self.events.push(Reverse((at.nanos(), seq)));
    }

    fn run(&mut self) -> Result<(), SimError> {
        for rank in 0..self.layout.np {
            self.schedule(self.world.now, Event::RankReady(rank));
        }
        if self.world.system.noise_sigma > 0.0 {
            self.noise_active = true;
            self.schedule(self.world.now, Event::NoiseTick);
        }
        for edge in self.world.faults.edges_after(self.world.now) {
            self.schedule(edge, Event::FaultEdge);
        }

        while self.done_count < self.layout.np {
            let Some(Reverse((t_ns, seq))) = self.events.pop() else {
                let waiting = self.layout.np - self.done_count;
                return Err(SimError::Deadlock { waiting });
            };
            let event = self
                .payloads
                .remove(&seq)
                .expect("event payload present for queued seq");
            let t = SimTime(t_ns);
            self.advance_flows(t);
            self.world.now = t;
            *match event {
                Event::RankReady(_) => &mut self.stats.rank_ready,
                Event::OpFinish(_) => &mut self.stats.op_finish,
                Event::FlowStart(_) => &mut self.stats.flow_start,
                Event::FlowsDue(_) => &mut self.stats.flows_due,
                Event::NoiseTick => &mut self.stats.noise_tick,
                Event::FaultEdge => &mut self.stats.fault_edge,
            } += 1;
            match event {
                Event::RankReady(rank) => {
                    // A barrier release or initial start: if the rank was
                    // waiting at a barrier, finish the barrier op first.
                    if matches!(self.ranks[rank as usize], RankState::BarrierWait { .. }) {
                        self.finish_op(rank, None, 0, 0, false)?;
                    } else {
                        self.issue_next(rank)?;
                    }
                }
                Event::OpFinish(rank) => {
                    let (path, offset, len, hit) = self.current_data(rank);
                    self.finish_op(rank, path, offset, len, hit)?;
                }
                Event::FlowStart(pending) => {
                    let id = self.next_flow_id;
                    self.next_flow_id += 1;
                    self.flows.push(ActiveFlow {
                        id,
                        path: FlowPath::new(pending.resources),
                        remaining: pending.bytes.max(1.0),
                        rate: 0.0,
                        outcome: pending.outcome,
                    });
                    self.flows_dirty = true;
                }
                Event::FlowsDue(gen) => {
                    if gen == self.flow_gen {
                        self.flows_dirty = true;
                    }
                }
                Event::NoiseTick => {
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

    /// Data fields of the op a rank is currently executing (for records).
    fn current_data(&self, rank: Rank) -> (Option<PathId>, u64, u64, bool) {
        let pc = self.pcs[rank as usize];
        match self.scripts.script(rank).get(pc) {
            Some(Op::Write { path, offset, len }) => (Some(*path), *offset, *len, false),
            Some(Op::Read { path, offset, len }) => (Some(*path), *offset, *len, true),
            Some(
                Op::Open { path, .. }
                | Op::Close { path }
                | Op::Fsync { path }
                | Op::Stat { path }
                | Op::Unlink { path }
                | Op::Mkdir { path }
                | Op::Rmdir { path }
                | Op::Readdir { path },
            ) => (Some(*path), 0, 0, false),
            Some(Op::Send { bytes, .. }) => (None, 0, *bytes, false),
            _ => (None, 0, 0, false),
        }
    }

    fn issue_next(&mut self, rank: Rank) -> Result<(), SimError> {
        let pc = self.pcs[rank as usize];
        let script = self.scripts.script(rank);
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
        if let Some(deadline) = self.scripts.stonewall() {
            if self.world.now - self.started >= deadline
                && matches!(script[pc], Op::Write { .. } | Op::Read { .. })
            {
                self.stonewalled[rank as usize] += 1;
                self.pcs[rank as usize] += 1;
                return self.issue_next(rank);
            }
        }
        let op = script[pc].clone();
        self.op_start[rank as usize] = self.world.now;
        let node = self.layout.node_of(rank);
        let latency = SimDuration(self.world.system.cluster.network_latency_ns);
        match op {
            Op::Mkdir { path } => {
                let name = self.resolve(path);
                self.world
                    .namespace
                    .mkdir(&name)
                    .map_err(|cause| SimError::Fs {
                        rank,
                        op: OpKind::Mkdir,
                        cause,
                    })?;
                self.meta_op(rank, &name, 1.2);
            }
            Op::Rmdir { path } => {
                let name = self.resolve(path);
                self.world
                    .namespace
                    .rmdir(&name)
                    .map_err(|cause| SimError::Fs {
                        rank,
                        op: OpKind::Rmdir,
                        cause,
                    })?;
                self.meta_op(rank, &name, 1.0);
            }
            Op::Open { path, mode, hint } => {
                let name = self.resolve(path);
                let mut cost = 1.0;
                let exists = self.world.namespace.file(&name).is_some();
                match (exists, mode) {
                    (false, OpenMode::Write) => {
                        self.world
                            .namespace
                            .create(&name, hint, self.world.now.nanos())
                            .map_err(|cause| SimError::Fs {
                                rank,
                                op: OpKind::Open,
                                cause,
                            })?;
                        cost = 1.3; // create + layout allocation
                    }
                    (false, _) => {
                        return Err(SimError::Fs {
                            rank,
                            op: OpKind::Open,
                            cause: crate::pfs::FsError::NotFound(name),
                        });
                    }
                    (true, _) => {}
                }
                // Shared-file tracking for the range-lock model.
                match self.world.shared_files.get(&name) {
                    None => {
                        self.world.shared_files.insert(name.clone(), rank);
                    }
                    Some(first) if *first != rank => {
                        self.world.shared_flag.insert(name.clone());
                    }
                    Some(_) => {}
                }
                self.meta_op(rank, &name, cost);
            }
            Op::Close { path } => {
                let name = self.resolve(path);
                self.meta_op(rank, &name, 0.5);
            }
            Op::Stat { path } => {
                let name = self.resolve(path);
                if self.world.namespace.file(&name).is_none() && !self.world.namespace.is_dir(&name)
                {
                    return Err(SimError::Fs {
                        rank,
                        op: OpKind::Stat,
                        cause: crate::pfs::FsError::NotFound(name),
                    });
                }
                self.meta_op(rank, &name, 0.7);
            }
            Op::Unlink { path } => {
                let name = self.resolve(path);
                self.world
                    .namespace
                    .unlink(&name)
                    .map_err(|cause| SimError::Fs {
                        rank,
                        op: OpKind::Unlink,
                        cause,
                    })?;
                self.world.dirty.remove(&name);
                self.world.file_lock_busy.remove(&name);
                self.meta_op(rank, &name, 1.1);
            }
            Op::Readdir { path } => {
                let name = self.resolve(path);
                let entries = self.world.namespace.dir_entries(&name);
                // One MDS request per 64 directory entries.
                let cost = 1.0 + (entries as f64 / 64.0);
                self.meta_op(rank, &name, cost);
            }
            Op::Write { path, offset, len } => {
                self.data_op(rank, node, path, offset, len, true)?;
            }
            Op::Read { path, offset, len } => {
                self.data_op(rank, node, path, offset, len, false)?;
            }
            Op::Fsync { path } => {
                let name = self.resolve(path);
                let overhead = SimDuration(self.world.system.pfs.target_op_overhead_ns);
                let targets = self.world.dirty.remove(&name).unwrap_or_default();
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
                let members = self.scripts.group_size(group, self.layout.np);
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
                    self.mailbox
                        .delivered
                        .entry((to, rank, tag))
                        .or_default()
                        .push_back(self.world.now + dur + latency);
                    self.try_release_recv(to, rank, tag, self.world.now + dur + latency);
                } else {
                    let resources = vec![
                        self.res_nic(node),
                        self.res_fabric(),
                        self.res_nic(dst_node),
                    ];
                    self.ranks[rank as usize] = RankState::DataWait { outstanding: 1 };
                    self.schedule(
                        self.world.now + latency,
                        Event::FlowStart(PendingFlow {
                            resources,
                            bytes: bytes as f64,
                            outcome: FlowOutcome::Message {
                                from: rank,
                                to,
                                tag,
                            },
                        }),
                    );
                }
            }
            Op::Recv { from, tag } => {
                let key = (rank, from, tag);
                let ready = self
                    .mailbox
                    .delivered
                    .get_mut(&key)
                    .and_then(VecDeque::pop_front);
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

    /// The name an op's path id stands for (one resolution per op).
    fn resolve(&mut self, path: PathId) -> String {
        self.stats.paths_resolved += 1;
        self.scripts.path(path).to_owned()
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
        let name = self.resolve(path);
        let kind = if is_write {
            OpKind::Write
        } else {
            OpKind::Read
        };
        let latency = SimDuration(self.world.system.cluster.network_latency_ns);
        let meta = self
            .world
            .namespace
            .file(&name)
            .ok_or_else(|| SimError::Fs {
                rank,
                op: kind,
                cause: crate::pfs::FsError::NotFound(name.clone()),
            })?
            .clone();

        if !is_write {
            // Page-cache check: this node previously wrote/read the range.
            let cache = &mut self.world.cache[node as usize];
            if cache.covers(&name, offset, offset + len) {
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
        let shared = self.world.shared_flag.contains(&name);
        let unaligned = shared && meta.is_unaligned(offset, len);
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
            let lock = self
                .world
                .file_lock_busy
                .entry(name.clone())
                .or_insert(SimTime::ZERO);
            let granted = (*lock).max(earliest_start);
            *lock = granted + SimDuration(overhead as u64);
            earliest_start = granted;
        }

        let outstanding = segments.len() as u32;
        self.ranks[rank as usize] = RankState::DataWait { outstanding };

        for (target, bytes) in segments {
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
            let resources = vec![self.res_nic(node), self.res_fabric(), target_res];
            self.schedule(
                slot,
                Event::FlowStart(PendingFlow {
                    resources,
                    bytes: bytes as f64,
                    outcome: FlowOutcome::OpPart(rank),
                }),
            );
        }

        if is_write {
            self.world
                .namespace
                .note_write(&name, offset, len)
                .map_err(|cause| SimError::Fs {
                    rank,
                    op: kind,
                    cause,
                })?;
            let dirty = self.world.dirty.entry(name.clone()).or_default();
            for (target, _) in meta.layout(offset, len) {
                dirty.insert(target);
            }
            // Cache coherence: a write invalidates every *other* node's
            // cached copy of the file (close-to-open consistency on the
            // parallel FS revalidates pages against the new mtime).
            for (n, cache) in self.world.cache.iter_mut().enumerate() {
                if n != node as usize {
                    cache.remove(&name);
                }
            }
            let limit = (self.world.system.cluster.mem_per_node as f64 * 0.7) as u64;
            self.world.cache[node as usize].insert(&name, offset, offset + len, limit);
        } else {
            // Reading populates the cache too.
            let limit = (self.world.system.cluster.mem_per_node as f64 * 0.7) as u64;
            self.world.cache[node as usize].insert(&name, offset, offset + len, limit);
        }
        Ok(())
    }

    /// Queue a metadata operation at the responsible MDS.
    fn meta_op(&mut self, rank: Rank, path: &str, cost: f64) {
        let mds = self.world.namespace.mds_for(path) as usize;
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

    fn finish_op(
        &mut self,
        rank: Rank,
        path: Option<PathId>,
        offset: u64,
        len: u64,
        maybe_cached: bool,
    ) -> Result<(), SimError> {
        let pc = self.pcs[rank as usize];
        let op = &self.scripts.script(rank)[pc];
        let kind = op.kind();
        // A read that finished via timer (no flows) was a cache hit.
        let cache_hit = maybe_cached
            && kind == OpKind::Read
            && matches!(self.ranks[rank as usize], RankState::TimerWait);
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
            if let Some(queue) = self.mailbox.delivered.get_mut(&(to, from, tag)) {
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
            let mut due: Vec<usize> = self
                .flows
                .iter()
                .enumerate()
                .filter(|(_, f)| f.remaining <= FLOW_EPS)
                .map(|(i, _)| i)
                .collect();
            if due.is_empty() {
                return Ok(());
            }
            // Complete in flow-id order for determinism.
            due.sort_by_key(|i| self.flows[*i].id);
            // Remove from the active set first (indices shift, so collect
            // the outcomes up front).
            let mut outcomes = Vec::with_capacity(due.len());
            for &i in &due {
                outcomes.push(self.flows[i].outcome);
            }
            let mut removed = 0usize;
            let due_set: BTreeSet<u64> = due.iter().map(|i| self.flows[*i].id).collect();
            self.flows.retain(|f| {
                let keep = !due_set.contains(&f.id);
                if !keep {
                    removed += 1;
                }
                keep
            });
            debug_assert_eq!(removed, due_set.len());
            self.flows_dirty = true;
            for outcome in outcomes {
                match outcome {
                    FlowOutcome::OpPart(rank) => {
                        if let RankState::DataWait { outstanding } = &mut self.ranks[rank as usize]
                        {
                            *outstanding -= 1;
                            if *outstanding == 0 {
                                let (path, offset, len, _) = self.current_data(rank);
                                // Data op completion; not a cache hit.
                                self.ranks[rank as usize] = RankState::Ready;
                                self.record_and_advance(rank, path, offset, len)?;
                            }
                        }
                    }
                    FlowOutcome::Message { from, to, tag } => {
                        // Sender's Send op completes.
                        if let RankState::DataWait { outstanding } = &mut self.ranks[from as usize]
                        {
                            *outstanding -= 1;
                            if *outstanding == 0 {
                                let (path, offset, len, _) = self.current_data(from);
                                self.ranks[from as usize] = RankState::Ready;
                                self.record_and_advance(from, path, offset, len)?;
                            }
                        }
                        self.mailbox
                            .delivered
                            .entry((to, from, tag))
                            .or_default()
                            .push_back(self.world.now);
                        self.try_release_recv(to, from, tag, self.world.now);
                    }
                }
            }
        }
    }

    fn record_and_advance(
        &mut self,
        rank: Rank,
        path: Option<PathId>,
        offset: u64,
        len: u64,
    ) -> Result<(), SimError> {
        let pc = self.pcs[rank as usize];
        let kind = self.scripts.script(rank)[pc].kind();
        self.records.push(OpRecord {
            rank,
            kind,
            path,
            offset,
            len,
            start: self.op_start[rank as usize],
            end: self.world.now,
            cache_hit: false,
        });
        self.pcs[rank as usize] += 1;
        self.issue_next(rank)
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
    // [nodes+1..nodes+1+targets) storage targets.
    fn res_nic(&self, node: u32) -> u32 {
        node
    }

    fn res_fabric(&self) -> u32 {
        self.world.system.cluster.nodes
    }

    fn res_target(&self, target: u32) -> u32 {
        self.world.system.cluster.nodes + 1 + target
    }

    fn res_target_read(&self, target: u32) -> u32 {
        self.world.system.cluster.nodes + 1 + self.world.system.pfs.storage_targets + target
    }

    fn capacities(&self) -> Vec<f64> {
        let cluster = &self.world.system.cluster;
        let pfs = &self.world.system.pfs;
        let now = self.world.now;
        let nodes = cluster.nodes as usize;
        let targets = pfs.storage_targets as usize;
        let mut caps = Vec::with_capacity(nodes + 1 + targets);
        for n in 0..nodes {
            let f = self
                .world
                .faults
                .factor(FaultTarget::NodeNic(n as u32), now);
            caps.push(cluster.nic_bandwidth * f);
        }
        let fabric_fault = self.world.faults.factor(FaultTarget::Fabric, now);
        caps.push(cluster.fabric_bandwidth * fabric_fault * self.world.fabric_noise);
        for t in 0..targets {
            let f = self
                .world
                .faults
                .factor(FaultTarget::StorageTarget(t as u32), now);
            caps.push(pfs.target_bandwidth * f * self.world.target_noise[t]);
        }
        // Read-path (server cache) resources: per-target, fault-affected,
        // with only mild noise (reads are far stabler than disk writes).
        for t in 0..targets {
            let f = self
                .world
                .faults
                .factor(FaultTarget::StorageTarget(t as u32), now);
            caps.push(pfs.target_read_bandwidth * f * self.world.target_read_noise[t]);
        }
        caps
    }

    fn recompute_rates(&mut self) {
        self.flows_dirty = false;
        self.flow_gen += 1;
        self.stats.rate_recomputes += 1;
        if self.flows.is_empty() {
            return;
        }
        let caps = self.capacities();
        self.stats.rate_solves += 1;
        self.stats.flows_solved += self.flows.len() as u64;
        self.stats.resources_solved += caps.len() as u64;
        let paths: Vec<FlowPath> = self.flows.iter().map(|f| f.path.clone()).collect();
        let rates = solve_rates(&caps, &paths);
        let mut earliest = f64::INFINITY;
        for (flow, rate) in self.flows.iter_mut().zip(rates) {
            flow.rate = rate;
            if rate > 0.0 && rate.is_finite() {
                earliest = earliest.min((flow.remaining - FLOW_EPS).max(0.0) / rate);
            } else if rate.is_infinite() {
                earliest = 0.0;
            }
        }
        if earliest.is_finite() {
            let due = self.world.now + SimDuration::from_secs_f64(earliest.max(1e-9));
            self.schedule(due, Event::FlowsDue(self.flow_gen));
        }
    }
}

impl NodeCache {
    /// Is the byte range `[start, end)` fully cached?
    fn covers(&self, file: &str, start: u64, end: u64) -> bool {
        if end <= start {
            return true;
        }
        self.files
            .get(file)
            .is_some_and(|ranges| ranges.iter().any(|(s, e)| *s <= start && end <= *e))
    }

    fn remove(&mut self, file: &str) {
        if let Some(ranges) = self.files.remove(file) {
            self.total -= ranges.iter().map(|(s, e)| e - s).sum::<u64>();
            self.order.retain(|f| f != file);
        }
    }

    /// Cache the byte range `[start, end)` of a file, coalescing with
    /// existing ranges, and evict whole files (LRU by first touch) while
    /// over `limit`.
    fn insert(&mut self, file: &str, start: u64, end: u64, limit: u64) {
        if end <= start {
            return;
        }
        if !self.files.contains_key(file) {
            self.order.push_back(file.to_owned());
            self.files.insert(file.to_owned(), Vec::new());
        }
        let ranges = self.files.get_mut(file).expect("just inserted");
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
        let mut sum = first;
        sum += second;
        assert_eq!(sum, total);
        assert_eq!(total.since(&first), second);
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
