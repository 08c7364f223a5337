//! Execution records and phase results.
//!
//! Every scripted op that executes produces an [`OpRecord`]; benchmark
//! drivers turn record streams into their native output formats, and the
//! Darshan writer turns them into characterization logs. The record is the
//! simulator's equivalent of "what actually happened on the system".

use crate::script::{OpKind, PathId, PathTable, Rank};
use crate::time::{SimDuration, SimTime};
use std::sync::Arc;

/// One completed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Executing rank.
    pub rank: Rank,
    /// Operation class.
    pub kind: OpKind,
    /// Target path (meaningless for barriers/compute/send/recv).
    pub path: Option<PathId>,
    /// Byte offset for data ops.
    pub offset: u64,
    /// Byte count for data ops and messages.
    pub len: u64,
    /// When the rank issued the op.
    pub start: SimTime,
    /// When the op completed.
    pub end: SimTime,
    /// Whether a read was served from the client page cache.
    pub cache_hit: bool,
}

impl OpRecord {
    /// Duration of the op.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// What the engine itself did to execute a phase — or, on
/// [`crate::engine::World::stats`], every phase so far. Simulated numbers
/// say what the modelled system did; these say what it cost the host to
/// find out, so an engine change can be read ("same events, fewer
/// resources per solve") instead of guessed at from wall time. All
/// counts are deterministic per seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// `RankReady` events popped (rank starts and barrier releases).
    pub rank_ready: u64,
    /// `OpFinish` events popped (metadata, compute, cache-hit and
    /// intra-node message completions).
    pub op_finish: u64,
    /// `FlowStart` events popped (one per stripe piece or message).
    pub flow_start: u64,
    /// `FlowsDue` timers popped, stale ones included: a stale timer
    /// still advances the flows, so it is part of the arithmetic.
    pub flows_due: u64,
    /// `NoiseTick` events popped.
    pub noise_tick: u64,
    /// `FaultEdge` events popped.
    pub fault_edge: u64,
    /// Times the flow rates were recomputed, with or without a flow in
    /// flight.
    pub rate_recomputes: u64,
    /// Recomputations that reached the max–min solver (≥ 1 flow).
    pub rate_solves: u64,
    /// Σ flows in flight over solver calls.
    pub flows_solved: u64,
    /// Σ resources the solver filled over, over solver calls.
    pub resources_solved: u64,
    /// Path names resolved against the namespace: each name of a run
    /// once, as long as every set extends the table the world last ran.
    pub paths_resolved: u64,
}

impl EngineStats {
    /// Events popped, all kinds.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.rank_ready
            + self.op_finish
            + self.flow_start
            + self.flows_due
            + self.noise_tick
            + self.fault_edge
    }

    /// What happened after `earlier` was read from the same world.
    #[must_use]
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            rank_ready: self.rank_ready - earlier.rank_ready,
            op_finish: self.op_finish - earlier.op_finish,
            flow_start: self.flow_start - earlier.flow_start,
            flows_due: self.flows_due - earlier.flows_due,
            noise_tick: self.noise_tick - earlier.noise_tick,
            fault_edge: self.fault_edge - earlier.fault_edge,
            rate_recomputes: self.rate_recomputes - earlier.rate_recomputes,
            rate_solves: self.rate_solves - earlier.rate_solves,
            flows_solved: self.flows_solved - earlier.flows_solved,
            resources_solved: self.resources_solved - earlier.resources_solved,
            paths_resolved: self.paths_resolved - earlier.paths_resolved,
        }
    }
}

/// Result of executing one script set ("phase") against the world.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Completed op records, in completion order.
    pub records: Vec<OpRecord>,
    /// Simulated time when the phase started.
    pub started: SimTime,
    /// Simulated time when the last rank finished.
    pub finished: SimTime,
    /// Interned path names (index = `PathId`): the run's table as this
    /// phase left it, shared, so it holds earlier phases' names too.
    pub paths: Arc<PathTable>,
    /// Data ops skipped because the stonewall deadline expired.
    pub stonewalled_ops: u64,
    /// What executing this phase cost the engine.
    pub stats: EngineStats,
}

impl PhaseResult {
    /// Wall time of the phase.
    #[must_use]
    pub fn wall(&self) -> SimDuration {
        self.finished - self.started
    }

    /// Total bytes moved by ops of `kind` (write/read/send).
    #[must_use]
    pub fn bytes(&self, kind: OpKind) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.len)
            .sum()
    }

    /// Number of ops of `kind`.
    #[must_use]
    pub fn ops(&self, kind: OpKind) -> u64 {
        self.records.iter().filter(|r| r.kind == kind).count() as u64
    }

    /// First issue time among ops of `kind`, if any.
    #[must_use]
    pub fn first_start(&self, kind: OpKind) -> Option<SimTime> {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.start)
            .min()
    }

    /// Last completion among ops of `kind`, if any.
    #[must_use]
    pub fn last_end(&self, kind: OpKind) -> Option<SimTime> {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.end)
            .max()
    }

    /// Aggregate bandwidth of `kind` over the span from first issue to
    /// last completion, in MiB/s — the way IOR computes its bandwidth
    /// column.
    #[must_use]
    pub fn bandwidth_mib(&self, kind: OpKind) -> f64 {
        let (Some(first), Some(last)) = (self.first_start(kind), self.last_end(kind)) else {
            return 0.0;
        };
        iokc_util::units::mib_per_sec(self.bytes(kind), (last - first).nanos())
    }

    /// Aggregate op rate of `kind` over its active span, ops/s.
    #[must_use]
    pub fn op_rate(&self, kind: OpKind) -> f64 {
        let (Some(first), Some(last)) = (self.first_start(kind), self.last_end(kind)) else {
            return 0.0;
        };
        iokc_util::units::ops_per_sec(self.ops(kind), (last - first).nanos())
    }

    /// Per-op durations in seconds for `kind` (latency statistics).
    #[must_use]
    pub fn latencies_secs(&self, kind: OpKind) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.duration().as_secs_f64())
            .collect()
    }

    /// First-issue to last-completion span for `kind`, seconds.
    #[must_use]
    pub fn span_secs(&self, kind: OpKind) -> f64 {
        match (self.first_start(kind), self.last_end(kind)) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Records touching a specific path.
    pub fn records_for_path<'a>(
        &'a self,
        path: &'a str,
    ) -> impl Iterator<Item = &'a OpRecord> + 'a {
        let id = self.paths.iter().position(|p| p == path).map(|i| i as u32);
        self.records
            .iter()
            .filter(move |r| r.path.map(|p| Some(p.0) == id).unwrap_or(false))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::script::OpKind;
    use iokc_util::units::MIB;

    fn rec(kind: OpKind, len: u64, start_ms: u64, end_ms: u64) -> OpRecord {
        OpRecord {
            rank: 0,
            kind,
            path: Some(PathId(0)),
            offset: 0,
            len,
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            cache_hit: false,
        }
    }

    fn phase(records: Vec<OpRecord>) -> PhaseResult {
        PhaseResult {
            records,
            started: SimTime::ZERO,
            finished: SimTime::from_secs(1),
            paths: {
                let mut set = crate::script::ScriptSet::new(1);
                set.intern("/scratch/f");
                Arc::clone(set.table())
            },
            stonewalled_ops: 0,
            stats: EngineStats::default(),
        }
    }

    #[test]
    fn aggregates() {
        let p = phase(vec![
            rec(OpKind::Write, 100 * MIB, 0, 500),
            rec(OpKind::Write, 100 * MIB, 100, 1000),
            rec(OpKind::Read, 10 * MIB, 0, 100),
        ]);
        assert_eq!(p.bytes(OpKind::Write), 200 * MIB);
        assert_eq!(p.ops(OpKind::Write), 2);
        // 200 MiB over 1 s span = 200 MiB/s.
        assert!((p.bandwidth_mib(OpKind::Write) - 200.0).abs() < 1e-9);
        assert!((p.op_rate(OpKind::Write) - 2.0).abs() < 1e-9);
        assert_eq!(p.latencies_secs(OpKind::Write).len(), 2);
        assert!((p.span_secs(OpKind::Write) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_kind_yields_zeros() {
        let p = phase(vec![]);
        assert_eq!(p.bandwidth_mib(OpKind::Read), 0.0);
        assert_eq!(p.op_rate(OpKind::Stat), 0.0);
        assert!(p.first_start(OpKind::Write).is_none());
    }

    #[test]
    fn wall_and_path_filter() {
        let p = phase(vec![rec(OpKind::Write, 1, 0, 1)]);
        assert_eq!(p.wall(), SimDuration::from_secs(1));
        assert_eq!(p.records_for_path("/scratch/f").count(), 1);
        assert_eq!(p.records_for_path("/other").count(), 0);
    }
}
