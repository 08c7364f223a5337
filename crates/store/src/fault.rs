//! Seeded fault injection: one plan for every seam that fakes a failing
//! device — the disk under the store ([`crate::vfs::FaultVfs`], faults
//! of kind [`crate::vfs::DiskFault`]) and the socket under explorerd
//! (`FaultTransport`, faults of kind `NetFault`).
//!
//! A plan is a set of `(index, kind)` points. The seam numbers its
//! operations and asks [`FaultPlan::fires`] at each one, kind by kind in
//! its own order of precedence. Keying by position makes a plan
//! deterministic: the same plan over the same workload injects the same
//! faults at the same instants, every run.

use iokc_obs::Counter;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A reproducible fault schedule, and the tally of the faults it fired.
#[derive(Debug)]
pub struct FaultPlan<K> {
    points: BTreeSet<(u64, K)>,
    tally: Mutex<Tally>,
}

/// Faults fired so far, and the observability counter they mirror into.
#[derive(Debug, Default)]
struct Tally {
    fired: u64,
    counter: Option<Counter>,
}

impl<K: Copy + Ord> FaultPlan<K> {
    /// One fault of `kind` at index `index`.
    #[must_use]
    pub fn at(index: u64, kind: K) -> FaultPlan<K> {
        FaultPlan::from_iter([(index, kind)])
    }

    /// A seeded chaos plan: `faults` distinct points over the indices
    /// `0..horizon`, each of one of `kinds`. The points come from an
    /// xorshift64* stream that depends on the seed alone (and on the
    /// order of `kinds`), so a failing seed prints in one number and
    /// replays exactly.
    #[must_use]
    pub fn seeded(seed: u64, horizon: u64, faults: usize, kinds: &[K]) -> FaultPlan<K> {
        let mut state = seed | 1;
        let mut next = move || {
            // xorshift64* — deterministic, dependency-free.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut points = BTreeSet::new();
        while points.len() < faults && horizon > 0 && !kinds.is_empty() {
            let index = next() % horizon;
            points.insert((index, kinds[(next() % kinds.len() as u64) as usize]));
        }
        FaultPlan::from_iter(points)
    }

    /// Whether the plan has `kind` at `index`; a fault that fires is
    /// tallied. An empty plan answers without allocating.
    pub fn fires(&self, index: u64, kind: K) -> bool {
        let hit = self.points.contains(&(index, kind));
        if hit {
            let mut tally = self.tally();
            tally.fired += 1;
            if let Some(counter) = &tally.counter {
                counter.inc();
            }
        }
        hit
    }

    /// The planned points, in `(index, kind)` order.
    pub fn points(&self) -> impl Iterator<Item = (u64, K)> + '_ {
        self.points.iter().copied()
    }

    /// How many faults have fired so far.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.tally().fired
    }

    /// Mirror the tally into `counter` from now on. Faults fired before
    /// are backfilled, up to what `counter` already shows, so attaching
    /// the same counter again adds nothing.
    pub fn attach_counter(&self, counter: Counter) {
        let mut tally = self.tally();
        counter.add(tally.fired.saturating_sub(counter.get()));
        tally.counter = Some(counter);
    }

    fn tally(&self) -> MutexGuard<'_, Tally> {
        self.tally.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: Ord> FromIterator<(u64, K)> for FaultPlan<K> {
    fn from_iter<I: IntoIterator<Item = (u64, K)>>(points: I) -> FaultPlan<K> {
        FaultPlan {
            points: points.into_iter().collect(),
            tally: Mutex::default(),
        }
    }
}

/// The empty plan: the seam behaves like the real device.
impl<K: Ord> Default for FaultPlan<K> {
    fn default() -> FaultPlan<K> {
        FaultPlan::from_iter([])
    }
}
