//! Time sources for spans, and the cooperative cancellation token.
//!
//! Spans need a clock that is *monotonic* (so durations never go
//! negative) and, for simulated runs, *virtual* (so a cycle over the
//! simulator reports the simulator's idea of elapsed time, not host
//! scheduling noise). [`Clock`] is that choice point: wall clocks stamp
//! from [`std::time::Instant`]; virtual clocks read a shared atomic
//! counter that generators advance by their simulated elapsed time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared virtual clock: a monotonically advancing nanosecond counter.
///
/// Clones share the same underlying counter, so a clock handed to a
/// [`crate::Recorder`] and to a simulator-backed generator observe the
/// same timeline.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    nanos: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    #[must_use]
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// Current virtual time in nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }

    /// Advance the clock by `delta_ns` nanoseconds. Time only moves
    /// forward; there is no way to rewind.
    pub fn advance_ns(&self, delta_ns: u64) {
        self.nanos.fetch_add(delta_ns, Ordering::SeqCst);
    }

    /// Advance the clock by `delta_ms` milliseconds.
    pub fn advance_ms(&self, delta_ms: u64) {
        self.advance_ns(delta_ms.saturating_mul(1_000_000));
    }
}

/// The time source a [`crate::Recorder`] stamps events from.
#[derive(Debug, Clone)]
pub enum Clock {
    /// Monotonic wall time, measured from the moment the clock was made.
    Wall {
        /// Epoch of this clock; timestamps are nanoseconds since it.
        base: Instant,
    },
    /// A shared virtual clock advanced explicitly (by the simulator, by
    /// retry backoff, by tests).
    Virtual(VirtualClock),
}

impl Clock {
    /// A monotonic wall clock starting now.
    #[must_use]
    pub fn wall() -> Clock {
        Clock::Wall {
            base: Instant::now(),
        }
    }

    /// Nanoseconds since this clock's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Wall { base } => u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Clock::Virtual(v) => v.now_ns(),
        }
    }

    /// Advance a virtual clock; a no-op on wall clocks (wall time cannot
    /// be pushed around).
    pub fn advance_ns(&self, delta_ns: u64) {
        if let Clock::Virtual(v) = self {
            v.advance_ns(delta_ns);
        }
    }
}

/// A cooperative cancellation token.
///
/// Clones share state: cancelling any clone cancels them all. Modules
/// poll [`CancelToken::is_cancelled`] at convenient points (between
/// iterations, between workpackages) and wind down cleanly.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; there is no un-cancel.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// A cancellation token with an optional wall-clock budget attached.
///
/// This is the unit of *deadline propagation*: a server hands each
/// request a `DeadlineToken` built from its `--request-deadline-ms`
/// budget, and every long-running loop downstream (store query scans,
/// render paths) polls [`DeadlineToken::should_stop`] instead of the
/// bare [`CancelToken`]. The token trips either when the shared cancel
/// flag is raised (shutdown) or when the budget is exhausted (overload),
/// and the two causes are distinguishable via [`DeadlineToken::expired`].
#[derive(Debug, Clone)]
pub struct DeadlineToken {
    cancel: CancelToken,
    deadline: Option<Instant>,
}

impl Default for DeadlineToken {
    fn default() -> DeadlineToken {
        DeadlineToken::unbounded()
    }
}

impl DeadlineToken {
    /// A token that never stops on its own: no budget, and a private
    /// cancel flag nothing else holds. The argument every deadline-taking
    /// read API accepts when the caller has no deadline to impose.
    #[must_use]
    pub fn unbounded() -> DeadlineToken {
        DeadlineToken::cancellable(CancelToken::new())
    }

    /// A token with no time budget: it only stops when `cancel` fires.
    #[must_use]
    pub fn cancellable(cancel: CancelToken) -> DeadlineToken {
        DeadlineToken {
            cancel,
            deadline: None,
        }
    }

    /// A token whose budget runs out `budget` from now.
    ///
    /// A zero budget produces a token that is expired from birth, which
    /// is occasionally useful in tests to exercise timeout paths
    /// deterministically.
    #[must_use]
    pub fn with_budget(cancel: CancelToken, budget: Duration) -> DeadlineToken {
        DeadlineToken {
            cancel,
            deadline: Some(Instant::now() + budget),
        }
    }

    /// The underlying shared cancellation token.
    #[must_use]
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Has the wall-clock budget run out? (False for unbounded tokens.)
    #[must_use]
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Should work stop now, for either reason (cancelled or expired)?
    #[must_use]
    pub fn should_stop(&self) -> bool {
        self.cancel.is_cancelled() || self.expired()
    }

    /// Time left in the budget; `None` when unbounded.
    ///
    /// Saturates at zero once expired, so callers can feed the result
    /// straight into socket timeouts without sign checks.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_and_is_shared() {
        let clock = VirtualClock::new();
        let alias = clock.clone();
        assert_eq!(clock.now_ns(), 0);
        clock.advance_ns(5);
        alias.advance_ms(1);
        assert_eq!(clock.now_ns(), 1_000_005);
        assert_eq!(alias.now_ns(), 1_000_005);
    }

    #[test]
    fn wall_clock_is_monotonic_and_ignores_advance() {
        let clock = Clock::wall();
        let a = clock.now_ns();
        clock.advance_ns(1_000_000_000_000);
        let b = clock.now_ns();
        assert!(b >= a);
        // The advance did not leap the clock forward by the requested
        // twenty minutes.
        assert!(b - a < 10_000_000_000);
    }

    #[test]
    fn cancel_token_shares_state_across_clones() {
        let token = CancelToken::new();
        let alias = token.clone();
        assert!(!alias.is_cancelled());
        token.cancel();
        assert!(alias.is_cancelled());
    }

    #[test]
    fn unbounded_deadline_only_stops_on_cancel() {
        let cancel = CancelToken::new();
        let token = DeadlineToken::cancellable(cancel.clone());
        assert!(!token.should_stop());
        assert!(!token.expired());
        assert!(token.remaining().is_none());
        cancel.cancel();
        assert!(token.should_stop());
        assert!(!token.expired());
        // The argless form never stops: nothing holds its cancel flag.
        assert!(!DeadlineToken::unbounded().should_stop());
    }

    #[test]
    fn zero_budget_is_expired_from_birth() {
        let token = DeadlineToken::with_budget(CancelToken::new(), Duration::ZERO);
        assert!(token.expired());
        assert!(token.should_stop());
        assert_eq!(token.remaining(), Some(Duration::ZERO));
        assert!(!token.cancel_token().is_cancelled());
    }

    #[test]
    fn generous_budget_is_not_expired_immediately() {
        let token = DeadlineToken::with_budget(CancelToken::new(), Duration::from_secs(3600));
        assert!(!token.expired());
        assert!(!token.should_stop());
        assert!(token.remaining().unwrap() > Duration::from_secs(3500));
    }
}
