//! The per-invocation phase context, and the cycle's observability handle.
//!
//! [`PhaseCtx`] is what every phase-trait method receives: which phase and
//! module is running, which attempt this is under the retry policy, the
//! module's open span, and handles to the shared [`Recorder`] (metrics,
//! events, clock) and [`CancelToken`]. It replaces the zero-context
//! signatures the traits used to have — a module no longer needs side
//! channels to report progress, time itself faithfully under the
//! simulator's virtual clock, or notice that the run is being cancelled.
//!
//! [`Observability`] bundles the recorder and cancel token a
//! [`crate::KnowledgeCycle`] runs under. The default is disabled
//! observability: wall clock, events dropped, metrics still counted —
//! cheap enough to be always-on.

use crate::phases::{CycleError, PhaseKind};
use iokc_obs::{CancelToken, Counter, DeadlineToken, Recorder, SpanId};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The recorder + cancellation pair a cycle (or campaign) runs under.
#[derive(Debug, Clone, Default)]
pub struct Observability {
    recorder: Arc<Recorder>,
    cancel: CancelToken,
}

impl Observability {
    /// Observability with the given recorder and a fresh cancel token.
    #[must_use]
    pub fn new(recorder: Recorder) -> Observability {
        Observability {
            recorder: Arc::new(recorder),
            cancel: CancelToken::new(),
        }
    }

    /// Disabled observability: wall clock, no event sink, metrics only.
    #[must_use]
    pub fn disabled() -> Observability {
        Observability::default()
    }

    /// The shared recorder.
    #[must_use]
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The cancel token; cancel it to wind the cycle down cooperatively.
    #[must_use]
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The recorder's metrics registry.
    #[must_use]
    pub fn metrics(&self) -> Arc<iokc_obs::MetricsRegistry> {
        self.recorder.metrics()
    }
}

/// The context one module invocation runs in.
///
/// A fresh context is built per attempt, so [`PhaseCtx::attempt`] always
/// names the current try. Contexts are cheap: a couple of `Arc` clones
/// and a small struct.
pub struct PhaseCtx {
    phase: PhaseKind,
    module: String,
    attempt: u32,
    max_attempts: u32,
    span: SpanId,
    recorder: Arc<Recorder>,
    deadline: DeadlineToken,
}

impl fmt::Debug for PhaseCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhaseCtx")
            .field("phase", &self.phase)
            .field("module", &self.module)
            .field("attempt", &self.attempt)
            .field("span", &self.span)
            .finish_non_exhaustive()
    }
}

/// The shared recorder behind detached contexts (tests, direct module
/// invocations outside a cycle).
fn null_recorder() -> Arc<Recorder> {
    static NULL: OnceLock<Arc<Recorder>> = OnceLock::new();
    Arc::clone(NULL.get_or_init(|| Arc::new(Recorder::disabled())))
}

impl PhaseCtx {
    /// The context the orchestrator builds for one attempt of one module
    /// invocation.
    #[must_use]
    pub(crate) fn for_attempt(
        phase: PhaseKind,
        module: &str,
        attempt: u32,
        max_attempts: u32,
        span: SpanId,
        recorder: &Arc<Recorder>,
        cancel: &CancelToken,
    ) -> PhaseCtx {
        PhaseCtx {
            phase,
            module: module.to_owned(),
            attempt,
            max_attempts,
            span,
            recorder: Arc::clone(recorder),
            deadline: DeadlineToken::cancellable(cancel.clone()),
        }
    }

    /// A standalone context, for invoking a phase module outside a
    /// running cycle (tests, CLI one-shot commands). Events are dropped;
    /// metrics go to a process-wide null recorder.
    #[must_use]
    pub fn detached(phase: PhaseKind, module: &str) -> PhaseCtx {
        let recorder = null_recorder();
        let span = recorder.start_span(module, None, Some(phase.as_str()), Some(module));
        PhaseCtx {
            phase,
            module: module.to_owned(),
            attempt: 1,
            max_attempts: 1,
            span: span.id,
            recorder,
            deadline: DeadlineToken::unbounded(),
        }
    }

    /// The same context with a wall-clock budget attached: downstream
    /// polls of [`PhaseCtx::is_cancelled`] (and the deadline token itself)
    /// start tripping once `budget` has elapsed, in addition to explicit
    /// cancellation. Servers use this to carry per-request deadlines into
    /// phase and store work.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> PhaseCtx {
        self.deadline = DeadlineToken::with_budget(self.deadline.cancel_token().clone(), budget);
        self
    }

    /// The deadline token this invocation runs under — pass it to
    /// deadline-aware callees (store query scans) so they stop when the
    /// budget runs out.
    #[must_use]
    pub fn deadline(&self) -> &DeadlineToken {
        &self.deadline
    }

    /// Which phase is running.
    #[must_use]
    pub fn phase(&self) -> PhaseKind {
        self.phase
    }

    /// Which module is running.
    #[must_use]
    pub fn module(&self) -> &str {
        &self.module
    }

    /// Which attempt this is, starting at 1.
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The attempt budget the retry policy grants this invocation.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The module invocation's open span — pass as the parent when
    /// opening sub-spans on the recorder.
    #[must_use]
    pub fn span(&self) -> SpanId {
        self.span
    }

    /// The shared recorder (clock, events, metrics).
    #[must_use]
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The counter named `name` from the cycle's metrics registry.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.recorder.counter(name)
    }

    /// Record one histogram observation in the cycle's metrics registry.
    pub fn observe(&self, name: &str, value: f64) {
        self.recorder.observe(name, value);
    }

    /// Emit a log event attached to this module's span.
    pub fn log(&self, message: &str) {
        self.recorder.log(Some(self.span), message);
    }

    /// Should this invocation stop — because cancellation was requested
    /// or its deadline budget ran out? Long-running modules poll this at
    /// convenient points and return early.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.deadline.should_stop()
    }

    /// Advance the cycle's virtual clock by `delta_ns` simulated
    /// nanoseconds; a no-op under a wall clock. Simulator-backed modules
    /// call this so spans report simulated time.
    pub fn advance_virtual_ns(&self, delta_ns: u64) {
        self.recorder.advance_ns(delta_ns);
    }

    /// Advance the cycle's virtual clock by `delta_ms` simulated
    /// milliseconds; a no-op under a wall clock.
    pub fn advance_virtual_ms(&self, delta_ms: u64) {
        self.advance_virtual_ns(delta_ms.saturating_mul(1_000_000));
    }

    /// A transient error attributed to this phase and module.
    #[must_use]
    pub fn transient_error(&self, message: impl fmt::Display) -> CycleError {
        CycleError::transient(self.phase, &self.module, message)
    }

    /// A permanent error attributed to this phase and module.
    #[must_use]
    pub fn permanent_error(&self, message: impl fmt::Display) -> CycleError {
        CycleError::permanent(self.phase, &self.module, message)
    }

    /// A corruption error attributed to this phase and module.
    #[must_use]
    pub fn corrupt_error(&self, message: impl fmt::Display) -> CycleError {
        CycleError::corrupt(self.phase, &self.module, message)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::phases::ErrorClass;

    #[test]
    fn detached_context_reports_identity_and_builds_errors() {
        let ctx = PhaseCtx::detached(PhaseKind::Analysis, "variance");
        assert_eq!(ctx.phase(), PhaseKind::Analysis);
        assert_eq!(ctx.module(), "variance");
        assert_eq!(ctx.attempt(), 1);
        assert!(!ctx.is_cancelled());

        let e = ctx.transient_error("node lost");
        assert_eq!(e.class, ErrorClass::Transient);
        assert_eq!(e.module, "variance");
        assert_eq!(ctx.permanent_error("bad").class, ErrorClass::Permanent);
        assert_eq!(ctx.corrupt_error("torn").class, ErrorClass::Corrupt);
    }

    #[test]
    fn detached_contexts_log_and_count_without_panicking() {
        let ctx = PhaseCtx::detached(PhaseKind::Generation, "gen");
        ctx.log("hello");
        ctx.counter("runs").inc();
        ctx.observe("ms", 1.0);
        ctx.advance_virtual_ms(5); // wall clock: must be a no-op
    }

    #[test]
    fn deadline_budget_trips_is_cancelled() {
        let ctx = PhaseCtx::detached(PhaseKind::Analysis, "variance");
        assert!(!ctx.is_cancelled());
        assert!(ctx.deadline().remaining().is_none());
        let ctx = ctx.with_deadline(Duration::ZERO);
        assert!(ctx.is_cancelled(), "exhausted budget must read as stop");
        assert!(ctx.deadline().expired());
        assert!(!ctx.deadline().cancel_token().is_cancelled());

        let roomy = PhaseCtx::detached(PhaseKind::Analysis, "variance")
            .with_deadline(Duration::from_secs(3600));
        assert!(!roomy.is_cancelled());
        assert!(roomy.deadline().remaining().is_some());
    }
}
