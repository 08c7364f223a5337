//! The campaign executor: the one way a sweep runs.
//!
//! It expands a configuration into workpackages and runs them under a
//! supervised worker pool:
//!
//! * every outcome — done, failed, quarantined — is journaled **before**
//!   the executor acts on it ([`crate::campaign`]), so a killed campaign
//!   resumes from the journal, re-running only unfinished workpackages
//!   (claiming one is not journaled: in flight and never claimed resume
//!   alike);
//! * transient step failures are retried with the bounded, deterministic
//!   backoff of [`iokc_core::resilience::RetryPolicy`];
//! * repeatedly failing parameter combinations are quarantined instead
//!   of sinking the campaign; permanent failures with quarantine
//!   disabled trigger cooperative cancellation of all workers;
//! * each workpackage runs under a deadline measured in virtual time
//!   when the runner reports it (simulated worlds) and wall time
//!   otherwise;
//! * completed workpackages whose elapsed time exceeds the p95 of their
//!   completed peers are reported as stragglers.
//!
//! The journal goes through an [`iokc_store::Vfs`]: the real disk for a
//! campaign that must survive its process (`iokc sweep`), an in-memory
//! one for a quick study that leaves no file behind (`iokc jube`).

use crate::campaign::{config_fingerprint, open_journal, CampaignError, CampaignState, Record};
use crate::config::{substitute, JubeConfig};
use crate::sweep::{validate_combos, SweepError, Workpackage, Workspace};
use iokc_core::phases::{ErrorClass, PhaseKind};
use iokc_core::resilience::{retryable, RetryPolicy};
use iokc_obs::{Recorder, SpanHandle, SpanId, SpanStatus};
use iokc_store::journal::JournalWriter;
use iokc_store::Vfs;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Minimum completed peers before straggler detection has a meaningful
/// p95 to compare against.
const STRAGGLER_MIN_PEERS: usize = 8;

/// A successful step execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// Captured stdout.
    pub output: String,
    /// Virtual nanoseconds the step consumed in its simulated world
    /// (`None` when the runner has no virtual clock — the executor then
    /// falls back to wall time for deadlines and stragglers).
    pub virtual_ns: Option<u64>,
}

impl StepOutcome {
    /// An outcome with no virtual-clock report.
    #[must_use]
    pub fn wall(output: String) -> StepOutcome {
        StepOutcome {
            output,
            virtual_ns: None,
        }
    }
}

/// A failed step execution, classified for the retry taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepFailure {
    /// Cause.
    pub message: String,
    /// Transient failures are retried; permanent ones are quarantined
    /// (or, with quarantine disabled, cancel the campaign).
    pub class: ErrorClass,
}

impl StepFailure {
    /// A retryable failure.
    #[must_use]
    pub fn transient(message: impl Into<String>) -> StepFailure {
        StepFailure {
            message: message.into(),
            class: ErrorClass::Transient,
        }
    }

    /// A failure retries cannot fix (bad parameters, unparseable
    /// command).
    #[must_use]
    pub fn permanent(message: impl Into<String>) -> StepFailure {
        StepFailure {
            message: message.into(),
            class: ErrorClass::Permanent,
        }
    }

    /// The failure shape a killed worker produces: the process died
    /// mid-workpackage without output. Transient — the work itself may
    /// be fine on a healthy node.
    #[must_use]
    pub fn worker_crash() -> StepFailure {
        StepFailure::transient("worker crashed mid-workpackage")
    }
}

/// Knobs of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker-pool width (clamped to at least 1).
    pub max_parallel: usize,
    /// Per-workpackage deadline in milliseconds (virtual time when the
    /// runner reports it, wall time otherwise); `None` = unbounded.
    pub wp_deadline_ms: Option<u64>,
    /// Retry budget and backoff for transient step failures.
    pub retry: RetryPolicy,
    /// Cumulative failed attempts (journaled across resumes) after which
    /// a combination is quarantined. `0` disables quarantine: retry
    /// exhaustion and permanent failures then cancel the campaign.
    pub quarantine_threshold: u32,
    /// External abort switch: when set, workers stop claiming work and
    /// discard unjournaled results — the observable behaviour of the
    /// campaign process being killed, used by crash-resume tests.
    pub abort: Option<Arc<AtomicBool>>,
    /// Span/metric recorder. `None` (the default) records nothing. When
    /// set, the executor opens a `campaign` root span, one span per
    /// workpackage, and counts retries and quarantines; workpackage
    /// virtual time advances the recorder's clock, so span durations are
    /// simulated time whenever the runner reports it.
    pub recorder: Option<Arc<Recorder>>,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            max_parallel: 4,
            wp_deadline_ms: None,
            retry: RetryPolicy::with_retries(2),
            quarantine_threshold: 3,
            abort: None,
            recorder: None,
        }
    }
}

/// A workpackage that took conspicuously longer than its completed peers.
#[derive(Debug, Clone, PartialEq)]
pub struct StragglerReport {
    /// Workpackage id.
    pub id: usize,
    /// Its elapsed time, in milliseconds (virtual or wall — whichever
    /// clock the campaign ran under).
    pub elapsed_ms: u64,
    /// The p95 elapsed time of all completed peers, in milliseconds.
    pub p95_ms: u64,
}

impl fmt::Display for StragglerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workpackage {:06} took {} ms (p95 of completed peers: {} ms)",
            self.id, self.elapsed_ms, self.p95_ms
        )
    }
}

/// Aggregate outcome of one campaign run (fresh or resumed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Total workpackages in the campaign.
    pub total: usize,
    /// Workpackages completed, including previously journaled
    /// completions.
    pub completed: usize,
    /// Workpackages skipped because the journal already recorded them
    /// done.
    pub replayed: usize,
    /// Workpackages that needed more than one attempt before completing.
    pub retried: usize,
    /// Workpackages quarantined (this run or previously journaled).
    pub quarantined: usize,
    /// Workpackages that failed past their retry budget but remain
    /// re-runnable.
    pub failed: usize,
    /// Workpackages never attempted because the campaign was cancelled.
    pub cancelled: usize,
}

impl CampaignSummary {
    /// Did every workpackage reach a terminal state with nothing left to
    /// rerun?
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed + self.quarantined == self.total
    }

    /// Workpackages a resumed campaign would still run.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.total
            .saturating_sub(self.completed)
            .saturating_sub(self.quarantined)
    }
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} done ({} replayed from journal, {} retried), {} quarantined, \
             {} failed, {} cancelled, {} remaining",
            self.completed,
            self.total,
            self.replayed,
            self.retried,
            self.quarantined,
            self.failed,
            self.cancelled,
            self.remaining()
        )
    }
}

/// The outcome of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Completed workpackages (journal-replayed and freshly run), in id
    /// order. Quarantined and failed combinations are absent.
    pub workspace: Workspace,
    /// Aggregate accounting.
    pub summary: CampaignSummary,
    /// Quarantined combinations with their journaled reasons.
    pub quarantined: Vec<(usize, String)>,
    /// Completed workpackages conspicuously slower than their peers.
    pub stragglers: Vec<StragglerReport>,
    /// The abort switch fired; unfinished work remains journaled as
    /// resumable.
    pub aborted: bool,
    /// The journal had a torn tail (crash mid-append); the valid prefix
    /// was used.
    pub torn_tail: bool,
}

/// Lock a mutex, recovering from a poisoned lock (a panicked worker must
/// not wedge the supervisor).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Shared supervisor state, visible to every worker.
struct Shared<'a> {
    config: &'a JubeConfig,
    options: &'a CampaignOptions,
    combos: &'a [BTreeMap<String, String>],
    queue: Mutex<VecDeque<usize>>,
    journal: Mutex<JournalWriter>,
    /// Cooperative cancellation (fatal error somewhere in the pool).
    cancel: AtomicBool,
    fatal: Mutex<Option<CampaignError>>,
    /// Freshly completed workpackages: id → (wp, attempts, elapsed_ms).
    results: Mutex<BTreeMap<usize, (Workpackage, u32, u64)>>,
    quarantined: Mutex<BTreeMap<usize, String>>,
    failed: Mutex<BTreeSet<usize>>,
    /// Cumulative failed attempts per workpackage, seeded from the
    /// journal so quarantine thresholds span resumes.
    failures: Mutex<BTreeMap<usize, u32>>,
    retried_wps: AtomicUsize,
    /// The campaign root span (when a recorder is configured), parent of
    /// every workpackage span.
    root_span: Option<SpanId>,
}

impl Shared<'_> {
    fn aborted(&self) -> bool {
        self.options
            .abort
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    fn journal_append(&self, record: &Record) -> bool {
        let mut journal = lock(&self.journal);
        match journal.append(&record.encode()) {
            Ok(()) => true,
            Err(error) => {
                let mut fatal = lock(&self.fatal);
                fatal.get_or_insert(CampaignError::Io(error.to_string()));
                self.cancel.store(true, Ordering::SeqCst);
                false
            }
        }
    }

    fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.options.recorder.as_ref()
    }

    fn set_fatal(&self, error: SweepError) {
        let mut fatal = lock(&self.fatal);
        fatal.get_or_insert(CampaignError::Sweep(error));
        self.cancel.store(true, Ordering::SeqCst);
    }
}

/// Run (or resume) a campaign in `dir` on `vfs`.
///
/// The runner factory is invoked once per workpackage *attempt*, so each
/// attempt owns fresh state (e.g. its own simulated world) and a retry
/// never observes a crashed predecessor's half-mutated world. Campaign
/// state is journaled to `dir/campaign.journal`; calling `run_campaign`
/// again with the same disk, directory and configuration resumes,
/// replaying completed workpackages from the journal instead of
/// re-running them. A journal written by a *different* configuration is
/// rejected via [`config_fingerprint`]. The caller owns `dir`: it must
/// exist on `vfs`.
pub fn run_campaign<F, R>(
    config: &JubeConfig,
    dir: &Path,
    vfs: &dyn Vfs,
    options: &CampaignOptions,
    runner_factory: F,
) -> Result<CampaignReport, CampaignError>
where
    F: Fn() -> R + Sync,
    R: FnMut(usize, &str, &str) -> Result<StepOutcome, StepFailure>,
{
    let combos = config.expand();
    let invalid = validate_combos(config, &combos);
    if !invalid.is_empty() {
        return Err(CampaignError::Sweep(SweepError::InvalidParams(invalid)));
    }
    let fingerprint = config_fingerprint(config);
    let (state, writer) =
        open_journal(vfs, dir, &config.name, fingerprint, combos.len(), || Ok(()))?;

    let pending: VecDeque<usize> = (0..combos.len())
        .filter(|wp| state.is_pending(*wp))
        .collect();
    let root = options
        .recorder
        .as_ref()
        .map(|recorder| recorder.start_span("campaign", None, None, Some(&config.name)));
    let shared = Shared {
        config,
        options,
        combos: &combos,
        queue: Mutex::new(pending),
        journal: Mutex::new(writer),
        cancel: AtomicBool::new(false),
        fatal: Mutex::new(None),
        results: Mutex::new(BTreeMap::new()),
        quarantined: Mutex::new(state.quarantined.clone().into_iter().collect()),
        failed: Mutex::new(BTreeSet::new()),
        failures: Mutex::new(state.failures.clone()),
        retried_wps: AtomicUsize::new(0),
        root_span: root.map(|handle| handle.id),
    };

    let workers = options
        .max_parallel
        .max(1)
        .min(lock(&shared.queue).len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(&shared, &runner_factory));
        }
    });

    let fatal = lock(&shared.fatal).take();
    if let (Some(recorder), Some(handle)) = (options.recorder.as_ref(), root.as_ref()) {
        let status = if fatal.is_some() {
            SpanStatus::Failed
        } else if shared.aborted() {
            SpanStatus::Cancelled
        } else {
            SpanStatus::Ok
        };
        let dur_ns = recorder.end_span(handle, status);
        recorder.observe("iokc.campaign.ms", dur_ns as f64 / 1e6);
        recorder.counter("iokc.campaign.runs").inc();
    }
    if let Some(error) = fatal {
        return Err(error);
    }
    Ok(assemble_report(config, &state, &shared, &combos))
}

/// One worker: claim workpackages until the queue drains or the
/// campaign is cancelled/aborted.
fn worker_loop<F, R>(shared: &Shared<'_>, runner_factory: &F)
where
    F: Fn() -> R + Sync,
    R: FnMut(usize, &str, &str) -> Result<StepOutcome, StepFailure>,
{
    loop {
        if shared.cancel.load(Ordering::SeqCst) || shared.aborted() {
            return;
        }
        let Some(id) = lock(&shared.queue).pop_front() else {
            return;
        };
        run_workpackage_supervised(shared, runner_factory, id);
    }
}

/// What one attempt of a workpackage produced.
enum Attempt {
    Done(Workpackage),
    Failed { step: String, failure: StepFailure },
    DeadlineExceeded { step: String, elapsed_ms: u64 },
    Discarded,
}

/// Drive one workpackage through its attempt loop: run, journal, retry,
/// quarantine or fail according to the campaign options.
fn run_workpackage_supervised<F, R>(shared: &Shared<'_>, runner_factory: &F, id: usize)
where
    F: Fn() -> R + Sync,
    R: FnMut(usize, &str, &str) -> Result<StepOutcome, StepFailure>,
{
    let options = shared.options;
    let name = format!("wp{id:06}");
    let span = (shared.recorder())
        .map(|recorder| recorder.start_span(&name, shared.root_span, None, Some("workpackage")));
    let start = Instant::now();
    let mut virtual_ns = None;
    let mut attempts_this_run = 0u32;
    let status = loop {
        attempts_this_run += 1;
        let attempt = run_one_attempt(shared, runner_factory, id, start, &mut virtual_ns);
        match attempt {
            Attempt::Discarded => break SpanStatus::Cancelled,
            Attempt::Done(wp) => {
                // A result that the abort switch raced is discarded
                // *before* journaling — exactly what a killed process
                // would leave behind.
                if shared.aborted() {
                    break SpanStatus::Cancelled;
                }
                let elapsed_ms = effective_elapsed(virtual_ns, start);
                let done = Record::Done {
                    wp: id,
                    attempts: attempts_this_run,
                    elapsed_ms,
                    commands: wp.commands.clone(),
                    outputs: wp.outputs.clone(),
                };
                if !shared.journal_append(&done) {
                    break SpanStatus::Failed;
                }
                if attempts_this_run > 1 {
                    shared.retried_wps.fetch_add(1, Ordering::SeqCst);
                }
                lock(&shared.results).insert(id, (wp, attempts_this_run, elapsed_ms));
                break SpanStatus::Ok;
            }
            Attempt::DeadlineExceeded { step, elapsed_ms } => {
                let deadline = options.wp_deadline_ms.unwrap_or(0);
                let cumulative = bump_failures(shared, id);
                let message = format!("deadline of {deadline} ms exceeded after {elapsed_ms} ms");
                if !shared.journal_append(&Record::Fail {
                    wp: id,
                    attempt: cumulative,
                    step,
                    class: ErrorClass::Transient,
                    message,
                }) {
                    break SpanStatus::Failed;
                }
                // Deadlines bound the whole attempt loop: no retry, but
                // repeat offenders still hit the quarantine threshold.
                if options.quarantine_threshold > 0 && cumulative >= options.quarantine_threshold {
                    quarantine(shared, id, cumulative);
                } else {
                    lock(&shared.failed).insert(id);
                }
                break SpanStatus::Failed;
            }
            Attempt::Failed { step, failure } => {
                let cumulative = bump_failures(shared, id);
                if !shared.journal_append(&Record::Fail {
                    wp: id,
                    attempt: cumulative,
                    step: step.clone(),
                    class: failure.class,
                    message: failure.message.clone(),
                }) {
                    break SpanStatus::Failed;
                }
                let threshold = options.quarantine_threshold;
                if failure.class == ErrorClass::Permanent {
                    if threshold > 0 {
                        let reason =
                            format!("permanent failure in step {step}: {}", failure.message);
                        if shared.journal_append(&Record::Quarantine {
                            wp: id,
                            reason: reason.clone(),
                        }) {
                            lock(&shared.quarantined).insert(id, reason);
                        }
                    } else {
                        shared.set_fatal(SweepError::Step {
                            workpackage: id,
                            params: shared.combos[id].clone(),
                            step,
                            message: failure.message,
                        });
                    }
                    break SpanStatus::Failed;
                }
                // Transient: quarantine repeat offenders, else retry
                // within budget, else mark failed (resumable).
                if threshold > 0 && cumulative >= threshold {
                    quarantine(shared, id, cumulative);
                    break SpanStatus::Failed;
                }
                if retryable(ErrorClass::Transient, attempts_this_run, &options.retry) {
                    // Backoff advances the virtual clock; deadlines see it.
                    let next = attempts_this_run + 1;
                    let backoff_ms = options.retry.delay_ms(PhaseKind::Generation, &name, next);
                    *virtual_ns.get_or_insert(0) += backoff_ms * 1_000_000;
                    if let Some(recorder) = shared.recorder() {
                        recorder.counter("iokc.campaign.retries").inc();
                        recorder.log(
                            span.as_ref().map(|handle| handle.id),
                            &format!("{name} retrying after: {}", failure.message),
                        );
                    }
                    continue;
                }
                if threshold == 0 {
                    shared.set_fatal(SweepError::Step {
                        workpackage: id,
                        params: shared.combos[id].clone(),
                        step,
                        message: failure.message,
                    });
                } else {
                    lock(&shared.failed).insert(id);
                }
                break SpanStatus::Failed;
            }
        }
    };
    end_wp_span(shared, span, virtual_ns.unwrap_or(0), status);
}

/// Close a workpackage span: advance the recorder's virtual clock by the
/// workpackage's simulated time (so span durations are virtual whenever
/// the runner reports a virtual clock) and record the latency histogram.
fn end_wp_span(shared: &Shared<'_>, span: Option<SpanHandle>, virtual_ns: u64, status: SpanStatus) {
    if let (Some(recorder), Some(handle)) = (shared.recorder(), span) {
        recorder.advance_ns(virtual_ns);
        let dur_ns = recorder.end_span(&handle, status);
        recorder.observe("iokc.campaign.wp.ms", dur_ns as f64 / 1e6);
        if status == SpanStatus::Failed {
            recorder.counter("iokc.campaign.wp_failures").inc();
        }
    }
}

/// Execute every step of one attempt with a fresh runner.
fn run_one_attempt<F, R>(
    shared: &Shared<'_>,
    runner_factory: &F,
    id: usize,
    start: Instant,
    clock: &mut Option<u64>,
) -> Attempt
where
    F: Fn() -> R + Sync,
    R: FnMut(usize, &str, &str) -> Result<StepOutcome, StepFailure>,
{
    let mut runner = runner_factory();
    let mut wp = Workpackage {
        id,
        params: shared.combos[id].clone(),
        commands: Vec::new(),
        outputs: Vec::new(),
    };
    let mut values = wp.params.clone();
    values.insert("wp".to_owned(), format!("{id:06}"));
    for step in &shared.config.steps {
        if shared.aborted() {
            return Attempt::Discarded;
        }
        let command = substitute(&step.template, &values);
        match runner(id, &step.name, &command) {
            Ok(outcome) => {
                if let Some(ns) = outcome.virtual_ns {
                    *clock = Some(clock.unwrap_or(0) + ns);
                }
                wp.commands.push((step.name.clone(), command));
                wp.outputs.push((step.name.clone(), outcome.output));
                let elapsed_ms = effective_elapsed(*clock, start);
                if let Some(deadline) = shared.options.wp_deadline_ms {
                    if elapsed_ms > deadline {
                        return Attempt::DeadlineExceeded {
                            step: step.name.clone(),
                            elapsed_ms,
                        };
                    }
                }
            }
            Err(failure) => {
                return Attempt::Failed {
                    step: step.name.clone(),
                    failure,
                };
            }
        }
    }
    Attempt::Done(wp)
}

/// Elapsed milliseconds of a workpackage: its virtual clock when it has
/// one (however little it shows), wall time otherwise.
fn effective_elapsed(virtual_ns: Option<u64>, start: Instant) -> u64 {
    virtual_ns.map_or_else(
        || u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
        |ns| ns / 1_000_000,
    )
}

fn bump_failures(shared: &Shared<'_>, id: usize) -> u32 {
    let mut failures = lock(&shared.failures);
    let count = failures.entry(id).or_insert(0);
    *count += 1;
    *count
}

fn quarantine(shared: &Shared<'_>, id: usize, cumulative: u32) {
    let reason = format!("failed {cumulative} attempt(s) across the campaign");
    if shared.journal_append(&Record::Quarantine {
        wp: id,
        reason: reason.clone(),
    }) {
        lock(&shared.quarantined).insert(id, reason);
    }
}

/// Merge journal-replayed and freshly run work into the final report.
fn assemble_report(
    config: &JubeConfig,
    state: &CampaignState,
    shared: &Shared<'_>,
    combos: &[BTreeMap<String, String>],
) -> CampaignReport {
    let results = lock(&shared.results);
    let quarantined_map = lock(&shared.quarantined);
    let failed = lock(&shared.failed);

    let mut workpackages = Vec::new();
    for (id, params) in combos.iter().enumerate() {
        if let Some(done) = state.done.get(&id) {
            workpackages.push(done.to_workpackage(id, params.clone()));
        } else if let Some((wp, _, _)) = results.get(&id) {
            workpackages.push(wp.clone());
        }
    }

    // Straggler detection over what completed *this* run: with enough
    // peers, flag everything strictly above the p95 elapsed time.
    let elapsed: Vec<f64> = results.values().map(|(_, _, ms)| *ms as f64).collect();
    let mut stragglers = Vec::new();
    if elapsed.len() >= STRAGGLER_MIN_PEERS {
        let p95 = iokc_util::stats::percentile(&elapsed, 0.95);
        for (id, (_, _, ms)) in results.iter() {
            if (*ms as f64) > p95 {
                stragglers.push(StragglerReport {
                    id: *id,
                    elapsed_ms: *ms,
                    p95_ms: p95.round() as u64,
                });
            }
        }
    }

    let completed = workpackages.len();
    let summary = CampaignSummary {
        total: combos.len(),
        completed,
        replayed: state.done.len(),
        retried: shared.retried_wps.load(Ordering::SeqCst),
        quarantined: quarantined_map.len(),
        failed: failed.len(),
        cancelled: combos
            .len()
            .saturating_sub(completed)
            .saturating_sub(quarantined_map.len())
            .saturating_sub(failed.len()),
    };
    CampaignReport {
        workspace: Workspace {
            benchmark: config.name.clone(),
            workpackages,
        },
        summary,
        quarantined: quarantined_map
            .iter()
            .map(|(id, reason)| (*id, reason.clone()))
            .collect(),
        stragglers,
        aborted: shared.aborted(),
        torn_tail: state.torn_tail,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::campaign::journal_path;
    use iokc_store::FaultVfs;
    use std::sync::atomic::AtomicU64;

    const CONFIG: &str = "\
benchmark demo
param n = 1, 2, 3, 4
step run = work -n $n -o out$wp
pattern value = result {v:f}
";

    /// The campaign directory on each test's in-memory disk.
    fn dir() -> &'static Path {
        Path::new("/campaign")
    }

    fn ok_runner() -> impl FnMut(usize, &str, &str) -> Result<StepOutcome, StepFailure> {
        |_, _, command: &str| {
            let n: f64 = command
                .split_whitespace()
                .nth(2)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| StepFailure::permanent("bad command"))?;
            Ok(StepOutcome {
                output: format!("result {}\n", n * 10.0),
                virtual_ns: Some(100_000_000),
            })
        }
    }

    #[test]
    fn fresh_campaign_completes_and_matches_sweep() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let vfs = FaultVfs::pristine();
        let report =
            run_campaign(&config, dir(), &vfs, &CampaignOptions::default(), ok_runner).unwrap();
        assert!(report.summary.is_complete());
        assert_eq!(report.summary.completed, 4);
        assert_eq!(report.summary.replayed, 0);
        assert!(!report.aborted);
        let series = report.workspace.metric_series(&config, "value");
        assert_eq!(series.len(), 4);
        assert_eq!(series[1].1, 20.0);
        // One fsynced record per workpackage — its result — and the header.
        let journal = iokc_store::journal::read_journal_vfs(&journal_path(dir()), &vfs).unwrap();
        assert_eq!(journal.records.len(), 1 + 4);
    }

    #[test]
    fn resume_replays_done_work_without_rerunning() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let vfs = FaultVfs::pristine();
        let first =
            run_campaign(&config, dir(), &vfs, &CampaignOptions::default(), ok_runner).unwrap();
        let ran = AtomicUsize::new(0);
        let second = run_campaign(&config, dir(), &vfs, &CampaignOptions::default(), || {
            ran.fetch_add(1, Ordering::SeqCst);
            ok_runner()
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "nothing re-ran");
        assert_eq!(second.summary.replayed, 4);
        assert_eq!(
            second.workspace.result_table(&config).render(),
            first.workspace.result_table(&config).render()
        );
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let vfs = FaultVfs::pristine();
        run_campaign(&config, dir(), &vfs, &CampaignOptions::default(), ok_runner).unwrap();
        let other =
            JubeConfig::parse("benchmark demo\nparam n = 9\nstep run = work -n $n -o out$wp\n")
                .unwrap();
        let err =
            run_campaign(&other, dir(), &vfs, &CampaignOptions::default(), ok_runner).unwrap_err();
        assert!(matches!(err, CampaignError::Mismatch { .. }), "{err}");
        assert!(err.to_string().contains("different configuration"));
    }

    #[test]
    fn transient_failures_are_retried_then_succeed() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let vfs = FaultVfs::pristine();
        // Workpackage 2 fails its first two attempts, then succeeds.
        let crashes = Mutex::new(BTreeMap::<usize, u32>::new());
        let options = CampaignOptions {
            retry: RetryPolicy::with_retries(3),
            ..CampaignOptions::default()
        };
        let report = run_campaign(&config, dir(), &vfs, &options, || {
            |id: usize, step: &str, command: &str| {
                if id == 2 && step == "run" {
                    let mut crashes = lock(&crashes);
                    let seen = crashes.entry(id).or_insert(0);
                    if *seen < 2 {
                        *seen += 1;
                        return Err(StepFailure::worker_crash());
                    }
                }
                ok_runner()(id, step, command)
            }
        })
        .unwrap();
        assert!(report.summary.is_complete());
        assert_eq!(report.summary.retried, 1);
        assert_eq!(report.workspace.metric_series(&config, "value").len(), 4);
    }

    #[test]
    fn permanent_failure_is_quarantined_not_fatal() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let vfs = FaultVfs::pristine();
        let report = run_campaign(&config, dir(), &vfs, &CampaignOptions::default(), || {
            |id: usize, step: &str, command: &str| {
                if id == 1 {
                    return Err(StepFailure::permanent("unparseable flags"));
                }
                ok_runner()(id, step, command)
            }
        })
        .unwrap();
        assert!(report.summary.is_complete(), "{}", report.summary);
        assert_eq!(report.summary.quarantined, 1);
        assert_eq!(report.quarantined[0].0, 1);
        assert!(report.quarantined[0].1.contains("unparseable flags"));
        assert_eq!(report.workspace.workpackages.len(), 3);
        // Resume keeps the quarantine decision.
        let ran = AtomicUsize::new(0);
        let resumed = run_campaign(&config, dir(), &vfs, &CampaignOptions::default(), || {
            ran.fetch_add(1, Ordering::SeqCst);
            ok_runner()
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(resumed.summary.quarantined, 1);
    }

    #[test]
    fn repeated_transient_failures_hit_the_quarantine_threshold() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let vfs = FaultVfs::pristine();
        let options = CampaignOptions {
            retry: RetryPolicy::with_retries(1),
            quarantine_threshold: 3,
            ..CampaignOptions::default()
        };
        // Workpackage 0 always fails transiently. Run 1: attempts 1+2
        // journaled (below threshold) → failed/resumable. Run 2: the
        // third cumulative failure crosses the threshold → quarantined.
        let always_fail = || {
            |id: usize, step: &str, command: &str| {
                if id == 0 {
                    return Err(StepFailure::transient("flaky node"));
                }
                ok_runner()(id, step, command)
            }
        };
        let first = run_campaign(&config, dir(), &vfs, &options, always_fail).unwrap();
        assert_eq!(first.summary.failed, 1);
        assert_eq!(first.summary.quarantined, 0);
        assert!(!first.summary.is_complete());
        let second = run_campaign(&config, dir(), &vfs, &options, always_fail).unwrap();
        assert_eq!(second.summary.quarantined, 1, "{}", second.summary);
        assert!(second.summary.is_complete(), "quarantine is terminal");
        assert!(second.quarantined[0].1.contains("3 attempt(s)"));
    }

    #[test]
    fn quarantine_disabled_makes_permanent_failures_fatal() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let vfs = FaultVfs::pristine();
        let options = CampaignOptions {
            quarantine_threshold: 0,
            ..CampaignOptions::default()
        };
        let err = run_campaign(&config, dir(), &vfs, &options, || {
            |id: usize, step: &str, command: &str| {
                if id == 3 {
                    return Err(StepFailure::permanent("bad combination"));
                }
                ok_runner()(id, step, command)
            }
        })
        .unwrap_err();
        let CampaignError::Sweep(sweep) = &err else {
            panic!("expected sweep error, got {err:?}");
        };
        assert_eq!(sweep.workpackage(), Some(3));
        assert!(err.to_string().contains("bad combination"));
        // The journal still holds the completed work: a resume with
        // quarantine enabled finishes the campaign.
        let recovered =
            run_campaign(&config, dir(), &vfs, &CampaignOptions::default(), ok_runner).unwrap();
        assert!(recovered.summary.is_complete());
        assert!(recovered.summary.replayed >= 1, "{}", recovered.summary);
    }

    #[test]
    fn virtual_deadline_fails_slow_workpackages() {
        let config = JubeConfig::parse(CONFIG).unwrap();
        let vfs = FaultVfs::pristine();
        let options = CampaignOptions {
            wp_deadline_ms: Some(500),
            quarantine_threshold: 0,
            retry: RetryPolicy::none(),
            ..CampaignOptions::default()
        };
        // Workpackage 2 reports 10x the virtual time of its peers.
        let report = run_campaign(&config, dir(), &vfs, &options, || {
            |id: usize, step: &str, command: &str| {
                let mut outcome = ok_runner()(id, step, command)?;
                if id == 2 {
                    outcome.virtual_ns = Some(1_000_000_000);
                }
                Ok(outcome)
            }
        })
        .unwrap();
        assert_eq!(report.summary.failed, 1, "{}", report.summary);
        assert_eq!(report.summary.completed, 3);
        assert!(!report.summary.is_complete());
    }

    #[test]
    fn stragglers_are_reported_against_the_p95() {
        let config = JubeConfig::parse(
            "benchmark wide\nparam n = 1,2,3,4,5,6,7,8,9,10,11,12\nstep run = work -n $n\n",
        )
        .unwrap();
        let vfs = FaultVfs::pristine();
        let report = run_campaign(&config, dir(), &vfs, &CampaignOptions::default(), || {
            |id: usize, _: &str, _: &str| {
                Ok(StepOutcome {
                    output: String::new(),
                    virtual_ns: Some(if id == 7 { 5_000 } else { 100 } * 1_000_000),
                })
            }
        })
        .unwrap();
        assert_eq!(report.stragglers.len(), 1);
        assert_eq!(report.stragglers[0].id, 7);
        assert_eq!(report.stragglers[0].elapsed_ms, 5_000);
        assert!(report.stragglers[0].p95_ms < 5_000);
    }

    #[test]
    fn abort_discards_inflight_work_and_resume_finishes() {
        let config =
            JubeConfig::parse("benchmark wide\nparam n = 1,2,3,4,5,6,7,8\nstep run = work -n $n\n")
                .unwrap();
        let vfs = FaultVfs::pristine();
        let abort = Arc::new(AtomicBool::new(false));
        let done_before_abort = AtomicU64::new(0);
        let options = CampaignOptions {
            max_parallel: 2,
            abort: Some(Arc::clone(&abort)),
            ..CampaignOptions::default()
        };
        let report = run_campaign(&config, dir(), &vfs, &options, || {
            let abort = Arc::clone(&abort);
            let done = &done_before_abort;
            move |_: usize, _: &str, _: &str| {
                if done.fetch_add(1, Ordering::SeqCst) + 1 >= 3 {
                    abort.store(true, Ordering::SeqCst);
                }
                Ok(StepOutcome::wall("out".to_owned()))
            }
        })
        .unwrap();
        assert!(report.aborted);
        assert!(!report.summary.is_complete());
        let finished = run_campaign(&config, dir(), &vfs, &CampaignOptions::default(), || {
            |_: usize, _: &str, _: &str| Ok(StepOutcome::wall("out".to_owned()))
        })
        .unwrap();
        assert!(finished.summary.is_complete(), "{}", finished.summary);
        assert_eq!(finished.summary.total, 8);
    }

    #[test]
    fn summary_accounting() {
        let summary = CampaignSummary {
            total: 16,
            completed: 12,
            replayed: 5,
            retried: 2,
            quarantined: 4,
            failed: 0,
            cancelled: 0,
        };
        assert!(summary.is_complete());
        assert_eq!(summary.remaining(), 0);
        let text = summary.to_string();
        assert!(text.contains("12/16 done"));
        assert!(text.contains("4 quarantined"));

        let partial = CampaignSummary {
            total: 16,
            completed: 6,
            ..CampaignSummary::default()
        };
        assert!(!partial.is_complete());
        assert_eq!(partial.remaining(), 10);
    }

    #[test]
    fn straggler_display() {
        let s = StragglerReport {
            id: 7,
            elapsed_ms: 900,
            p95_ms: 300,
        };
        assert!(s.to_string().contains("000007"));
        assert!(s.to_string().contains("900 ms"));
    }
}
