//! `iokc` — the I/O knowledge cycle command line.
//!
//! Drives the five phases end to end on the simulated FUCHS-CSC system:
//!
//! ```text
//! iokc run "ior -a mpiio -b 4m -t 2m -s 40 -F -C -e -i 6 -o /scratch/t -k" --tasks 80
//! iokc io500 --tasks 40
//! iokc list
//! iokc view 1
//! iokc compare --metric write --axis transfer
//! iokc detect
//! iokc recommend 1
//! iokc sql "SELECT command, tasks FROM performances WHERE api = 'MPIIO'"
//! iokc cycle "ior -b 4m -t 1m -s 4 -F -i 2 -o /scratch/c -k" --iterations 3
//! iokc stack
//! ```
//!
//! Knowledge persists in `--db <path>` (default `knowledge.iokc.json`),
//! the "local database" of the paper's Fig. 4.
//!
//! `iokc sweep` runs parameter sweeps as *durable campaigns*: every
//! workpackage state transition is journaled, so a killed campaign
//! resumes with `iokc sweep --resume <dir>`, re-running only unfinished
//! workpackages. `iokc jube` runs the same campaign with its journal in
//! memory.

#![warn(clippy::unwrap_used)]

use iokc_analysis::{
    compare, overview, render_io500, render_knowledge, BoundingBoxDetector,
    IterationVarianceDetector, MetricAxis, OptionAxis, TrendDetector,
};
use iokc_benchmarks::instrument::{darshan_from_phases, InstrumentOptions};
use iokc_benchmarks::{
    mkdir_p, run_ior, HaccConfig, HaccGenerator, Io500Config, Io500Generator, IorConfig,
    IorGenerator, MdtestConfig, MdtestGenerator,
};
use iokc_core::cycle::ModuleBox;
use iokc_core::model::KnowledgeItem;
use iokc_core::phases::{Analyzer, CycleError, ErrorClass, Finding, PhaseKind};
use iokc_core::resilience::{ResilienceConfig, RetryPolicy};
use iokc_core::{KnowledgeCycle, Observability, PhaseCtx};
use iokc_extract::{
    DarshanExtractor, HaccExtractor, Io500Extractor, IorExtractor, MdtestExtractor,
};
use iokc_obs::{trace as obs_trace, Clock, Event, NullSink, Recorder, VirtualClock};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_store::{
    DbError, DeadlineToken, FaultVfs, KnowledgeStore, Query, RunFilter, RunKind, RunOrder,
    RunPredicate, StdVfs, UnknownName, Vfs,
};
use iokc_usage::{recommend, RegenerateUsage};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How a CLI failure maps to the process exit code — one code per error
/// class, so scripts and schedulers can branch on the kind of failure
/// without scraping stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CliErrorKind {
    /// Unclassified failure (exit 1).
    Other,
    /// Bad flags or arguments; retrying the same invocation cannot help
    /// and the command line itself must change (exit 2).
    Usage,
    /// A transient phase failure — a rerun (or `--retries`) may succeed
    /// (exit 3).
    Transient,
    /// A permanent phase failure — malformed input or unsupported
    /// request (exit 4).
    Permanent,
    /// The knowledge base image failed checksum or decode validation
    /// (exit 5).
    Corrupt,
}

impl CliErrorKind {
    fn exit_code(self) -> u8 {
        match self {
            CliErrorKind::Other => 1,
            CliErrorKind::Usage => 2,
            CliErrorKind::Transient => 3,
            CliErrorKind::Permanent => 4,
            CliErrorKind::Corrupt => 5,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            CliErrorKind::Other => "error",
            CliErrorKind::Usage => "usage",
            CliErrorKind::Transient => "transient",
            CliErrorKind::Permanent => "permanent",
            CliErrorKind::Corrupt => "corrupt",
        }
    }
}

/// A classified CLI failure: every error leaving `dispatch` carries the
/// class that decides the exit code and the one-line stderr prefix.
#[derive(Debug)]
struct CliError {
    kind: CliErrorKind,
    message: String,
}

impl CliError {
    fn usage(message: impl std::fmt::Display) -> CliError {
        CliError {
            kind: CliErrorKind::Usage,
            message: message.to_string(),
        }
    }

    /// A flag value outside its vocabulary, named as the flag it came
    /// from: "unknown --sort `x` (expected …)".
    fn flag(e: UnknownName) -> CliError {
        CliError::usage(format!(
            "unknown --{} `{}` (expected {})",
            e.what, e.name, e.expected
        ))
    }
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError {
            kind: CliErrorKind::Other,
            message,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError::from(message.to_owned())
    }
}

/// Classify a store failure: checksum/decode damage is distinct from
/// ordinary I/O or lookup errors so callers can trigger recovery paths.
fn store_err(e: DbError) -> CliError {
    let kind = match &e {
        DbError::Corrupt(_) => CliErrorKind::Corrupt,
        // A full disk clears up when space is freed — schedulers may
        // retry, so it gets the transient exit code.
        DbError::Full(_) => CliErrorKind::Transient,
        _ => CliErrorKind::Permanent,
    };
    CliError {
        kind,
        message: e.to_string(),
    }
}

fn class_kind(class: ErrorClass) -> CliErrorKind {
    match class {
        ErrorClass::Transient => CliErrorKind::Transient,
        ErrorClass::Permanent => CliErrorKind::Permanent,
        ErrorClass::Corrupt => CliErrorKind::Corrupt,
    }
}

/// Classify a cycle failure using the phase error taxonomy.
fn cycle_err(e: CycleError) -> CliError {
    CliError {
        kind: class_kind(e.class),
        message: e.to_string(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("iokc: {}: {}", error.kind.as_str(), error.message);
            ExitCode::from(error.kind.exit_code())
        }
    }
}

struct Options {
    db: PathBuf,
    tasks: u32,
    ppn: u32,
    seed: u64,
    iterations: u32,
    retries: u32,
    phase_deadline_ms: Option<u64>,
    campaign: Option<PathBuf>,
    resume: Option<PathBuf>,
    max_parallel: usize,
    wp_deadline_ms: Option<u64>,
    quarantine: u32,
    serve_addr: String,
    serve_workers: usize,
    serve_queue: usize,
    serve_cache_bytes: usize,
    serve_ms: Option<u64>,
    request_deadline_ms: u64,
    max_per_peer: usize,
    rate_per_peer: f64,
    max_conns: usize,
    idle_timeout_ms: u64,
    metric: String,
    axis: String,
    /// `--kind`, checked by the commands that filter on it.
    filter_kind: Option<String>,
    /// Every other run filter flag.
    filter: RunFilter,
    sort: String,
    order_desc: bool,
    limit: Option<usize>,
    offset: usize,
    count_only: bool,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    repair: bool,
    journal: Option<PathBuf>,
    runs: usize,
    group: String,
    factor: String,
    correlate: Option<String>,
    outliers: bool,
    positional: Vec<String>,
}

impl Options {
    /// Resilience policy for cycle-driving commands, built from
    /// `--retries` and `--phase-deadline`. Backoff jitter is seeded from
    /// `--seed` so reruns are reproducible.
    fn resilience(&self) -> ResilienceConfig {
        ResilienceConfig::new()
            .with_retry(RetryPolicy::with_retries(self.retries).seeded(self.seed))
            .with_phase_deadline_ms(self.phase_deadline_ms)
    }
}

/// The value of the flag at `args[*i]` — the next argument, which `i`
/// steps onto — as a `T`: text and paths as given, numbers parsed.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
    let flag = &args[*i];
    *i += 1;
    let raw = args
        .get(*i)
        .ok_or_else(|| format!("missing value for {flag}"))?;
    raw.parse().map_err(|_| format!("bad {flag}"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        db: PathBuf::from("knowledge.iokc.json"),
        tasks: 80,
        ppn: 20,
        seed: 42,
        iterations: 3,
        retries: 0,
        phase_deadline_ms: None,
        campaign: None,
        resume: None,
        max_parallel: 4,
        wp_deadline_ms: None,
        quarantine: 3,
        serve_addr: "127.0.0.1:7070".to_owned(),
        serve_workers: 4,
        serve_queue: 64,
        serve_cache_bytes: 1 << 20,
        serve_ms: None,
        request_deadline_ms: 30_000,
        max_per_peer: 0,
        rate_per_peer: 0.0,
        max_conns: 0,
        idle_timeout_ms: 5000,
        metric: "write".to_owned(),
        axis: "transfer".to_owned(),
        filter_kind: None,
        filter: RunFilter::default(),
        sort: "id".to_owned(),
        order_desc: false,
        limit: None,
        offset: 0,
        count_only: false,
        metrics_out: None,
        trace_out: None,
        repair: false,
        journal: None,
        runs: 256,
        group: "api".to_owned(),
        factor: "bw".to_owned(),
        correlate: None,
        outliers: false,
        positional: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--db" => opts.db = flag_value(args, &mut i)?,
            "--tasks" => opts.tasks = flag_value(args, &mut i)?,
            "--ppn" => opts.ppn = flag_value(args, &mut i)?,
            "--seed" => opts.seed = flag_value(args, &mut i)?,
            "--iterations" => opts.iterations = flag_value(args, &mut i)?,
            "--retries" => opts.retries = flag_value(args, &mut i)?,
            "--phase-deadline" => opts.phase_deadline_ms = Some(flag_value(args, &mut i)?),
            "--campaign" => opts.campaign = Some(flag_value(args, &mut i)?),
            "--resume" => opts.resume = Some(flag_value(args, &mut i)?),
            "--max-parallel" => {
                opts.max_parallel = flag_value(args, &mut i)?;
                if opts.max_parallel == 0 {
                    return Err("--max-parallel must be non-zero".to_owned());
                }
            }
            "--wp-deadline" => opts.wp_deadline_ms = Some(flag_value(args, &mut i)?),
            "--quarantine" => opts.quarantine = flag_value(args, &mut i)?,
            "--addr" => opts.serve_addr = flag_value(args, &mut i)?,
            "--workers" => {
                opts.serve_workers = flag_value(args, &mut i)?;
                if opts.serve_workers == 0 {
                    return Err("--workers must be non-zero".to_owned());
                }
            }
            "--queue" => {
                opts.serve_queue = flag_value(args, &mut i)?;
                if opts.serve_queue == 0 {
                    return Err("--queue must be non-zero".to_owned());
                }
            }
            "--cache-bytes" => opts.serve_cache_bytes = flag_value(args, &mut i)?,
            "--serve-ms" => opts.serve_ms = Some(flag_value(args, &mut i)?),
            "--request-deadline-ms" => {
                opts.request_deadline_ms = flag_value(args, &mut i)?;
                if opts.request_deadline_ms == 0 {
                    return Err("--request-deadline-ms must be non-zero".to_owned());
                }
            }
            "--max-per-peer" => opts.max_per_peer = flag_value(args, &mut i)?,
            "--rate" => {
                opts.rate_per_peer = flag_value(args, &mut i)?;
                if opts.rate_per_peer < 0.0 || !opts.rate_per_peer.is_finite() {
                    return Err("--rate must be a non-negative number".to_owned());
                }
            }
            "--max-conns" => opts.max_conns = flag_value(args, &mut i)?,
            "--idle-timeout-ms" => {
                opts.idle_timeout_ms = flag_value(args, &mut i)?;
                if opts.idle_timeout_ms == 0 {
                    return Err("--idle-timeout-ms must be non-zero".to_owned());
                }
            }
            "--metric" => opts.metric = flag_value(args, &mut i)?,
            "--axis" => opts.axis = flag_value(args, &mut i)?,
            "--api" => opts.filter.api = Some(flag_value(args, &mut i)?),
            "--kind" => opts.filter_kind = Some(flag_value(args, &mut i)?),
            "--op" => opts.filter.op = Some(flag_value(args, &mut i)?),
            "--min-tasks" => opts.filter.min_tasks = Some(flag_value(args, &mut i)?),
            "--max-tasks" => opts.filter.max_tasks = Some(flag_value(args, &mut i)?),
            "--min-bw" => opts.filter.min_bw = Some(flag_value(args, &mut i)?),
            "--max-bw" => opts.filter.max_bw = Some(flag_value(args, &mut i)?),
            "--sort" => opts.sort = flag_value(args, &mut i)?,
            "--order" => {
                opts.order_desc = match flag_value::<String>(args, &mut i)?.as_str() {
                    "asc" => false,
                    "desc" => true,
                    other => return Err(format!("unknown --order `{other}` (expected asc|desc)")),
                };
            }
            "--limit" => opts.limit = Some(flag_value(args, &mut i)?),
            "--offset" => opts.offset = flag_value(args, &mut i)?,
            "--count" => opts.count_only = true,
            "--metrics" => opts.metrics_out = Some(flag_value(args, &mut i)?),
            "--trace" => opts.trace_out = Some(flag_value(args, &mut i)?),
            "--repair" => opts.repair = true,
            "--journal" => opts.journal = Some(flag_value(args, &mut i)?),
            "--contains" => opts.filter.command = Some(flag_value(args, &mut i)?),
            "--runs" => {
                opts.runs = flag_value(args, &mut i)?;
                if opts.runs == 0 {
                    return Err("--runs must be non-zero".to_owned());
                }
            }
            "--group" => opts.group = flag_value(args, &mut i)?,
            "--factor" => opts.factor = flag_value(args, &mut i)?,
            "--correlate" => opts.correlate = Some(flag_value(args, &mut i)?),
            "--outliers" => opts.outliers = true,
            other => opts.positional.push(other.to_owned()),
        }
        i += 1;
    }
    if opts.tasks == 0 || opts.ppn == 0 {
        return Err("--tasks and --ppn must be non-zero".to_owned());
    }
    Ok(opts)
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        print_help();
        return Ok(());
    };
    let opts = parse_options(&args[1..]).map_err(CliError::usage)?;
    match command.as_str() {
        "run" => cmd_run(&opts),
        "io500" => cmd_io500(&opts),
        "mdtest" => cmd_mdtest(&opts),
        "hacc" => cmd_hacc(&opts),
        "list" => cmd_list(&opts),
        "query" => cmd_query(&opts),
        "view" => cmd_view(&opts),
        "compare" => cmd_compare(&opts),
        "detect" => cmd_detect(&opts),
        "recommend" => cmd_recommend(&opts),
        "sql" => cmd_sql(&opts),
        "cycle" => cmd_cycle(&opts),
        "dxt" => cmd_dxt(&opts),
        "export" => cmd_export(&opts),
        "report" => cmd_report(&opts),
        "import" => cmd_import(&opts),
        "jube" => cmd_jube(&opts),
        "sweep" => cmd_sweep(&opts),
        "corpus" => cmd_corpus(&opts),
        "agg" => cmd_agg(&opts),
        "serve" => cmd_serve(&opts),
        "fsck" => cmd_fsck(&opts),
        "compact" => cmd_compact(&opts),
        "trace" => cmd_trace(&opts),
        "stack" => {
            print_stack();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command `{other}` (try `iokc help`)"
        ))),
    }
}

fn print_help() {
    println!(
        "iokc — the I/O knowledge cycle (simulated FUCHS-CSC backend)\n\n\
         USAGE: iokc <command> [options]\n\n\
         COMMANDS:\n\
         \x20 run \"<ior command>\"   generate -> extract -> persist -> analyze one IOR run\n\
         \x20 io500                 run the IO500 suite and persist its knowledge\n\
         \x20 mdtest \"<mdtest cmd>\" run the metadata benchmark and persist its knowledge\n\
         \x20 hacc --particles <n>  run the HACC-IO checkpoint/restart benchmark\n\
         \x20 list                  list stored knowledge objects\n\
         \x20 query                 filtered/sorted queries evaluated inside the store's\n\
         \x20                       query engine (--kind benchmark|io500, --api <API>,\n\
         \x20                       --contains <text>, --op <operation>, --min-tasks /\n\
         \x20                       --max-tasks <n>, --min-bw / --max-bw <MiB/s>,\n\
         \x20                       --sort id|tasks|command|bw, --order asc|desc,\n\
         \x20                       --limit <n>, --offset <n>, --count)\n\
         \x20 view <id>             knowledge viewer for one object\n\
         \x20 compare               comparison view of benchmark runs (--axis transfer|\n\
         \x20                       block|tasks|segments|clients_per_node, --metric <op>,\n\
         \x20                       and every query filter flag)\n\
         \x20 detect                run the anomaly detectors over the store\n\
         \x20 recommend <id>        tuning recommendations for one object\n\
         \x20 sql \"<query>\"         query the store's tables directly\n\
         \x20 cycle \"<ior cmd>\"     iterative knowledge cycle (--iterations N)\n\
         \x20 dxt \"<ior cmd>\"       DXT explorer: per-rank timeline, heat map, stragglers\n\
         \x20 export <id> [file]    share a knowledge object as JSON (stdout by default)\n\
         \x20 report [file]         write the HTML knowledge-explorer report (report.html)\n\
         \x20 import <file>         add a shared JSON knowledge object to the store\n\
         \x20 jube <config file>    quick sweep: `sweep` with its journal in memory\n\
         \x20                       (same options; no campaign directory, no resume)\n\
         \x20 sweep <config file>   durable sweep campaign: journaled state, retries,\n\
         \x20                       quarantine (--campaign <dir>, --max-parallel <n>,\n\
         \x20                       --wp-deadline <ms>, --quarantine <n>)\n\
         \x20 sweep --resume <dir>  resume a killed campaign from its journal\n\
         \x20 corpus gen            generate a deterministic IO500 corpus: seeded sweep\n\
         \x20                       over cluster shapes, filesystems and fault mixes,\n\
         \x20                       resumable from the store (--runs <n>, --seed <n>,\n\
         \x20                       --campaign <dir>); every 32nd point is an outlier\n\
         \x20 agg                   aggregation pushdown over the store: group-by +\n\
         \x20                       percentiles/histograms inside the segments\n\
         \x20                       (--group all|kind|api|tasks|xfer, --factor bw|\n\
         \x20                       bw_score|md_score|total_score|tasks|xfer|block|\n\
         \x20                       warnings, --correlate <f1,f2,…>, --outliers to\n\
         \x20                       flag runs outside their group's percentile band)\n\
         \x20 serve                 HTTP knowledge-explorer service (--addr <host:port>,\n\
         \x20                       --workers <n>, --queue <n>, --cache-bytes <n>,\n\
         \x20                       --request-deadline-ms <n> per-request budget (504\n\
         \x20                       past it), --max-per-peer <n> connection cap,\n\
         \x20                       --rate <req/s> per-peer rate limit,\n\
         \x20                       --max-conns <n> global open-connection cap,\n\
         \x20                       --idle-timeout-ms <n> keep-alive idle reaping,\n\
         \x20                       --serve-ms <n> to stop after a fixed window); a\n\
         \x20                       damaged store serves read-only, /healthz reports it\n\
         \x20 fsck                  check the manifest, the log and the segments of the\n\
         \x20                       knowledge base (--repair to fix, --journal <path>\n\
         \x20                       to also salvage a torn event-journal tail)\n\
         \x20 compact               merge small sealed segments and drop deleted runs\n\
         \x20                       from the segmented store (prints the plan and the\n\
         \x20                       resulting report)\n\
         \x20 trace <journal>       span tree + per-phase latency from a --trace journal\n\
         \x20 stack                 print the simulated parallel I/O stack (Fig. 1)\n\n\
         OPTIONS: --db <path> --tasks <n> --ppn <n> --seed <n> --iterations <n>\n\
         \x20        --retries <n> --phase-deadline <ms>   (resilience: retry transient\n\
         \x20        phase failures with seeded backoff; budget per phase)\n\
         \x20        --metrics <path>   dump the run's metrics registry as JSON\n\
         \x20        --trace <path>     stream span/log events to a checksummed journal\n\n\
         EXIT CODES: 0 ok, 1 error, 2 usage, 3 transient phase failure,\n\
         \x20        4 permanent phase failure, 5 corrupt knowledge base"
    );
}

fn open_store(opts: &Options) -> Result<KnowledgeStore, CliError> {
    KnowledgeStore::open(opts.db.clone()).map_err(store_err)
}

/// Run the three store-level anomaly detectors under a detached context
/// (these invocations happen outside a running cycle).
fn run_detectors(items: &[KnowledgeItem]) -> Result<Vec<Finding>, CliError> {
    let mut ctx = PhaseCtx::detached(PhaseKind::Analysis, "iokc-detect");
    let mut findings = Vec::new();
    findings.extend(
        IterationVarianceDetector::default()
            .analyze(&mut ctx, items)
            .map_err(cycle_err)?,
    );
    findings.extend(
        BoundingBoxDetector::default()
            .analyze(&mut ctx, items)
            .map_err(cycle_err)?,
    );
    findings.extend(
        TrendDetector::default()
            .analyze(&mut ctx, items)
            .map_err(cycle_err)?,
    );
    Ok(findings)
}

/// Observability for cycle-driving commands: the recorder runs on a
/// virtual clock (phase/module spans report *simulated* time, which is
/// what the backend actually models), and `--trace <path>` streams every
/// event into a checksummed journal that `iokc trace` can replay.
fn setup_observability(opts: &Options) -> Result<Observability, CliError> {
    let clock = Clock::Virtual(VirtualClock::new());
    let recorder = match &opts.trace_out {
        Some(path) => {
            let sink = iokc_store::JournalEventSink::open(path)
                .map_err(|e| format!("open {}: {e}", path.display()))?;
            Recorder::new(clock, std::sync::Arc::new(sink))
        }
        None => Recorder::new(clock, std::sync::Arc::new(NullSink)),
    };
    Ok(Observability::new(recorder))
}

/// After a cycle command (even a failed one): dump `--metrics` as stable
/// JSON and point at the `--trace` journal.
fn finish_observability(opts: &Options, obs: &Observability) -> Result<(), CliError> {
    if let Some(path) = &opts.metrics_out {
        let json = obs.metrics().to_json().to_pretty();
        std::fs::write(path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote metrics to {}", path.display());
    }
    if let Some(path) = &opts.trace_out {
        println!(
            "wrote event journal to {} (inspect with `iokc trace {}`)",
            path.display(),
            path.display()
        );
    }
    Ok(())
}

/// `iokc fsck [--repair]` — offline integrity check of the knowledge
/// base: its manifest, the active generation's log, the sealed segments
/// and (with `--journal <path>`) an event journal's tail. Reports
/// findings on stdout; with `--repair` it fixes what it can (truncate a
/// torn log or journal tail, drop orphan rows, sweep stray files) and
/// never touches a store whose manifest does not verify. Exits 5
/// (corrupt) while unrepaired damage remains, so scripts can gate on the
/// exit code.
fn cmd_fsck(opts: &Options) -> Result<(), CliError> {
    let fsck_opts = iokc_store::FsckOptions {
        repair: opts.repair,
        journal: opts.journal.clone(),
    };
    let report = iokc_store::fsck(&opts.db, &iokc_store::StdVfs, &fsck_opts);
    for finding in &report.findings {
        let tag = if finding.repaired {
            "repaired"
        } else {
            "found"
        };
        println!("{tag}: {}", finding.what);
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    if let Some(path) = &opts.metrics_out {
        // Same schema-1 dump the cycle commands write, so dashboards can
        // scrape repair activity alongside the robustness counters.
        let metrics = iokc_obs::MetricsRegistry::new();
        let _ = metrics.counter("store.faults_injected");
        let _ = metrics.counter("store.open_degraded");
        metrics
            .counter("store.fsck_repairs")
            .add(report.repaired() as u64);
        let json = metrics.to_json().to_pretty();
        std::fs::write(path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote metrics to {}", path.display());
    }
    if report.clean() {
        println!("fsck: {} clean", opts.db.display());
        Ok(())
    } else if report.unrepaired() == 0 {
        println!("fsck: {} finding(s), all repaired", report.findings.len());
        Ok(())
    } else {
        let hint = if opts.repair {
            "damage is beyond repair; the store will still open read-only"
        } else {
            "rerun with --repair to fix what can be fixed"
        };
        Err(CliError {
            kind: CliErrorKind::Corrupt,
            message: format!(
                "{} unrepaired finding(s) in {} ({hint})",
                report.unrepaired(),
                opts.db.display()
            ),
        })
    }
}

/// `iokc compact` — offline segment maintenance: merge the sealed
/// segments into one, dropping tombstoned (deleted) runs and rewriting
/// the per-segment index blocks. Prints the plan first so operators can
/// see what a no-op means (one segment, no tombstones: nothing to do).
fn cmd_compact(opts: &Options) -> Result<(), CliError> {
    let mut store = open_store(opts)?;
    let plan = store.compaction_plan();
    if plan.is_noop() {
        println!(
            "compact: nothing to do ({} sealed segment(s), {} tombstone(s))",
            plan.input_segments.len(),
            plan.tombstones_to_drop
        );
        return Ok(());
    }
    println!(
        "compact: merging segments {:?}, dropping {} tombstone(s)",
        plan.input_segments, plan.tombstones_to_drop
    );
    let report = store.compact().map_err(store_err)?;
    match report.output_segment {
        Some(id) => println!(
            "compact: {} segment(s) -> segment {id}, {} run(s) rewritten, {} tombstone(s) dropped",
            report.segments_merged, report.runs_rewritten, report.tombstones_dropped
        ),
        None => println!(
            "compact: {} segment(s) merged away entirely ({} tombstone(s) dropped)",
            report.segments_merged, report.tombstones_dropped
        ),
    }
    println!(
        "compact: {} byte(s) copied, {} byte(s) encoded",
        report.bytes_copied, report.bytes_encoded
    );
    Ok(())
}

/// `iokc serve` — run the embedded HTTP knowledge-explorer service over
/// the store. Unlike the cycle commands this is a live server, so the
/// recorder runs on the wall clock; `--serve-ms <n>` bounds the serving
/// window (useful for scripted smoke tests), otherwise the server runs
/// until the process is killed.
fn cmd_serve(opts: &Options) -> Result<(), CliError> {
    // Serving must survive a damaged image: fall back to a read-only
    // store over the empty schema rather than refusing to start, and let
    // `/healthz` report the degradation.
    let store = KnowledgeStore::open_or_degraded(opts.db.clone());
    if let (true, Some(detail)) = (store.is_read_only(), store.health().detail()) {
        eprintln!("iokc: warning: store degraded, serving read-only: {detail}");
    }
    let recorder = match &opts.trace_out {
        Some(path) => {
            let sink = iokc_store::JournalEventSink::open(path)
                .map_err(|e| format!("open {}: {e}", path.display()))?;
            Recorder::new(Clock::wall(), std::sync::Arc::new(sink))
        }
        None => Recorder::new(Clock::wall(), std::sync::Arc::new(NullSink)),
    };
    let config = iokc_explorerd::ServerConfig {
        addr: opts.serve_addr.clone(),
        workers: opts.serve_workers,
        queue: opts.serve_queue,
        cache_bytes: opts.serve_cache_bytes,
        request_deadline: std::time::Duration::from_millis(opts.request_deadline_ms),
        max_per_peer: opts.max_per_peer,
        rate_per_peer: opts.rate_per_peer,
        max_conns: opts.max_conns,
        idle_timeout: std::time::Duration::from_millis(opts.idle_timeout_ms),
        ..iokc_explorerd::ServerConfig::default()
    };
    let server = iokc_explorerd::Server::start(config, store, std::sync::Arc::new(recorder))
        .map_err(|e| format!("bind {}: {e}", opts.serve_addr))?;
    println!(
        "serving the knowledge explorer on http://{}",
        server.local_addr()
    );
    println!(
        "endpoints: / /api/runs /api/runs/<id> /api/io500/<id> /api/compare /api/boxplot \
         /api/agg /api/dist /api/corr /dist /corr /metrics /healthz"
    );
    match opts.serve_ms {
        Some(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            let stats = server.cache_stats();
            let metrics = server.metrics();
            server.shutdown();
            if let Some(path) = &opts.metrics_out {
                let json = metrics.to_json().to_pretty();
                std::fs::write(path, json + "\n")
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                println!("wrote metrics to {}", path.display());
            }
            println!(
                "serve window elapsed; cache: {} hit(s), {} miss(es), {} entrie(s) — shut down cleanly",
                stats.hits, stats.misses, stats.entries
            );
        }
        None => loop {
            // No signal handling without external crates: park until the
            // process is killed. The OS reclaims the sockets on exit.
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    Ok(())
}

/// `iokc trace <journal>` — rebuild the span tree from an event journal
/// and print it with a per-phase latency table.
fn cmd_trace(opts: &Options) -> Result<(), CliError> {
    let path = opts
        .positional
        .first()
        .ok_or_else(|| CliError::usage("trace needs an event journal path"))?;
    let report = iokc_store::read_journal(std::path::Path::new(path))
        .map_err(|e| format!("read {path}: {e}"))?;
    let mut events: Vec<Event> = Vec::new();
    let mut skipped = 0usize;
    for record in &report.records {
        match Event::parse_record(record) {
            Some(event) => events.push(event),
            None => skipped += 1,
        }
    }
    if events.is_empty() {
        println!("no events in {path}");
        return Ok(());
    }
    let tree = obs_trace::build_span_tree(&events);
    print!("{}", obs_trace::render_tree(&tree));
    let rows = obs_trace::phase_latency(&tree);
    if !rows.is_empty() {
        println!("\n{}", obs_trace::render_latency_table(&rows));
    }
    if skipped > 0 {
        println!("note: skipped {skipped} record(s) of unknown kind (written by a newer iokc?)");
    }
    if report.torn_tail {
        println!(
            "note: the journal had a torn tail (crash mid-append); the valid prefix was shown"
        );
    }
    Ok(())
}

/// A simulated FUCHS-CSC world seeded `seed`, with every ancestor
/// directory of `path` already made.
fn fuchs_world(seed: u64, path: &str) -> Result<World, String> {
    let mut world = World::new(SystemConfig::fuchs_csc(), FaultPlan::none(), seed);
    mkdir_p(&mut world, path).map_err(|e| e.to_string())?;
    Ok(world)
}

fn cmd_run(opts: &Options) -> Result<(), CliError> {
    let command = opts
        .positional
        .first()
        .ok_or_else(|| CliError::usage("run needs an ior command string"))?;
    let config = IorConfig::parse_command(command).map_err(CliError::usage)?;
    let world = fuchs_world(opts.seed, &config.test_file)?;
    let layout = JobLayout::new(opts.tasks, opts.ppn.min(opts.tasks));
    let mut generator = IorGenerator::new(world, layout, config, opts.seed);
    generator.with_darshan = true;

    let mut cycle = KnowledgeCycle::new();
    cycle.set_resilience(opts.resilience());
    cycle.set_observability(setup_observability(opts)?);
    cycle
        .register(ModuleBox::generator(generator))
        .register(ModuleBox::extractor(IorExtractor))
        .register(ModuleBox::extractor(DarshanExtractor))
        .register(ModuleBox::persister(open_store(opts)?))
        .register(ModuleBox::analyzer(IterationVarianceDetector::default()));
    let result = cycle.run_once();
    finish_observability(opts, cycle.observability())?;
    let report = result.map_err(cycle_err)?;
    println!(
        "generated {} artifacts, extracted {} knowledge objects, persisted ids {:?}",
        report.artifacts, report.extracted, report.persisted_ids
    );
    for finding in &report.findings {
        println!("[{}] {}", finding.tag, finding.message);
    }
    let store = open_store(opts)?;
    if let Some(id) = report.persisted_ids.first() {
        if let Some(knowledge) = store.load_knowledge(*id).map_err(store_err)? {
            println!("\n{}", render_knowledge(&knowledge));
        }
    }
    Ok(())
}

fn cmd_io500(opts: &Options) -> Result<(), CliError> {
    let world = fuchs_world(opts.seed, "/scratch/io500/x")?;
    let layout = JobLayout::new(opts.tasks, opts.ppn.min(opts.tasks));
    let generator = Io500Generator::new(world, layout, Io500Config::standard("/scratch/io500"));
    let mut cycle = KnowledgeCycle::new();
    cycle.set_resilience(opts.resilience());
    cycle.set_observability(setup_observability(opts)?);
    cycle
        .register(ModuleBox::generator(generator))
        .register(ModuleBox::extractor(Io500Extractor))
        .register(ModuleBox::persister(open_store(opts)?))
        .register(ModuleBox::analyzer(BoundingBoxDetector::default()));
    let result = cycle.run_once();
    finish_observability(opts, cycle.observability())?;
    let report = result.map_err(cycle_err)?;
    println!("io500 complete: persisted ids {:?}", report.persisted_ids);
    for finding in &report.findings {
        println!("[{}] {}", finding.tag, finding.message);
    }
    let store = open_store(opts)?;
    if let Some(id) = report.persisted_ids.first() {
        if let Some(k) = store.load_io500(*id).map_err(store_err)? {
            println!("\n{}", render_io500(&k));
        }
    }
    Ok(())
}

fn cmd_mdtest(opts: &Options) -> Result<(), CliError> {
    let command = opts
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("mdtest -n 200 -d /scratch/md -u");
    let config = MdtestConfig::parse_command(command).map_err(CliError::usage)?;
    let world = fuchs_world(opts.seed, &format!("{}/x", config.dir))?;
    let layout = JobLayout::new(opts.tasks, opts.ppn.min(opts.tasks));
    let generator = MdtestGenerator::new(world, layout, config);
    let mut cycle = KnowledgeCycle::new();
    cycle.set_resilience(opts.resilience());
    cycle.set_observability(setup_observability(opts)?);
    cycle
        .register(ModuleBox::generator(generator))
        .register(ModuleBox::extractor(MdtestExtractor))
        .register(ModuleBox::persister(open_store(opts)?));
    let result = cycle.run_once();
    finish_observability(opts, cycle.observability())?;
    let report = result.map_err(cycle_err)?;
    println!("mdtest complete: persisted ids {:?}", report.persisted_ids);
    let store = open_store(opts)?;
    if let Some(id) = report.persisted_ids.first() {
        if let Some(k) = store.load_knowledge(*id).map_err(store_err)? {
            println!("\n{}", render_knowledge(&k));
        }
    }
    Ok(())
}

fn cmd_hacc(opts: &Options) -> Result<(), CliError> {
    // Particle count arrives as the first positional (default 2M).
    let particles: u64 = opts
        .positional
        .first()
        .map(|v| v.parse().map_err(|_| CliError::usage("bad particle count")))
        .transpose()?
        .unwrap_or(2_000_000);
    let world = fuchs_world(opts.seed, "/scratch/hacc/x")?;
    let layout = JobLayout::new(opts.tasks, opts.ppn.min(opts.tasks));
    let config = HaccConfig::new(
        particles,
        iokc_benchmarks::FileMode::FilePerProcess,
        iokc_sim::api::IoApi::MpiIo { collective: false },
        "/scratch/hacc/part",
    );
    let generator = HaccGenerator::new(world, layout, config);
    let mut cycle = KnowledgeCycle::new();
    cycle.set_resilience(opts.resilience());
    cycle.set_observability(setup_observability(opts)?);
    cycle
        .register(ModuleBox::generator(generator))
        .register(ModuleBox::extractor(HaccExtractor))
        .register(ModuleBox::persister(open_store(opts)?));
    let result = cycle.run_once();
    finish_observability(opts, cycle.observability())?;
    let report = result.map_err(cycle_err)?;
    println!("hacc-io complete: persisted ids {:?}", report.persisted_ids);
    let store = open_store(opts)?;
    if let Some(id) = report.persisted_ids.first() {
        if let Some(k) = store.load_knowledge(*id).map_err(store_err)? {
            println!("\n{}", render_knowledge(&k));
        }
    }
    Ok(())
}

fn cmd_list(opts: &Options) -> Result<(), CliError> {
    let store = open_store(opts)?;
    // Summary projection: the listing never needs per-iteration results,
    // so nothing is fully deserialized.
    let rows = store
        .query_summaries(&Query::all(), &DeadlineToken::unbounded())
        .map_err(store_err)?;
    if rows.is_empty() {
        println!("knowledge base is empty ({})", opts.db.display());
        return Ok(());
    }
    let mut table = iokc_util::table::TextTable::new(vec!["kind", "id", "summary"]);
    for row in &rows {
        match row.kind {
            RunKind::Benchmark => {
                let bw = row
                    .op("write")
                    .map(|s| format!("write mean {:.0} MiB/s", s.mean_mib))
                    .unwrap_or_else(|| "no write summary".to_owned());
                table.push_row(vec![
                    "benchmark".to_owned(),
                    row.id.to_string(),
                    format!("{} | {}", row.command, bw),
                ]);
            }
            RunKind::Io500 => {
                table.push_row(vec![
                    "io500".to_owned(),
                    row.id.to_string(),
                    format!("tasks {} | total score {:.4}", row.tasks, row.total_score),
                ]);
            }
        }
    }
    print!("{}", table.render());
    Ok(())
}

/// The run filter the flags state: `--kind` plus every flag kept in
/// [`Options::filter`].
fn run_filter(opts: &Options) -> Result<RunFilter, CliError> {
    let kind = opts.filter_kind.as_deref().map(str::parse).transpose();
    Ok(RunFilter {
        kind: kind.map_err(CliError::flag)?,
        ..opts.filter.clone()
    })
}

/// `iokc query` — the typed query engine from the shell: filters are
/// pushed down into the store and only summary projections come back,
/// never full knowledge objects.
fn cmd_query(opts: &Options) -> Result<(), CliError> {
    let store = open_store(opts)?;
    let predicate = run_filter(opts)?.predicate();
    if opts.count_only {
        println!("{}", store.count(&predicate).map_err(store_err)?);
        return Ok(());
    }
    let order: RunOrder = opts.sort.parse().map_err(CliError::flag)?;
    let mut query = Query::new(predicate).order_by(order).offset(opts.offset);
    if opts.order_desc {
        query = query.descending();
    }
    if let Some(limit) = opts.limit {
        query = query.limit(limit);
    }
    let rows = store
        .query_summaries(&query, &DeadlineToken::unbounded())
        .map_err(store_err)?;
    if rows.is_empty() {
        println!("no matching runs");
        return Ok(());
    }
    let mut table = iokc_util::table::TextTable::new(vec![
        "kind",
        "id",
        "tasks",
        "api",
        "bandwidth",
        "command",
    ]);
    for row in &rows {
        table.push_row(vec![
            row.kind.as_str().to_owned(),
            row.id.to_string(),
            row.tasks.to_string(),
            row.api.clone(),
            format!("{:.1}", row.bandwidth()),
            row.command.clone(),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn parse_id(opts: &Options) -> Result<u64, CliError> {
    opts.positional
        .first()
        .ok_or_else(|| CliError::usage("missing knowledge id"))?
        .parse()
        .map_err(|_| CliError::usage("knowledge id must be a number"))
}

fn cmd_view(opts: &Options) -> Result<(), CliError> {
    let store = open_store(opts)?;
    let id = parse_id(opts)?;
    if let Some(k) = store.load_knowledge(id).map_err(store_err)? {
        println!("{}", render_knowledge(&k));
        return Ok(());
    }
    if let Some(k) = store.load_io500(id).map_err(store_err)? {
        println!("{}", render_io500(&k));
        return Ok(());
    }
    Err(CliError::from(format!("no knowledge object with id {id}")))
}

fn cmd_compare(opts: &Options) -> Result<(), CliError> {
    let store = open_store(opts)?;
    let axis = OptionAxis::parse(&opts.axis).map_err(CliError::flag)?;
    let metric = MetricAxis::MeanBandwidth(opts.metric.clone());
    // Every filter flag is pushed down into the store; the comparison
    // charts benchmark runs, over their summary projections.
    let filter = run_filter(opts)?;
    if filter.kind == Some(RunKind::Io500) {
        return Err(CliError::usage(
            "compare charts benchmark runs; --kind io500 selects none",
        ));
    }
    let filter = RunFilter {
        kind: Some(RunKind::Benchmark),
        ..filter
    };
    let rows = store
        .query_summaries(&Query::new(filter.predicate()), &DeadlineToken::unbounded())
        .map_err(store_err)?;
    let points = compare(&rows, axis, &metric);
    if points.is_empty() {
        println!("no comparable knowledge for metric `{}`", opts.metric);
        return Ok(());
    }
    let mut table = iokc_util::table::TextTable::new(vec![axis.label().to_owned(), metric.label()]);
    for p in &points {
        table.push_row(vec![format!("{}", p.x), format!("{:.2}", p.y)]);
    }
    print!("{}", table.render());
    let bars: Vec<(String, f64)> = points.iter().map(|p| (format!("{}", p.x), p.y)).collect();
    println!("\n{}", iokc_analysis::ascii_bars(&bars, 40));
    Ok(())
}

fn cmd_detect(opts: &Options) -> Result<(), CliError> {
    let store = open_store(opts)?;
    // The detectors inspect per-iteration results, so this is a genuine
    // full projection — the one read that must deserialize everything.
    let items = store.query_items(&Query::all()).map_err(store_err)?;
    let findings = run_detectors(&items)?;
    if findings.is_empty() {
        println!(
            "no anomalies detected across {} knowledge objects",
            items.len()
        );
    }
    for finding in findings {
        println!(
            "[{}] (knowledge {}) {}",
            finding.tag,
            finding
                .knowledge_id
                .map(|i| i.to_string())
                .unwrap_or_else(|| "?".to_owned()),
            finding.message
        );
    }
    Ok(())
}

fn cmd_recommend(opts: &Options) -> Result<(), CliError> {
    let store = open_store(opts)?;
    let id = parse_id(opts)?;
    let knowledge = store
        .load_knowledge(id)
        .map_err(store_err)?
        .ok_or_else(|| format!("no benchmark knowledge with id {id}"))?;
    let recommendations = recommend(&knowledge);
    if recommendations.is_empty() {
        println!("no recommendations — the configuration looks well tuned");
    }
    for r in recommendations {
        println!("[{}] {}", r.rule, r.message);
    }
    Ok(())
}

fn cmd_sql(opts: &Options) -> Result<(), CliError> {
    let store = open_store(opts)?;
    let query = opts
        .positional
        .first()
        .ok_or_else(|| CliError::usage("sql needs a query string"))?;
    // SQL queries the whole corpus, so materialize a snapshot: every
    // sealed segment plus the active generation, minus tombstones,
    // merged into one database.
    let db = store.snapshot().materialize().map_err(store_err)?;
    match iokc_store::sql::select(&db, query).map_err(|e| e.to_string())? {
        iokc_store::sql::QueryResult::Count(n) => println!("{n}"),
        iokc_store::sql::QueryResult::Rows { columns, rows } => {
            let mut table = iokc_util::table::TextTable::new(columns);
            for row in rows {
                table.push_row(row.iter().map(|v| v.to_string()).collect());
            }
            print!("{}", table.render());
        }
    }
    Ok(())
}

fn cmd_cycle(opts: &Options) -> Result<(), CliError> {
    let command = opts
        .positional
        .first()
        .ok_or_else(|| CliError::usage("cycle needs an ior command string"))?;
    let config = IorConfig::parse_command(command).map_err(CliError::usage)?;
    let world = fuchs_world(opts.seed, &config.test_file)?;
    let layout = JobLayout::new(opts.tasks, opts.ppn.min(opts.tasks));
    let generator = IorGenerator::new(world, layout, config, opts.seed);
    let mut cycle = KnowledgeCycle::new();
    cycle.set_resilience(opts.resilience());
    cycle.set_observability(setup_observability(opts)?);
    cycle
        .register(ModuleBox::generator(generator))
        .register(ModuleBox::extractor(IorExtractor))
        .register(ModuleBox::persister(open_store(opts)?))
        .register(ModuleBox::analyzer(IterationVarianceDetector::default()))
        .register(ModuleBox::usage(RegenerateUsage::default()));
    let result = cycle.run_iterative(opts.iterations);
    finish_observability(opts, cycle.observability())?;
    let reports = result.map_err(cycle_err)?;
    println!("cycle ran {} iteration(s)", reports.len());
    for (i, report) in reports.iter().enumerate() {
        println!(
            "  iteration {}: {} artifacts, ids {:?}, next commands {:?}",
            i + 1,
            report.artifacts,
            report.persisted_ids,
            report.usage.new_commands
        );
    }
    Ok(())
}

fn cmd_report(opts: &Options) -> Result<(), CliError> {
    let store = open_store(opts)?;
    // The detectors read per-iteration results, so they take the full
    // projection; the report itself is drawn from summary rows and the
    // box-plot projection.
    let items = store.query_items(&Query::all()).map_err(store_err)?;
    let findings = run_detectors(&items)?;
    let open = DeadlineToken::unbounded();
    let rows = store
        .query_summaries(&Query::all(), &open)
        .map_err(store_err)?;
    let series = store
        .boxplot_series(&RunPredicate::True, "write", &open)
        .map_err(store_err)?;
    let html = iokc_analysis::render_html(&rows, &overview(&series), &findings);
    let path = opts
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("report.html");
    std::fs::write(path, html).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "wrote {path} ({} knowledge objects, {} findings)",
        rows.len(),
        findings.len()
    );
    Ok(())
}

fn cmd_export(opts: &Options) -> Result<(), CliError> {
    let store = open_store(opts)?;
    let id = parse_id(opts)?;
    let item = if let Some(k) = store.load_knowledge(id).map_err(store_err)? {
        KnowledgeItem::Benchmark(k)
    } else if let Some(k) = store.load_io500(id).map_err(store_err)? {
        KnowledgeItem::Io500(k)
    } else {
        return Err(CliError::from(format!("no knowledge object with id {id}")));
    };
    let json = item.to_json().to_pretty();
    match opts.positional.get(1) {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
            println!("exported knowledge {id} to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_import(opts: &Options) -> Result<(), CliError> {
    let path = opts
        .positional
        .first()
        .ok_or_else(|| CliError::usage("import needs a file path"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let json = iokc_util::json::parse(&text).map_err(|e| e.to_string())?;
    let item = KnowledgeItem::from_json(&json).ok_or("the file is not a valid knowledge object")?;
    let mut store = open_store(opts)?;
    let id = match &item {
        KnowledgeItem::Benchmark(k) => store.save_knowledge(k).map_err(store_err)?,
        KnowledgeItem::Io500(k) => store.save_io500(k).map_err(store_err)?,
    };
    println!("imported knowledge object as id {id}");
    Ok(())
}

fn cmd_dxt(opts: &Options) -> Result<(), CliError> {
    let command = opts
        .positional
        .first()
        .ok_or_else(|| CliError::usage("dxt needs an ior command string"))?;
    let config = IorConfig::parse_command(command).map_err(CliError::usage)?;
    let mut world = fuchs_world(opts.seed, &config.test_file)?;
    let layout = JobLayout::new(opts.tasks, opts.ppn.min(opts.tasks));
    let result = run_ior(&mut world, layout, &config, opts.seed).map_err(|e| e.to_string())?;
    let phases: Vec<&iokc_sim::metrics::PhaseResult> =
        result.phases.iter().map(|(_, _, p)| p).collect();
    let log = darshan_from_phases(
        &phases,
        &InstrumentOptions {
            job_id: opts.seed,
            nprocs: layout.np,
            exe: "ior".to_owned(),
            dxt: true,
            api: config.api,
            start_unix: 1_656_590_400,
        },
    );
    let timeline =
        iokc_analysis::DxtTimeline::from_log(&log).ok_or("the run produced no DXT segments")?;
    print!("{}", timeline.render_report());
    if let Some(profile) = iokc_analysis::classify(&log) {
        println!("\n{}", iokc_analysis::render_profile(&profile));
    }
    std::fs::create_dir_all("figures").map_err(|e| e.to_string())?;
    let svg = timeline.render_timeline_svg(&iokc_analysis::ChartOptions {
        title: format!("DXT timeline — {command}"),
        ..iokc_analysis::ChartOptions::default()
    });
    std::fs::write("figures/dxt_timeline.svg", svg).map_err(|e| e.to_string())?;
    let (matrix, rank_ids) = timeline.heat_map(64);
    let labels: Vec<String> = rank_ids.iter().map(|r| format!("rank {r}")).collect();
    let heat = iokc_analysis::heat_map(
        &matrix,
        &labels,
        &iokc_analysis::ChartOptions {
            title: "DXT transfer heat map (bytes per window)".into(),
            x_label: "time".into(),
            ..iokc_analysis::ChartOptions::default()
        },
    );
    std::fs::write("figures/dxt_heatmap.svg", heat).map_err(|e| e.to_string())?;
    println!(
        "
wrote figures/dxt_timeline.svg and figures/dxt_heatmap.svg"
    );
    Ok(())
}

/// `iokc jube` — `iokc sweep` without durability: the same campaign,
/// journaled to an in-memory disk, so it leaves no file behind and no
/// earlier campaign directory can refuse an edited config.
fn cmd_jube(opts: &Options) -> Result<(), CliError> {
    let path = opts
        .positional
        .first()
        .ok_or_else(|| CliError::usage("jube needs a config file path"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let config = iokc_jube::JubeConfig::parse(&text).map_err(|e| CliError::usage(e.to_string()))?;
    sweep_campaign(opts, &config, None)
}

/// Classify a campaign failure for the exit-code taxonomy: a journal
/// that belongs to another configuration, or a store holding another
/// campaign's results, is a usage error; invalid parameter combinations
/// and fatal step failures are permanent; a failed cycle phase keeps its
/// own class; journal I/O trouble is unclassified.
fn campaign_err(e: iokc_jube::CampaignError) -> CliError {
    let kind = match &e {
        iokc_jube::CampaignError::Io(_) => CliErrorKind::Other,
        iokc_jube::CampaignError::Mismatch { .. }
        | iokc_jube::CampaignError::ForeignResults { .. } => CliErrorKind::Usage,
        iokc_jube::CampaignError::Sweep(_) => CliErrorKind::Permanent,
        iokc_jube::CampaignError::Phase(error) => class_kind(error.class),
    };
    CliError {
        kind,
        message: e.to_string(),
    }
}

fn cmd_sweep(opts: &Options) -> Result<(), CliError> {
    // `--resume <dir>` reads the configuration copy stored in the
    // campaign directory on the first run, so resumption needs no
    // config argument (and cannot accidentally pass a different one).
    let (dir, text) = match &opts.resume {
        Some(dir) => {
            let path = dir.join(iokc_jube::campaign::CONFIG_FILE);
            let text = std::fs::read_to_string(&path).map_err(|e| {
                CliError::usage(format!(
                    "--resume: cannot read {} (was this directory created by `iokc sweep`?): {e}",
                    path.display()
                ))
            })?;
            (dir.clone(), text)
        }
        None => {
            let config_path = opts
                .positional
                .first()
                .ok_or_else(|| CliError::usage("sweep needs a config file (or --resume <dir>)"))?;
            let text = std::fs::read_to_string(config_path)
                .map_err(|e| format!("read {config_path}: {e}"))?;
            let dir = opts
                .campaign
                .clone()
                .unwrap_or_else(|| PathBuf::from(format!("{config_path}.campaign")));
            (dir, text)
        }
    };
    let config = iokc_jube::JubeConfig::parse(&text).map_err(|e| CliError::usage(e.to_string()))?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let config_copy = dir.join(iokc_jube::campaign::CONFIG_FILE);
    if !config_copy.exists() {
        std::fs::write(&config_copy, &text)
            .map_err(|e| format!("write {}: {e}", config_copy.display()))?;
    }
    sweep_campaign(opts, &config, Some(&dir))
}

/// Run `config` as a campaign on the simulated system and print its
/// report. Its journal lives in `dir` on the real disk (`iokc sweep`),
/// or, with no `dir` (`iokc jube`), on an in-memory disk that is gone
/// when the command returns.
fn sweep_campaign(
    opts: &Options,
    config: &iokc_jube::JubeConfig,
    dir: Option<&Path>,
) -> Result<(), CliError> {
    let memory = FaultVfs::pristine();
    let (disk, journal_dir): (&dyn Vfs, &Path) = match dir {
        Some(dir) => (&StdVfs, dir),
        None => (&memory, Path::new("memory")),
    };
    let obs = setup_observability(opts)?;
    let options = iokc_jube::CampaignOptions {
        max_parallel: opts.max_parallel,
        wp_deadline_ms: opts.wp_deadline_ms,
        retry: RetryPolicy::with_retries(opts.retries).seeded(opts.seed),
        quarantine_threshold: opts.quarantine,
        abort: None,
        recorder: Some(std::sync::Arc::clone(obs.recorder())),
    };
    let hooks =
        iokc_benchmarks::SimCampaignRunner::new(opts.seed, opts.tasks, opts.ppn.min(opts.tasks));
    let result = iokc_jube::run_campaign(config, journal_dir, disk, &options, || hooks.runner());
    finish_observability(opts, &obs)?;
    let report = result.map_err(campaign_err)?;

    println!(
        "campaign `{}` in {}: {}",
        config.name,
        journal_dir.display(),
        report.summary
    );
    if report.torn_tail {
        println!("note: the journal had a torn tail (crash mid-append); the valid prefix was used");
    }
    let combos = config.expand();
    for (wp, reason) in &report.quarantined {
        let params = combos
            .get(*wp)
            .map(|params| {
                params
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<String>>()
                    .join(", ")
            })
            .unwrap_or_default();
        println!("quarantined {wp:06} [{params}]: {reason}");
    }
    for straggler in &report.stragglers {
        println!("straggler: {straggler}");
    }
    print!("{}", report.workspace.result_table(config).render());
    // Quarantined combinations do not fail the sweep: the campaign is
    // complete when every workpackage reached a terminal state. Anything
    // still re-runnable exits transient so schedulers re-invoke us.
    if !report.summary.is_complete() {
        let rerun = match dir {
            Some(dir) => format!("resume with `iokc sweep --resume {}`", dir.display()),
            None => "run it again (`iokc sweep` keeps a journal to resume from)".to_owned(),
        };
        return Err(CliError {
            kind: CliErrorKind::Transient,
            message: format!(
                "campaign incomplete ({} workpackage(s) remaining) — {rerun}",
                report.summary.remaining(),
            ),
        });
    }
    Ok(())
}

/// `iokc corpus gen` — generate a fleet-scale IO500 corpus: a seeded
/// deterministic sweep over cluster shapes, file-system variants and
/// fault mixes, every rendered submission routed through the normal
/// extract path into the store. The store is the record of which
/// submissions exist, so a killed generation resumes where it stopped and
/// re-running a finished one is a no-op; the campaign directory's journal
/// holds the spec's fingerprint, so a resume under another seed is
/// refused.
fn cmd_corpus(opts: &Options) -> Result<(), CliError> {
    match opts.positional.first().map(String::as_str) {
        Some("gen") => cmd_corpus_gen(opts),
        Some(other) => Err(CliError::usage(format!(
            "unknown corpus subcommand `{other}` (expected gen)"
        ))),
        None => Err(CliError::usage("corpus needs a subcommand: gen")),
    }
}

fn cmd_corpus_gen(opts: &Options) -> Result<(), CliError> {
    let spec = iokc_benchmarks::CorpusSpec::new(opts.runs, opts.seed);
    let dir = opts.campaign.clone().unwrap_or_else(|| {
        let mut name = opts.db.as_os_str().to_owned();
        name.push(".corpus");
        PathBuf::from(name)
    });
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut store = open_store(opts)?;
    let (generated, skipped) =
        iokc_benchmarks::corpus::generate(&spec, &Io500Extractor, &mut store, &dir, 512)
            .map_err(campaign_err)?;
    let total = store
        .count(&RunPredicate::Kind(RunKind::Io500))
        .map_err(store_err)?;
    println!(
        "corpus: generated {generated} submission(s), skipped {skipped} already stored; \
         store now holds {total} io500 run(s) (journal: {})",
        iokc_jube::journal_path(&dir).display()
    );
    Ok(())
}

/// `iokc agg` — corpus analytics from the shell: group-by aggregation
/// with streaming statistics pushed down into the store (percentiles,
/// histograms, optional correlation matrix), and `--outliers` to flag
/// runs outside their group's percentile band.
fn cmd_agg(opts: &Options) -> Result<(), CliError> {
    use iokc_store::{AggregateQuery, Factor, GroupBy};

    let group = GroupBy::parse(&opts.group).map_err(CliError::flag)?;
    let factor = Factor::parse(&opts.factor).map_err(CliError::flag)?;
    let predicate = run_filter(opts)?.predicate();
    let mut query = AggregateQuery::new(group, factor).with_predicate(predicate.clone());
    if let Some(list) = &opts.correlate {
        let factors = list
            .split(',')
            .map(|name| Factor::parse(name.trim()))
            .collect::<Result<Vec<Factor>, UnknownName>>()
            .map_err(CliError::usage)?;
        query = query.with_correlation(&factors);
    }

    let store = open_store(opts)?;
    let result = store
        .aggregate(&query, &DeadlineToken::unbounded())
        .map_err(store_err)?;
    if result.groups.is_empty() {
        println!("no matching runs");
        return Ok(());
    }
    println!(
        "aggregated {} run(s): metric {} grouped by {}",
        result.rows_aggregated,
        factor.as_str(),
        group.as_str()
    );
    let mut table = iokc_util::table::TextTable::new(vec![
        "group", "count", "min", "p50", "mean", "p99", "max", "stddev",
    ]);
    for g in &result.groups {
        table.push_row(vec![
            g.key.clone(),
            g.count.to_string(),
            format!("{:.2}", g.min),
            format!("{:.2}", g.percentile(0.5).unwrap_or(f64::NAN)),
            format!("{:.2}", g.mean),
            format!("{:.2}", g.percentile(0.99).unwrap_or(f64::NAN)),
            format!("{:.2}", g.max),
            format!("{:.2}", g.stddev),
        ]);
    }
    print!("{}", table.render());
    if let Some(corr) = &result.correlation {
        println!("\ncorrelation matrix (Pearson r):");
        let mut ctab = iokc_util::table::TextTable::new(
            std::iter::once("factor")
                .chain(corr.factors.iter().map(String::as_str))
                .collect(),
        );
        for (name, row) in corr.factors.iter().zip(&corr.matrix) {
            ctab.push_row(
                std::iter::once(name.clone())
                    .chain(row.iter().map(|r| format!("{r:+.3}")))
                    .collect(),
            );
        }
        print!("{}", ctab.render());
    }
    if opts.outliers {
        let boxes = iokc_analysis::CorpusBoxes::fit(
            &result,
            group,
            factor,
            iokc_analysis::DEFAULT_LOW_Q,
            iokc_analysis::DEFAULT_HIGH_Q,
            iokc_analysis::DEFAULT_MARGIN,
        );
        let rows = store
            .query_summaries(&Query::new(predicate), &DeadlineToken::unbounded())
            .map_err(store_err)?;
        println!();
        print!("{}", boxes.render(&boxes.flag(rows.iter())));
    }
    Ok(())
}

fn print_stack() {
    println!(
        "simulated parallel I/O architecture (paper Fig. 1)\n\
         \n\
         application layer  : IOR | mdtest | HACC-IO | IO500 (iokc-benchmarks)\n\
         high-level library : HDF5 layer (open/close/chunk-index costs)\n\
         middleware         : MPI-IO (independent + two-phase collective)\n\
         operating system   : POSIX ops, per-node page cache (iokc-sim)\n\
         parallel FS        : BeeGFS-like — 4 metadata servers, striped storage targets\n\
         storage hardware   : per-target disk + read-cache bandwidth, RAID write penalty\n\
         interconnect       : per-node NIC + shared fabric, max-min fair sharing"
    );
}
