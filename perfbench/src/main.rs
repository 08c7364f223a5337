//! `perf`: the repo's benchmark.
//!
//! ```text
//! perf --workload <name|all> --seed <u64> [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]
//! perf compare <a.jsonl> <b.jsonl>
//! ```
//!
//! Run from the root of the checkout. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

use iokc_perfbench::compare::{compare, parse_runs, render, Verdict};
use iokc_perfbench::run::{run, Args, Outcome};
use iokc_perfbench::spec::Spec;
use iokc_perfbench::workloads::NAMES;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perf --workload <name|all> --seed <u64> [--seconds <s>] \
                     [--trace <0|1>] [--smoke] [--out <file>]\n       \
                     perf compare <a.jsonl> <b.jsonl>";

/// Where traces go: the build's target directory, inside the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perf")
}

struct Cli {
    args: Args,
    all: bool,
    out: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        args: Args {
            workload: String::new(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: false,
        },
        all: false,
        out: None,
    };
    let mut seconds = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.args.workload = value()?,
            "--seed" => cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => cli.args.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cli.all = cli.args.workload == "all";
    if !cli.all && !NAMES.contains(&cli.args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            NAMES.join(", ")
        ));
    }
    // The smoke run does one round; a full run defaults to the length
    // BENCHMARK.json gives.
    cli.args.seconds = match seconds {
        Some(s) => s,
        None if cli.args.smoke => 0.0,
        None => Spec::load(Path::new("BENCHMARK.json"))?.run_seconds as f64,
    };
    Ok(cli)
}

/// The record `--out` appends: the result line plus what was run.
fn record(args: &Args, outcome: &Outcome) -> String {
    let line = outcome.to_json_line();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, {}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        &line[1..]
    )
}

fn run_one(args: &Args, out: Option<&Path>) -> Result<bool, String> {
    let outcome = run(args).ok_or("unknown workload")?;
    if let Some(trace) = &outcome.trace_json {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perf: trace written to {}", path.display());
    }
    if let Some(path) = out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(record(args, &outcome).as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "# {} seed {} {} {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    print!("{}", outcome.to_table());
    println!("{}", outcome.to_json_line());
    Ok(outcome.correct)
}

/// `--workload all`: each workload in a process of its own, so that
/// `peak_rss_mib` is per workload.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut correct = true;
    for name in NAMES {
        let mut command = std::process::Command::new(&exe);
        command
            .args(["--workload", name])
            .args(["--seed", &cli.args.seed.to_string()])
            .args(["--seconds", &cli.args.seconds.to_string()])
            .args(["--trace", if cli.args.trace { "1" } else { "0" }]);
        if cli.args.smoke {
            command.arg("--smoke");
        }
        if let Some(out) = &cli.out {
            command.arg("--out").arg(out);
        }
        let status = command.status().map_err(|e| format!("{name}: {e}"))?;
        correct &= status.success();
    }
    Ok(correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse_runs(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare(&spec, &read(a)?, &read(b)?);
    print!("{}", render(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regressed) == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare_files(a, b),
        _ => parse(argv.into_iter()).and_then(|cli| {
            if cli.all {
                run_all(&cli)
            } else {
                run_one(&cli.args, cli.out.as_deref())
            }
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
