//! End-to-end tests of the `iokc` binary: the full workflow a user would
//! drive from a shell, against a temp knowledge base.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iokc-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn iokc(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iokc"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("iokc binary runs")
}

fn stdout(output: &Output) -> String {
    assert!(
        output.status.success(),
        "iokc failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

const RUN_ARGS: [&str; 5] = [
    "run",
    "ior -a mpiio -b 1m -t 512k -s 2 -F -C -e -i 3 -o /scratch/cli -k",
    "--tasks",
    "8",
    "--db",
];

#[test]
fn run_list_view_sql_flow() {
    let dir = tempdir("flow");
    let mut args: Vec<&str> = RUN_ARGS.to_vec();
    args.push("kb.json");
    let out = stdout(&iokc(&dir, &args));
    assert!(out.contains("persisted ids"));

    let list = stdout(&iokc(&dir, &["list", "--db", "kb.json"]));
    assert!(list.contains("benchmark"));
    assert!(list.contains("ior -a mpiio"));

    let view = stdout(&iokc(&dir, &["view", "1", "--db", "kb.json"]));
    assert!(view.contains("I/O pattern:"));
    assert!(view.contains("per-iteration detail:"));

    let sql = stdout(&iokc(
        &dir,
        &[
            "sql",
            "SELECT command, tasks FROM performances WHERE api = 'MPIIO'",
            "--db",
            "kb.json",
        ],
    ));
    assert!(sql.contains("ior -a mpiio"));
    assert!(sql.contains('8'));

    let detect = stdout(&iokc(&dir, &["detect", "--db", "kb.json"]));
    assert!(detect.contains("no anomalies") || detect.contains('['));

    let recommend = stdout(&iokc(&dir, &["recommend", "1", "--db", "kb.json"]));
    assert!(
        recommend.contains("well tuned") || recommend.contains('['),
        "{recommend}"
    );
}

#[test]
fn export_import_shares_knowledge_between_bases() {
    let dir = tempdir("share");
    let mut args: Vec<&str> = RUN_ARGS.to_vec();
    args.push("local.json");
    stdout(&iokc(&dir, &args));
    stdout(&iokc(
        &dir,
        &["export", "1", "shared.json", "--db", "local.json"],
    ));
    let imported = stdout(&iokc(
        &dir,
        &["import", "shared.json", "--db", "global.json"],
    ));
    assert!(imported.contains("imported knowledge object as id 1"));
    let list = stdout(&iokc(&dir, &["list", "--db", "global.json"]));
    assert!(list.contains("ior -a mpiio"));
}

#[test]
fn report_writes_html() {
    let dir = tempdir("report");
    let mut args: Vec<&str> = RUN_ARGS.to_vec();
    args.push("kb.json");
    stdout(&iokc(&dir, &args));
    stdout(&iokc(&dir, &["report", "out.html", "--db", "kb.json"]));
    let html = std::fs::read_to_string(dir.join("out.html")).unwrap();
    assert!(html.contains("I/O knowledge explorer"));
    assert!(html.contains("ior -a mpiio"));
}

#[test]
fn errors_are_reported_not_panicked() {
    let dir = tempdir("errors");
    let bad = iokc(&dir, &["view", "99", "--db", "kb.json"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("no knowledge object"));

    let unknown = iokc(&dir, &["frobnicate"]);
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown command"));

    let badcmd = iokc(&dir, &["run", "fio --bs=4k", "--db", "kb.json"]);
    assert!(!badcmd.status.success());
    assert!(String::from_utf8_lossy(&badcmd.stderr).contains("invalid ior command"));
}

#[test]
fn error_classes_map_to_distinct_exit_codes() {
    let dir = tempdir("exitcodes");

    // Usage errors (bad command line) exit 2.
    let unknown = iokc(&dir, &["frobnicate"]);
    assert_eq!(unknown.status.code(), Some(2));
    let badflag = iokc(&dir, &["list", "--tasks", "zero"]);
    assert_eq!(badflag.status.code(), Some(2));
    let badcmd = iokc(&dir, &["run", "fio --bs=4k", "--db", "kb.json"]);
    assert_eq!(badcmd.status.code(), Some(2));

    // A corrupt knowledge-base image (and no recoverable backup) exits 5
    // with a one-line classified stderr message.
    std::fs::write(dir.join("kb.json"), "this is not a knowledge base").unwrap();
    let corrupt = iokc(&dir, &["list", "--db", "kb.json"]);
    assert_eq!(corrupt.status.code(), Some(5));
    let stderr = String::from_utf8_lossy(&corrupt.stderr);
    assert!(stderr.starts_with("iokc: corrupt: "), "{stderr}");
    assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");

    // Unclassified failures keep the generic exit 1.
    let missing = iokc(&dir, &["view", "99", "--db", "empty.json"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&missing.stderr).starts_with("iokc: error: "));
}

#[test]
fn resilience_flags_are_accepted_by_run() {
    let dir = tempdir("resilience-flags");
    let mut args: Vec<&str> = RUN_ARGS.to_vec();
    args.extend(["kb.json", "--retries", "2", "--phase-deadline", "600000"]);
    let out = stdout(&iokc(&dir, &args));
    assert!(out.contains("persisted ids"));
}

#[test]
fn query_filters_and_counts_from_the_shell() {
    let dir = tempdir("query");
    let mut args: Vec<&str> = RUN_ARGS.to_vec();
    args.push("kb.json");
    stdout(&iokc(&dir, &args));

    // One `iokc run` persists two objects: the IOR run itself and the
    // darshan-derived knowledge.
    let count = stdout(&iokc(&dir, &["query", "--count", "--db", "kb.json"]));
    assert_eq!(count.trim(), "2");

    let rows = stdout(&iokc(
        &dir,
        &[
            "query", "--api", "MPIIO", "--sort", "bw", "--order", "desc", "--db", "kb.json",
        ],
    ));
    assert!(rows.contains("ior -a mpiio"), "{rows}");
    assert!(rows.contains("benchmark"), "{rows}");
    assert!(!rows.contains("darshan"), "api filter leaked: {rows}");

    let contains = stdout(&iokc(
        &dir,
        &["query", "--contains", "darshan", "--db", "kb.json"],
    ));
    assert!(contains.contains("darshan:ior"), "{contains}");

    let none = stdout(&iokc(&dir, &["query", "--api", "HDF5", "--db", "kb.json"]));
    assert!(none.contains("no matching runs"), "{none}");

    let filtered = stdout(&iokc(
        &dir,
        &["query", "--min-tasks", "9", "--count", "--db", "kb.json"],
    ));
    assert_eq!(filtered.trim(), "0");

    let bad = iokc(&dir, &["query", "--sort", "latency", "--db", "kb.json"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown --sort"));
}

#[test]
fn compare_honours_every_filter_flag() {
    let dir = tempdir("compare");
    let mut args: Vec<&str> = RUN_ARGS.to_vec();
    args.push("kb.json");
    stdout(&iokc(&dir, &args));

    let all = stdout(&iokc(&dir, &["compare", "--db", "kb.json"]));
    assert!(all.contains("transfer size (bytes)"), "{all}");

    // Every run here has 8 tasks, so `query` counts none above 8 and
    // `compare` charts none.
    for (flag, value) in [
        ("--min-tasks", "9"),
        ("--max-tasks", "7"),
        ("--min-bw", "1e12"),
        ("--max-bw", "-1"),
        ("--op", "stat"),
    ] {
        let none = stdout(&iokc(&dir, &["compare", flag, value, "--db", "kb.json"]));
        assert!(none.contains("no comparable knowledge"), "{flag}: {none}");
    }

    let io500 = iokc(&dir, &["compare", "--kind", "io500", "--db", "kb.json"]);
    assert_eq!(io500.status.code(), Some(2));
    let axis = iokc(&dir, &["compare", "--axis", "latency", "--db", "kb.json"]);
    assert_eq!(axis.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&axis.stderr).contains("unknown --axis"));
}

#[test]
fn help_lists_every_command() {
    let dir = tempdir("help");
    let help = stdout(&iokc(&dir, &["help"]));
    for command in [
        "run",
        "io500",
        "mdtest",
        "hacc",
        "list",
        "query",
        "view",
        "compare",
        "detect",
        "recommend",
        "sql",
        "cycle",
        "dxt",
        "export",
        "import",
        "report",
        "jube",
        "stack",
    ] {
        assert!(help.contains(command), "help missing `{command}`");
    }
}
