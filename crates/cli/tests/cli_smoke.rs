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

/// `(kind, id, bandwidth)` of every row an `iokc query` table prints.
fn query_rows(table: &str) -> Vec<(String, u64, f64)> {
    table
        .lines()
        .skip(2)
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            (
                cells[0].to_owned(),
                cells[1].parse().expect("id cell"),
                cells[4].parse().expect("bandwidth cell"),
            )
        })
        .collect()
}

#[test]
fn runs_endpoint_filters_bandwidth_like_query() {
    use iokc_explorerd::{Body, Explorer, Request};
    use iokc_obs::{Clock, DeadlineToken, NullSink, Recorder};
    use std::sync::{Arc, RwLock};

    let dir = tempdir("bw-filter");
    for xfer in ["64k", "256k", "1m"] {
        let command = format!("ior -a posix -b 1m -t {xfer} -s 2 -F -i 2 -o /scratch/bw -k");
        stdout(&iokc(
            &dir,
            &["run", &command, "--tasks", "4", "--db", "kb.json"],
        ));
    }
    let all = query_rows(&stdout(&iokc(&dir, &["query", "--db", "kb.json"])));
    let mut bws: Vec<f64> = all.iter().map(|(_, _, bw)| *bw).collect();
    bws.sort_by(f64::total_cmp);
    bws.dedup();
    assert!(bws.len() >= 3, "test premise: three distinct bandwidths");
    // Bounds between printed values, so the filter drops the slowest
    // and the fastest run whatever the rounding.
    let min = format!("{}", (bws[0] + bws[1]) / 2.0);
    let max = format!("{}", (bws[bws.len() - 2] + bws[bws.len() - 1]) / 2.0);
    let args = [
        "query", "--min-bw", &min, "--max-bw", &max, "--db", "kb.json",
    ];
    let from_cli: Vec<(String, u64)> = query_rows(&stdout(&iokc(&dir, &args)))
        .into_iter()
        .map(|(kind, id, _)| (kind, id))
        .collect();
    assert!(!from_cli.is_empty() && from_cli.len() < all.len());

    let store = iokc_store::KnowledgeStore::open(dir.join("kb.json")).expect("store opens");
    let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
    let explorer = Explorer::new(Arc::new(RwLock::new(store)), 1 << 20, recorder);
    let request = Request {
        method: "GET".to_owned(),
        path: "/api/runs".to_owned(),
        query: vec![("min_bw".to_owned(), min), ("max_bw".to_owned(), max)],
        keep_alive: false,
        if_none_match: None,
    };
    let response = explorer.handle(&request, &DeadlineToken::unbounded());
    assert_eq!(response.status, 200);
    let Body::Pull(mut source) = response.body else {
        panic!("a listing streams");
    };
    let mut body = Vec::new();
    while source.next_chunk(&mut body) {}
    let listing =
        iokc_util::json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("listing parses");
    let from_http: Vec<(String, u64)> = listing
        .as_arr()
        .expect("an array")
        .iter()
        .map(|row| {
            (
                row.get("kind")
                    .and_then(|k| k.as_str())
                    .expect("kind")
                    .to_owned(),
                row.get("id").and_then(|id| id.as_u64()).expect("id"),
            )
        })
        .collect();
    assert_eq!(from_http, from_cli);
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

/// The files in `dir`, by name.
fn listing(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn jube_is_a_sweep_that_leaves_no_file_behind() {
    let dir = tempdir("jube");
    std::fs::write(
        dir.join("sweep.jube"),
        "benchmark cli-sweep\n\
         param xfer = 1m, 2m\n\
         step run = ior -a mpiio -t $xfer -b 4m -s 2 -i 1 -o /scratch/c$wp/t -k\n\
         step meta = mdtest -n 20 -d /scratch/md$wp -u\n\
         pattern write_bw = Max Write: {bw:f} MiB/sec\n\
         pattern create = File creation : {rate:f}\n",
    )
    .expect("write config");
    let args = ["sweep.jube", "--tasks", "8", "--ppn", "4", "--seed", "7"];
    let before = listing(&dir);
    let jube = stdout(&iokc(&dir, &[&["jube"], &args[..]].concat()));
    assert_eq!(listing(&dir), before, "jube wrote a file");
    let sweep = stdout(&iokc(&dir, &[&["sweep"], &args[..]].concat()));
    assert!(dir.join("sweep.jube.campaign").is_dir());

    let (jube_head, jube_table) = jube.split_once('\n').expect("jube output");
    let (sweep_head, sweep_table) = sweep.split_once('\n').expect("sweep output");
    assert_eq!(jube_table, sweep_table, "the two commands disagree");
    // Both steps ran: IOR's bandwidth and mdtest's rate are in the table.
    let row = jube_table.lines().nth(2).expect("first row");
    assert_eq!(
        row.split('|')
            .filter(|cell| !cell.trim().is_empty())
            .count(),
        4,
        "{row}"
    );
    let summary = |head: &str| head.split_once(": ").map(|(_, s)| s.to_owned());
    assert_eq!(summary(jube_head), summary(sweep_head));
    assert!(jube_head.contains("2/2 done"), "{jube_head}");
}

#[test]
fn jube_prints_the_same_bytes_every_run() {
    // 500 workpackages of 64 KiB IOR steps: each simulates in well
    // under a millisecond, so the table, straggler lines included,
    // holds only if elapsed times come from the virtual clock.
    let dir = tempdir("jube-repeat");
    let values = |n: u32| {
        (1..=n)
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let config = format!(
        "benchmark repeat\nparam a = {}\nparam b = {}\n\
         step run = ior -a posix -t 64k -b 64k -s 1 -i 1 -o /scratch/w$wp/f -k\n\
         pattern bw = Max Write: {{bw:f}} MiB/sec\n",
        values(20),
        values(25)
    );
    std::fs::write(dir.join("repeat.jube"), config).expect("write config");
    let args = ["jube", "repeat.jube", "--tasks", "1", "--seed", "7"];
    let first = stdout(&iokc(&dir, &args));
    assert!(
        first.starts_with("campaign `repeat` in memory: 500/500 done"),
        "{first}"
    );
    assert_eq!(stdout(&iokc(&dir, &args)), first);
}
