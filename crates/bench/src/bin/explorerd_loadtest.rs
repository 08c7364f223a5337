//! explorerd load harness: hold a fleet of mostly-idle keep-alive
//! connections against an in-process server and measure request
//! latency through the reactor + handler pool.
//!
//! The shape matches the serving design's claim: one reactor thread
//! multiplexes every socket, so a thousand idle keep-alive connections
//! cost poll slots, not threads — healthy traffic keeps flowing and
//! nothing is shed. The harness:
//!
//! 1. populates an in-memory store with `--rows` synthetic runs,
//! 2. opens `--conns` keep-alive connections and warms each with one
//!    request (they then sit idle, pinned by a long `--idle-timeout`),
//! 3. streams the full `/api/runs` listing once over a single
//!    connection — 100k rows arrive chunked, pulled from the snapshot
//!    page by page, never materialized whole,
//! 4. fires `--requests` timed requests over a small active subset
//!    while the rest of the fleet idles, recording p50/p99,
//! 5. sweeps every held connection with one final request: all must
//!    answer 200 (none reaped, none shed) and `explorerd.shed` must
//!    still read zero.
//!
//! Results land in `BENCH_explorerd_load.json` (`--out -` to skip).
//! `--p99-max-ms` turns the run into a CI smoke gate.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use iokc_bench::synthetic_knowledge;
use iokc_core::model::KnowledgeItem;
use iokc_explorerd::{Server, ServerConfig};
use iokc_obs::{Clock, NullSink, Recorder};
use iokc_store::KnowledgeStore;

struct Args {
    conns: usize,
    requests: usize,
    rows: usize,
    workers: usize,
    p99_max_ms: Option<f64>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        conns: 1000,
        requests: 2000,
        rows: 100_000,
        workers: 4,
        p99_max_ms: None,
        out: "BENCH_explorerd_load.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |what: &str| -> String { it.next().unwrap_or_else(|| panic!("{what} needs a value")) };
        match flag.as_str() {
            "--conns" => args.conns = value("--conns").parse().expect("bad --conns"),
            "--requests" => args.requests = value("--requests").parse().expect("bad --requests"),
            "--rows" => args.rows = value("--rows").parse().expect("bad --rows"),
            "--workers" => args.workers = value("--workers").parse().expect("bad --workers"),
            "--p99-max-ms" => {
                args.p99_max_ms = Some(value("--p99-max-ms").parse().expect("bad --p99-max-ms"));
            }
            "--out" => args.out = value("--out"),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn populated(rows: usize) -> KnowledgeStore {
    let mut store = KnowledgeStore::in_memory();
    let mut batch: Vec<KnowledgeItem> = Vec::with_capacity(1024);
    for i in 0..rows {
        batch.push(KnowledgeItem::Benchmark(synthetic_knowledge(i)));
        if batch.len() == 1024 {
            store.save_batch(&batch).expect("save batch");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        store.save_batch(&batch).expect("save batch");
    }
    store
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// One keep-alive request; returns (status, body bytes). De-chunks when
/// the response streams.
fn request(stream: &mut TcpStream, path: &str) -> (u16, usize) {
    write!(stream, "GET {path} HTTP/1.1\r\nHost: load\r\n\r\n").expect("send request");
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> (u16, usize) {
    let mut raw: Vec<u8> = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let head_len;
    // Head first.
    let (status, chunked, content_length) = loop {
        if let Some(split) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            head_len = split + 4;
            let head = String::from_utf8_lossy(&raw[..split]).to_ascii_lowercase();
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .expect("status line")
                .parse()
                .expect("numeric status");
            let chunked = head.contains("transfer-encoding: chunked");
            let content_length: usize = head
                .lines()
                .find(|l| l.starts_with("content-length:"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().parse().expect("content length"))
                .unwrap_or(0);
            break (status, chunked, content_length);
        }
        let n = stream.read(&mut buf).expect("read head");
        assert!(n > 0, "connection closed before a full head");
        raw.extend_from_slice(&buf[..n]);
    };
    if chunked {
        // Drain chunks until the 0-length terminator; count body bytes
        // without keeping them (the point is bounded client memory too).
        let mut tail = raw.split_off(head_len);
        let mut body = 0usize;
        loop {
            if let Some(done) = drain_chunks(&mut tail, &mut body) {
                if done {
                    return (status, body);
                }
            }
            let n = stream.read(&mut buf).expect("read chunk");
            assert!(n > 0, "connection closed mid-stream");
            tail.extend_from_slice(&buf[..n]);
        }
    }
    let mut have = raw.len() - head_len;
    while have < content_length {
        let n = stream.read(&mut buf).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        have += n;
    }
    (status, content_length)
}

/// Consume complete chunks from the front of `tail`, adding their sizes
/// to `body`. Returns `Some(true)` when the terminating chunk was seen,
/// `Some(false)` when more data is needed, `None` never (placeholder
/// for readability at call site).
fn drain_chunks(tail: &mut Vec<u8>, body: &mut usize) -> Option<bool> {
    loop {
        let Some(line_end) = tail.windows(2).position(|w| w == b"\r\n") else {
            return Some(false);
        };
        let size_hex = String::from_utf8_lossy(&tail[..line_end]).to_string();
        let size = usize::from_str_radix(size_hex.trim(), 16).expect("chunk size");
        let frame = line_end + 2 + size + 2;
        if tail.len() < frame {
            return Some(false);
        }
        tail.drain(..frame);
        if size == 0 {
            return Some(true);
        }
        *body += size;
    }
}

/// Civil date (UTC) from the system clock, for the report header.
fn today() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut days = (secs / 86_400) as i64;
    let mut year = 1970i64;
    loop {
        let leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
        let len = if leap { 366 } else { 365 };
        if days < len {
            break;
        }
        days -= len;
        year += 1;
    }
    let leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
    let feb = if leap { 29 } else { 28 };
    let lens = [31, feb, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    let mut month = 1;
    for len in lens {
        if days < len {
            break;
        }
        days -= len;
        month += 1;
    }
    format!("{year:04}-{month:02}-{:02}", days + 1)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let args = parse_args();
    eprintln!(
        "populating store: {} rows ({} workers, {} conns, {} timed requests)",
        args.rows, args.workers, args.conns, args.requests
    );
    let populate_start = Instant::now();
    let store = populated(args.rows);
    let populate_s = populate_start.elapsed().as_secs_f64();

    let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
    let server = Server::start(
        ServerConfig {
            workers: args.workers,
            // The fleet sits idle between phases; don't reap it.
            idle_timeout: Duration::from_secs(300),
            ..ServerConfig::default()
        },
        store,
        recorder,
    )
    .expect("start server");
    let addr = server.local_addr();

    // Phase 1: open the fleet, one warmup request each.
    let open_start = Instant::now();
    let mut fleet: Vec<TcpStream> = Vec::with_capacity(args.conns);
    for _ in 0..args.conns {
        let mut stream = connect(addr);
        let (status, _) = request(&mut stream, "/healthz");
        assert_eq!(status, 200, "warmup request");
        fleet.push(stream);
    }
    let open_s = open_start.elapsed().as_secs_f64();
    eprintln!("fleet up: {} keep-alive conns in {open_s:.2}s", fleet.len());

    // Phase 2: stream the full listing once — `rows` rows, chunked,
    // pulled from the snapshot in bounded pages.
    let stream_start = Instant::now();
    let (status, stream_bytes) = request(&mut fleet[0], "/api/runs");
    assert_eq!(status, 200, "full listing");
    let stream_s = stream_start.elapsed().as_secs_f64();
    eprintln!(
        "streamed /api/runs: {stream_bytes} body bytes in {stream_s:.2}s ({} rows)",
        args.rows
    );

    // Phase 3: timed requests over a small active subset while the rest
    // of the fleet idles. `/api/runs/1` exercises cache + pool + loop.
    let active = args.conns.clamp(1, 32);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(args.requests);
    for i in 0..args.requests {
        let slot = i % active;
        let start = Instant::now();
        let (status, _) = request(&mut fleet[slot], "/api/runs/1");
        assert_eq!(status, 200, "timed request");
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let p50 = percentile(&latencies_ms, 0.50);
    let p99 = percentile(&latencies_ms, 0.99);
    eprintln!(
        "timed: {} requests, p50 {p50:.3}ms p99 {p99:.3}ms",
        args.requests
    );

    // Phase 4: every held connection must still be alive and served —
    // the reactor never shed or reaped healthy keep-alive traffic.
    let sweep_start = Instant::now();
    for stream in &mut fleet {
        let (status, _) = request(stream, "/healthz");
        assert_eq!(status, 200, "final sweep");
    }
    let sweep_s = sweep_start.elapsed().as_secs_f64();

    let metrics = server.metrics().to_json();
    let metrics_compact = metrics.to_compact();
    assert!(
        metrics_compact.contains("\"explorerd.shed\":0"),
        "no healthy traffic shed: {metrics_compact}"
    );
    server.shutdown();

    let report = format!(
        "{{\n  \
         \"bench\": \"explorerd_loadtest (crates/bench/src/bin/explorerd_loadtest.rs)\",\n  \
         \"date\": \"{date}\",\n  \
         \"method\": \"in-process reactor server, {workers} handler workers; {conns} keep-alive connections each warmed with one request then held idle; one full /api/runs stream; {requests} timed GET /api/runs/1 over {active} active conns; final /healthz sweep over every held conn; reproduce with cargo run --release -p iokc-bench --bin explorerd_loadtest\",\n  \
         \"headline\": \"one poll-based reactor thread holds {conns} mostly-idle keep-alive connections while serving p50 {p50:.3}ms / p99 {p99:.3}ms, sheds nothing, and streams a {rows}-row listing in bounded pages\",\n  \
         \"conns\": {conns},\n  \
         \"workers\": {workers},\n  \
         \"store_rows\": {rows},\n  \
         \"populate_s\": {populate_s:.3},\n  \
         \"fleet_open_s\": {open_s:.3},\n  \
         \"stream_rows\": {rows},\n  \
         \"stream_body_bytes\": {stream_bytes},\n  \
         \"stream_s\": {stream_s:.3},\n  \
         \"timed_requests\": {requests},\n  \
         \"active_conns\": {active},\n  \
         \"p50_ms\": {p50:.3},\n  \
         \"p99_ms\": {p99:.3},\n  \
         \"final_sweep_s\": {sweep_s:.3},\n  \
         \"shed\": 0\n}}\n",
        date = today(),
        workers = args.workers,
        conns = args.conns,
        requests = args.requests,
        rows = args.rows,
    );
    if args.out != "-" {
        std::fs::write(&args.out, &report).expect("write report");
        eprintln!("wrote {}", args.out);
    }
    print!("{report}");

    if let Some(max) = args.p99_max_ms {
        assert!(
            p99 <= max,
            "p99 {p99:.3}ms exceeds the configured bound {max:.3}ms"
        );
        eprintln!("p99 bound held: {p99:.3}ms <= {max:.3}ms");
    }
}
