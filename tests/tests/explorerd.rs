//! The embedded knowledge-explorer service end to end: a real
//! `TcpListener` on an ephemeral port serving a sim-populated store to
//! concurrent raw-socket clients, plus the failure paths (malformed
//! heads, oversized heads, slow-loris, load shedding) and the
//! cache-invalidation protocol.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use iokc_benchmarks::ior::{run_ior, IorConfig};
use iokc_core::model::{Io500Knowledge, Io500Testcase, Knowledge};
use iokc_explorerd::{Limits, Server, ServerConfig};
use iokc_extract::parse_ior_output;
use iokc_obs::{Clock, NullSink, Recorder};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_store::KnowledgeStore;
use iokc_util::json::{self, Json};

fn knowledge_for(xfer: &str, seed: u64) -> Knowledge {
    let command =
        format!("ior -a posix -b 512k -t {xfer} -s 2 -F -C -e -i 2 -o /scratch/ed{seed} -k");
    let config = IorConfig::parse_command(&command).unwrap();
    let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), seed);
    let result = run_ior(&mut world, JobLayout::new(4, 2), &config, seed).unwrap();
    parse_ior_output(&result.render()).unwrap()
}

fn sample_io500() -> Io500Knowledge {
    Io500Knowledge {
        id: None,
        tasks: 8,
        bw_score: 0.8125,
        md_score: 12.5,
        total_score: 3.19,
        testcases: vec![Io500Testcase {
            name: "ior-easy-write".into(),
            value: 2.5,
            unit: "GiB/s".into(),
            time_s: 31.0,
        }],
        options: std::collections::BTreeMap::new(),
        system: None,
        start_time: 0,
        warnings: Vec::new(),
    }
}

/// A store with three benchmark runs and one IO500 run.
fn populated_store() -> KnowledgeStore {
    let mut store = KnowledgeStore::in_memory();
    for (xfer, seed) in [("16k", 21u64), ("64k", 22), ("512k", 23)] {
        store.save_knowledge(&knowledge_for(xfer, seed)).unwrap();
    }
    store.save_io500(&sample_io500()).unwrap();
    store
}

fn start_server(config: ServerConfig) -> Server {
    let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
    Server::start(config, populated_store(), recorder).unwrap()
}

/// Minimal HTTP client: one request, `Connection: close`, de-chunks the
/// body. Returns `(status, body)`.
fn get(addr: std::net::SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> (u16, Vec<u8>) {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A reset after the response bytes (the server closes hard
            // on rejected requests) still counts as end-of-response.
            Err(_) => break,
        }
    }
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head");
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = &raw[split + 4..];
    if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        (status, dechunk(body))
    } else {
        (status, body.to_vec())
    }
}

fn dechunk(mut body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(String::from_utf8_lossy(&body[..line_end]).trim(), 16)
            .expect("hex chunk size");
        body = &body[line_end + 2..];
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
}

fn parse_json(body: &[u8]) -> Json {
    json::parse(std::str::from_utf8(body).expect("utf-8 body")).expect("valid JSON")
}

#[test]
fn all_endpoint_families_answer_under_concurrent_load() {
    let server = start_server(ServerConfig {
        workers: 4,
        queue: 32,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Eight concurrent clients, each walking every endpoint family.
    let clients: Vec<_> = (0..8)
        .map(|n| {
            std::thread::spawn(move || {
                let (status, body) = get(addr, "/api/runs?sort=bw&order=desc");
                assert_eq!(status, 200, "client {n}: /api/runs");
                let runs = parse_json(&body);
                match &runs {
                    Json::Arr(rows) => assert!(rows.len() >= 4, "3 benchmarks + 1 io500"),
                    other => panic!("client {n}: /api/runs not an array: {other:?}"),
                }

                let (status, body) = get(addr, "/api/runs/1");
                assert_eq!(status, 200, "client {n}: /api/runs/1");
                let run = parse_json(&body);
                assert!(matches!(run, Json::Obj(_)), "client {n}: run detail");

                // IO500 knowledge has its own id namespace (rowid of
                // its own table), so the single run is id 1.
                let (status, body) = get(addr, "/api/io500/1");
                assert_eq!(status, 200, "client {n}: /api/io500/1");
                parse_json(&body);

                let (status, body) = get(addr, "/api/compare?x=transfer_size&y=mean_bw&op=write");
                assert_eq!(status, 200, "client {n}: /api/compare");
                match parse_json(&body) {
                    Json::Obj(map) => {
                        assert!(map.contains_key("points"));
                        assert!(map.contains_key("x_label"));
                    }
                    other => panic!("client {n}: compare not an object: {other:?}"),
                }

                let (status, body) = get(addr, "/api/boxplot?op=write");
                assert_eq!(status, 200, "client {n}: /api/boxplot");
                parse_json(&body);

                let (status, body) = get(addr, "/metrics");
                assert_eq!(status, 200, "client {n}: /metrics");
                parse_json(&body);

                let (status, body) = get(addr, "/");
                assert_eq!(status, 200, "client {n}: index page");
                assert!(body.starts_with(b"<!DOCTYPE html>"), "client {n}: html");

                let (status, body) = get(addr, "/runs/1");
                assert_eq!(status, 200, "client {n}: /runs/1");
                assert!(
                    String::from_utf8_lossy(&body).contains("<svg"),
                    "client {n}: run page embeds a chart"
                );
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread panicked");
    }

    // Unknown ids and routes 404; non-GET methods 405.
    let (status, _) = get(addr, "/api/runs/999");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/api/nope");
    assert_eq!(status, 404);
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 405);

    server.shutdown();
}

#[test]
fn malformed_and_oversized_heads_get_400() {
    let server = start_server(ServerConfig::default());
    let addr = server.local_addr();

    // Garbage that is not an HTTP request line.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"NOT-HTTP nonsense\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 400, "garbage request line");

    // A head larger than the limit.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET / HTTP/1.1\r\nX-Filler: ").unwrap();
    stream.write_all(&vec![b'a'; 16 * 1024]).unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 400, "oversized head");

    // Request bodies are rejected before any body byte is read.
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET / HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 400, "request body");

    server.shutdown();
}

#[test]
fn slow_loris_is_cut_off_at_the_read_deadline() {
    let server = start_server(ServerConfig {
        limits: Limits {
            read_deadline: Duration::from_millis(300),
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Drip-feed a never-finished head past the deadline.
    for _ in 0..4 {
        stream.write_all(b"GET /slow").unwrap();
        std::thread::sleep(Duration::from_millis(120));
    }
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 408, "slow-loris hits the read deadline");

    server.shutdown();
}

#[test]
fn full_server_sheds_load_with_503_retry_after() {
    // A hard cap of two open connections: idle keep-alives no longer
    // pin workers under the reactor, so the cap is what bounds
    // concurrent sockets. The third connection must be shed with 503.
    let server = start_server(ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Two idle connections occupy the cap.
    let hold_a = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let hold_b = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // The third is answered 503 with Retry-After straight away.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head = String::from_utf8_lossy(&raw);
    assert!(head.starts_with("HTTP/1.1 503"), "shed response: {head}");
    assert!(head.contains("Retry-After:"), "retry hint: {head}");
    assert!(server
        .metrics()
        .to_json()
        .to_compact()
        .contains("explorerd.shed"));

    drop(hold_a);
    drop(hold_b);
    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_reaped_by_the_reactor() {
    let server = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Serve one request, then let the connection idle past the timeout.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (status, _) = read_framed(&mut stream);
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(600));

    // The reactor reaped the idle connection with a clean close: a
    // pipelined second request gets EOF, not a response.
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "reaped connection closes cleanly, no bytes: {rest:?}");

    // The eviction is observable: `explorerd.recv.timeout` ticked.
    let metrics = server.metrics().to_json().to_compact();
    assert!(
        metrics.contains("\"explorerd.recv.timeout\":1"),
        "idle reap ticks recv.timeout: {metrics}"
    );

    server.shutdown();
}

/// Read one `Content-Length`-framed response off a keep-alive stream
/// without waiting for EOF.
fn read_framed(stream: &mut TcpStream) -> (u16, Vec<u8>) {
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(split) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&raw[..split]).to_string();
            let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
            let content_length: usize = head
                .lines()
                .find(|l| l.to_ascii_lowercase().starts_with("content-length:"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().parse().unwrap())
                .unwrap_or(0);
            let mut body = raw[split + 4..].to_vec();
            while body.len() < content_length {
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "connection closed mid-body");
                body.extend_from_slice(&buf[..n]);
            }
            return (status, body);
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "connection closed before a full head");
        raw.extend_from_slice(&buf[..n]);
    }
}

/// `GET /api/runs`, optionally conditional on `if_none_match`. Returns
/// `(status, body, etag)`.
fn get_runs_if_none_match(
    addr: std::net::SocketAddr,
    if_none_match: Option<&str>,
) -> (u16, Vec<u8>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let conditional = if_none_match
        .map(|tag| format!("If-None-Match: {tag}\r\n"))
        .unwrap_or_default();
    write!(
        stream,
        "GET /api/runs HTTP/1.1\r\nHost: t\r\n{conditional}Connection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let etag = head
        .lines()
        .find(|l| l.to_ascii_lowercase().starts_with("etag:"))
        .map(|l| l[5..].trim().to_owned())
        .unwrap_or_default();
    let body = raw[split + 4..].to_vec();
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(&body)
    } else {
        body
    };
    (status, body, etag)
}

/// The full conditional-GET cycle: a 200 carries a strong ETag, a
/// request presenting it gets a body-less 304, a store write bumps the
/// generation so the same validator yields a fresh 200 with a new tag.
#[test]
fn etag_round_trip_revalidates_until_a_store_write() {
    let server = start_server(ServerConfig::default());
    let addr = server.local_addr();

    let get_with = |tag: Option<&str>| get_runs_if_none_match(addr, tag);

    // Cold: 200 with a strong validator.
    let (status, body, tag) = get_with(None);
    assert_eq!(status, 200);
    assert!(!body.is_empty());
    assert!(
        tag.starts_with("\"g") && tag.ends_with('"'),
        "strong etag: {tag}"
    );

    // Revalidation: 304, no body, and the counter ticks.
    let (status, body_304, _) = get_with(Some(&tag));
    assert_eq!(status, 304, "matching validator revalidates");
    assert!(body_304.is_empty(), "304 carries no body");
    assert_eq!(server.cache_stats().not_modified, 1);

    // A store write bumps the generation: the old validator is stale.
    {
        let store = server.store();
        let mut store = store.write().unwrap();
        store.save_knowledge(&knowledge_for("32k", 78)).unwrap();
    }
    let (status, body_fresh, new_tag) = get_with(Some(&tag));
    assert_eq!(status, 200, "stale validator re-renders");
    assert!(body_fresh.len() > body.len(), "new run is in the listing");
    assert_ne!(new_tag, tag, "generation bump changes the validator");

    server.shutdown();
}

/// A validator does not outlive the rows it validated. The store's
/// generation starts at an identity of the files it opened, so the next
/// process over the same files revalidates the tag, and the next process
/// over files one run longer answers with the new listing.
#[test]
fn etags_validate_across_a_restart_only_over_the_same_files() {
    let dir = std::env::temp_dir().join(format!("iokc-etag-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kb.json");
    KnowledgeStore::open(path.clone())
        .unwrap()
        .save_knowledge(&knowledge_for("16k", 21))
        .unwrap();
    let serve = || {
        let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
        let store = KnowledgeStore::open(path.clone()).unwrap();
        Server::start(ServerConfig::default(), store, recorder).unwrap()
    };

    let server = serve();
    let (status, body, tag) = get_runs_if_none_match(server.local_addr(), None);
    assert_eq!(status, 200);
    server.shutdown();

    let server = serve();
    let (status, _, _) = get_runs_if_none_match(server.local_addr(), Some(&tag));
    assert_eq!(status, 304, "same files, same validator");
    server.shutdown();

    KnowledgeStore::open(path.clone())
        .unwrap()
        .save_knowledge(&knowledge_for("64k", 22))
        .unwrap();
    let server = serve();
    let (status, body_fresh, new_tag) = get_runs_if_none_match(server.local_addr(), Some(&tag));
    assert_eq!(status, 200, "a tag of other files validates nothing");
    assert!(body_fresh.len() > body.len(), "new run is in the listing");
    assert_ne!(new_tag, tag);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_hits_rise_on_repeats_and_reset_after_a_store_write() {
    let server = start_server(ServerConfig::default());
    let addr = server.local_addr();

    // Cold: miss. Repeats: hits.
    let (status, first) = get(addr, "/api/runs/1");
    assert_eq!(status, 200);
    for _ in 0..3 {
        let (status, body) = get(addr, "/api/runs/1");
        assert_eq!(status, 200);
        assert_eq!(body, first, "cached body is byte-identical");
    }
    let warm = server.cache_stats();
    assert!(warm.hits >= 3, "repeats hit the cache: {warm:?}");
    assert!(warm.entries >= 1);

    // A write through the shared store bumps the generation …
    {
        let store = server.store();
        let mut store = store.write().unwrap();
        store.save_knowledge(&knowledge_for("32k", 77)).unwrap();
    }
    // … so the next request invalidates the cache and misses.
    let (status, _) = get(addr, "/api/runs/1");
    assert_eq!(status, 200);
    let cold = server.cache_stats();
    assert!(cold.invalidations > warm.invalidations, "{cold:?}");
    assert!(cold.misses > warm.misses, "post-write request is a miss");
    // The new run is actually visible.
    let (_, body) = get(addr, "/api/runs");
    match parse_json(&body) {
        Json::Arr(rows) => assert_eq!(rows.len(), 5, "3 + io500 + the new run"),
        other => panic!("not an array: {other:?}"),
    }

    server.shutdown();
}

/// The corpus-analytics endpoints under live ingest: every response
/// renders from one pinned snapshot, so its numbers must be internally
/// consistent (histogram mass equals group counts, counts sum to the
/// aggregated row total) no matter how many writes land mid-render, and
/// the visible corpus only ever grows.
#[test]
fn distribution_and_correlation_endpoints_stay_consistent_under_ingest() {
    let server = start_server(ServerConfig::default());
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        let store = server.store();
        std::thread::spawn(move || {
            let mut n = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut k = sample_io500();
                k.tasks = [4u32, 8, 16][(n % 3) as usize];
                k.bw_score = 0.5 + 0.1 * (n % 7) as f64;
                k.md_score = 8.0 + 0.5 * (n % 5) as f64;
                k.total_score = (k.bw_score * k.md_score).sqrt();
                store.write().unwrap().save_io500(&k).unwrap();
                n += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let mut last_rows = 0u64;
    for round in 0..12 {
        let (status, body) = get(addr, "/api/dist?group=tasks&factor=total_score&kind=io500");
        assert_eq!(status, 200, "round {round}: /api/dist");
        let dist = parse_json(&body);
        let rows = dist.get("rows_aggregated").unwrap().as_u64().unwrap();
        assert!(
            rows >= last_rows,
            "round {round}: the corpus only grows ({rows} < {last_rows})"
        );
        last_rows = rows;
        let groups = dist.get("groups").unwrap().as_arr().unwrap();
        let mut counted = 0u64;
        for group in groups {
            let count = group.get("count").unwrap().as_u64().unwrap();
            let mass: u64 = group
                .get("histogram")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|bin| bin.get("count").unwrap().as_u64().unwrap())
                .sum();
            assert_eq!(
                mass, count,
                "round {round}: histogram mass equals the group count \
                 (a torn snapshot would break this)"
            );
            counted += count;
        }
        assert_eq!(
            counted, rows,
            "round {round}: groups partition the aggregated rows"
        );

        let (status, body) = get(addr, "/api/corr?correlate=bw_score,md_score,total_score");
        assert_eq!(status, 200, "round {round}: /api/corr");
        let corr = parse_json(&body);
        let matrix = corr
            .get("correlation")
            .unwrap()
            .get("matrix")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(matrix.len(), 3);
        for (i, row) in matrix.iter().enumerate() {
            let row = row.as_arr().unwrap();
            assert_eq!(row.len(), 3);
            for (j, cell) in row.iter().enumerate() {
                let r = cell.as_f64().unwrap();
                assert!(
                    (-1.0..=1.0).contains(&r),
                    "round {round}: r[{i}][{j}] = {r}"
                );
                let mirrored = matrix[j].as_arr().unwrap()[i].as_f64().unwrap();
                assert!(
                    (r - mirrored).abs() < 1e-9,
                    "round {round}: the matrix is symmetric"
                );
            }
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().expect("writer thread");

    // Quiesced: enough varied rows exist that every factor has spread,
    // so the diagonal is exactly 1, and the HTML twins render charts
    // from the same pushdown.
    let (status, body) = get(addr, "/api/corr?correlate=bw_score,md_score,total_score");
    assert_eq!(status, 200);
    let corr = parse_json(&body);
    let matrix = corr
        .get("correlation")
        .unwrap()
        .get("matrix")
        .unwrap()
        .as_arr()
        .unwrap();
    for (i, row) in matrix.iter().enumerate() {
        let r = row.as_arr().unwrap()[i].as_f64().unwrap();
        assert!((r - 1.0).abs() < 1e-9, "diag r[{i}][{i}] = {r}");
    }
    let (status, body) = get(addr, "/dist?group=tasks&factor=total_score&kind=io500");
    assert_eq!(status, 200);
    assert!(
        String::from_utf8_lossy(&body).contains("<svg"),
        "/dist chart"
    );
    let (status, body) = get(addr, "/corr");
    assert_eq!(status, 200);
    assert!(
        String::from_utf8_lossy(&body).contains("<svg"),
        "/corr chart"
    );
    let (status, body) = get(addr, "/api/agg?group=kind&factor=tasks");
    assert_eq!(status, 200);
    let agg = parse_json(&body);
    assert!(agg.get("groups").unwrap().as_arr().unwrap().len() >= 2);

    server.shutdown();
}

#[test]
fn graceful_shutdown_joins_every_thread_with_clients_attached() {
    let server = start_server(ServerConfig {
        workers: 2,
        queue: 4,
        limits: Limits {
            read_deadline: Duration::from_secs(30),
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Park two idle keep-alive connections on the workers, then shut
    // down: handlers must notice the cancel token at their next read
    // slice rather than waiting out the 30 s deadline.
    let idle_a = TcpStream::connect(addr).unwrap();
    let idle_b = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown drained and joined without hanging");
    drop(idle_a);
    drop(idle_b);
}

#[test]
fn duplicate_sort_keys_paginate_deterministically() {
    // Four runs sharing one bandwidth value: without the engine's id
    // tie-break, `sort=bw` order (and therefore every `limit`ed page)
    // would depend on incidental iteration order.
    let mut store = KnowledgeStore::in_memory();
    let k = knowledge_for("64k", 91);
    for _ in 0..4 {
        store.save_knowledge(&k).unwrap();
    }
    let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
    let server = Server::start(ServerConfig::default(), store, recorder).unwrap();
    let addr = server.local_addr();

    let ids_of = |body: &[u8]| -> Vec<u64> {
        match parse_json(body) {
            Json::Arr(rows) => rows
                .iter()
                .map(|row| match row {
                    Json::Obj(map) => match map.get("id") {
                        Some(Json::Num(id)) => *id as u64,
                        other => panic!("bad id: {other:?}"),
                    },
                    other => panic!("not an object: {other:?}"),
                })
                .collect(),
            other => panic!("not an array: {other:?}"),
        }
    };

    let (status, body) = get(addr, "/api/runs?sort=bw&order=desc");
    assert_eq!(status, 200);
    let full = ids_of(&body);
    assert_eq!(full, vec![1, 2, 3, 4], "equal keys fall back to id order");

    // Requests repeat identically, and limit/offset pages partition the
    // same total order.
    let (_, body) = get(addr, "/api/runs?sort=bw&order=desc");
    assert_eq!(ids_of(&body), full);
    let (_, page1) = get(addr, "/api/runs?sort=bw&order=desc&limit=2");
    let (_, page2) = get(addr, "/api/runs?sort=bw&order=desc&limit=2&offset=2");
    let mut joined = ids_of(&page1);
    joined.extend(ids_of(&page2));
    assert_eq!(joined, full, "pages partition the duplicate-key order");

    server.shutdown();
}

#[test]
fn healthz_reports_a_healthy_store() {
    let server = start_server(ServerConfig::default());
    let (status, body) = get(server.local_addr(), "/healthz");
    assert_eq!(status, 200);
    let health = parse_json(&body);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert!(matches!(health.get("read_only"), Some(Json::Bool(false))));

    // /metrics mirrors the health as a one-hot gauge set, so a scraper
    // needs only one endpoint.
    let (status, body) = get(server.local_addr(), "/metrics");
    assert_eq!(status, 200);
    let gauges = parse_json(&body).get("gauges").cloned().expect("gauges");
    assert!(matches!(gauges.get("store.health.ok"), Some(Json::Num(n)) if *n == 1.0));
    assert!(matches!(gauges.get("store.health.degraded"), Some(Json::Num(n)) if *n == 0.0));
    assert!(matches!(gauges.get("store.read_only"), Some(Json::Num(n)) if *n == 0.0));
    server.shutdown();
}

/// Read exactly one response from a keep-alive connection: head up to
/// `\r\n\r\n`, then `Content-Length` body bytes — without waiting for
/// EOF, so the connection stays usable. Returns `(status, head, body)`.
fn read_keep_alive_response(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    let split = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut buf).expect("response head");
        assert!(n > 0, "connection closed before a full head");
        raw.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .to_ascii_lowercase()
        .lines()
        .find_map(|l| {
            l.strip_prefix("content-length:")
                .map(str::trim)
                .map(String::from)
        })
        .expect("keep-alive responses carry Content-Length")
        .parse()
        .expect("numeric Content-Length");
    let mut body = raw[split + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut buf).expect("response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&buf[..n]);
    }
    assert_eq!(
        body.len(),
        content_length,
        "no trailing bytes past the body"
    );
    (status, head, body)
}

#[test]
fn keep_alive_connection_survives_error_responses() {
    // Regression: a 404 or a bad-query 400 must leave the connection in
    // a parseable state — correctly framed with Content-Length and the
    // connection held open — so the next request on the same socket
    // still works.
    let server = start_server(ServerConfig::default());
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    write!(stream, "GET /api/nope HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (status, head, _) = read_keep_alive_response(&mut stream);
    assert_eq!(status, 404);
    assert!(
        head.to_ascii_lowercase().contains("connection: keep-alive"),
        "404 keeps the connection: {head}"
    );

    write!(
        stream,
        "GET /api/runs?sort=bogus HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    .unwrap();
    let (status, head, _) = read_keep_alive_response(&mut stream);
    assert_eq!(status, 400, "bad query on a parsed request");
    assert!(
        head.to_ascii_lowercase().contains("connection: keep-alive"),
        "bad-query 400 keeps the connection: {head}"
    );

    // The same socket still serves a normal request afterwards.
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (status, _, body) = read_keep_alive_response(&mut stream);
    assert_eq!(status, 200, "connection survived both error responses");
    parse_json(&body);

    server.shutdown();
}

#[test]
fn parse_level_errors_close_the_connection_explicitly() {
    // Regression, the other path: when the request *head itself* cannot
    // be parsed, the framing is unrecoverable — the server must say
    // `Connection: close` and actually close, never leave a half-read
    // socket pretending to be reusable.
    let server = start_server(ServerConfig::default());
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"NOT-HTTP nonsense\r\n\r\n").unwrap();
    let (status, head, _) = read_keep_alive_response(&mut stream);
    assert_eq!(status, 400);
    assert!(
        head.to_ascii_lowercase().contains("connection: close"),
        "parse-level 400 declares the close: {head}"
    );
    // And the server really does close: the next read is EOF.
    let mut buf = [0u8; 64];
    assert_eq!(
        stream.read(&mut buf).expect("clean EOF after close"),
        0,
        "connection is closed after a parse-level 400"
    );

    server.shutdown();
}

#[test]
fn degraded_store_serves_reads_and_healthz_says_so() {
    // A manifest that does not verify must not keep the explorer down: the store opens read-only over the
    // empty schema and /healthz reports the degradation while the read
    // endpoints keep answering.
    let dir = std::env::temp_dir().join(format!("iokc-degraded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kb.json");
    std::fs::write(&path, "this is not a knowledge image").unwrap();

    let store = KnowledgeStore::open_or_degraded(path);
    assert!(store.is_read_only());
    let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
    let server = Server::start(ServerConfig::default(), store, recorder).unwrap();
    let addr = server.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "degraded store still answers health probes");
    let health = parse_json(&body);
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded")
    );
    assert!(matches!(health.get("read_only"), Some(Json::Bool(true))));
    assert!(
        health.get("detail").and_then(Json::as_str).is_some(),
        "degradation carries a structured reason"
    );

    let (status, body) = get(addr, "/api/runs");
    assert_eq!(status, 200, "reads keep working over the empty schema");
    assert!(matches!(parse_json(&body), Json::Arr(rows) if rows.is_empty()));

    // The degradation surfaces in the schema-1 metrics dump.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = parse_json(&body);
    let counters = metrics.get("counters").expect("schema-1 counters");
    assert!(matches!(
        counters.get("store.open_degraded"),
        Some(Json::Num(n)) if *n == 1.0
    ));
    assert!(counters.get("store.faults_injected").is_some());
    assert!(counters.get("store.fsck_repairs").is_some());
    let gauges = metrics.get("gauges").expect("schema-1 gauges");
    assert!(matches!(gauges.get("store.health.degraded"), Some(Json::Num(n)) if *n == 1.0));
    assert!(matches!(gauges.get("store.health.ok"), Some(Json::Num(n)) if *n == 0.0));
    assert!(matches!(gauges.get("store.read_only"), Some(Json::Num(n)) if *n == 1.0));

    server.shutdown();
    std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("iokc-degraded-{}", std::process::id())),
    )
    .ok();
}
