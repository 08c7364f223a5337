//! Chaos suite for the explorer service: a mixed workload driven
//! through the transport fault seam (short reads/writes, resets,
//! stalls, trickles, connection drops at seeded op-indexed points) plus
//! deliberately misbehaving raw-socket clients, checking the
//! server's core robustness invariant end to end:
//!
//! **Every accepted connection ends in exactly one response or one
//! classified, counted error** — no hung workers, no silent drops —
//! graceful shutdown joins within its deadline, the query cache never
//! serves a partially written response, and a request that blows its
//! deadline budget answers `504` with partial-progress counters
//! instead of pinning a worker.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use iokc_benchmarks::ior::{run_ior, IorConfig};
use iokc_core::model::Knowledge;
use iokc_explorerd::{FaultTransport, NetFault, Server, ServerConfig};
use iokc_extract::parse_ior_output;
use iokc_obs::{Clock, NullSink, Recorder};
use iokc_sim::engine::{JobLayout, World};
use iokc_sim::faults::FaultPlan;
use iokc_sim::prelude::SystemConfig;
use iokc_store::KnowledgeStore;
use iokc_util::json::{self, Json};

/// Deterministic benchmark knowledge, built once per process — the
/// chaos sweeps start many servers and must not re-run the simulator
/// for each one.
fn sample_runs() -> &'static Vec<Knowledge> {
    static RUNS: OnceLock<Vec<Knowledge>> = OnceLock::new();
    RUNS.get_or_init(|| {
        [("16k", 21u64), ("64k", 22), ("512k", 23)]
            .iter()
            .map(|(xfer, seed)| {
                let command = format!(
                    "ior -a posix -b 512k -t {xfer} -s 2 -F -C -e -i 2 -o /scratch/chaos{seed} -k"
                );
                let config = IorConfig::parse_command(&command).expect("valid command");
                let mut world = World::new(SystemConfig::test_small(), FaultPlan::none(), *seed);
                let result =
                    run_ior(&mut world, JobLayout::new(4, 2), &config, *seed).expect("sim run");
                parse_ior_output(&result.render()).expect("parseable output")
            })
            .collect()
    })
}

fn populated_store() -> KnowledgeStore {
    let mut store = KnowledgeStore::in_memory();
    for k in sample_runs() {
        store.save_knowledge(k).expect("save");
    }
    store
}

fn start_server(config: ServerConfig) -> Server {
    let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
    Server::start(config, populated_store(), recorder).expect("bind")
}

/// Shut the server down on a watchdog: panics if join exceeds the
/// deadline — a hung worker is exactly what the suite exists to catch.
fn shutdown_within(server: Server, deadline: Duration) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(deadline)
        .expect("graceful shutdown joined within its deadline");
}

/// Best-effort raw GET with `Connection: close`: returns the complete
/// `(status, body)` when a full, correctly framed response arrived, or
/// `None` when the connection failed anywhere along the way (expected
/// under fault injection — the point is that failures are *clean*).
fn try_get(addr: std::net::SocketAddr, path: &str) -> Option<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let body = &raw[split + 4..];
    let lower = head.to_ascii_lowercase();
    if lower.contains("transfer-encoding: chunked") {
        Some((status, dechunk(body)?))
    } else {
        let expected: usize = lower
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))?
            .trim()
            .parse()
            .ok()?;
        (body.len() == expected).then(|| (status, body.to_vec()))
    }
}

/// De-chunk, or `None` when the stream was cut mid-chunk (a torn
/// response — the caller treats it as a failed fetch).
fn dechunk(mut body: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let line_end = body.windows(2).position(|w| w == b"\r\n")?;
        let size =
            usize::from_str_radix(String::from_utf8_lossy(&body[..line_end]).trim(), 16).ok()?;
        body = &body[line_end + 2..];
        if size == 0 {
            return Some(out);
        }
        if body.len() < size + 2 {
            return None;
        }
        out.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
}

#[test]
fn seeded_chaos_workload_accounts_for_every_connection() {
    // Several seeds, each scattering two dozen faults (short reads and
    // writes, resets, stalls, trickles, drops) over the first 400
    // socket ops of a mixed workload. After the workload drains, the
    // server's books must balance exactly: every accepted connection
    // ended as a shed, a parsed request, or one classified receive
    // error. Nothing vanishes.
    for seed in [7u64, 99, 20260809] {
        let transport =
            FaultTransport::new(iokc_store::FaultPlan::seeded(seed, 400, 24, &NetFault::ALL));
        let server = start_server(ServerConfig {
            workers: 4,
            queue: 16,
            transport: Arc::new(transport.clone()),
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let metrics = server.metrics();

        let paths = [
            "/api/runs",
            "/api/runs/1",
            "/healthz",
            "/api/boxplot?op=write",
            "/",
            "/metrics",
        ];
        let clients: Vec<_> = (0..4)
            .map(|n| {
                std::thread::spawn(move || {
                    let mut complete = 0usize;
                    for i in 0..6 {
                        let path = paths[(n + i) % paths.len()];
                        if let Some((status, _)) = try_get(addr, path) {
                            assert!(
                                status == 200 || status >= 400,
                                "seed {seed}: nonsense status {status}"
                            );
                            complete += 1;
                        }
                    }
                    complete
                })
            })
            .collect();
        let completed: usize = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .sum();

        // Give in-flight handlers (whose clients already gave up) a
        // bounded window to finish, then demand exact accounting.
        let connections = metrics.counter("explorerd.connections");
        let accounted = || {
            metrics.counter("explorerd.shed").get()
                + metrics.counter("explorerd.requests").get()
                + metrics.counter("explorerd.recv.closed").get()
                + metrics.counter("explorerd.recv.timeout").get()
                + metrics.counter("explorerd.recv.too_large").get()
                + metrics.counter("explorerd.recv.malformed").get()
                + metrics.counter("explorerd.recv.io").get()
                + metrics.counter("explorerd.recv.cancelled").get()
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while accounted() < connections.get() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(
            accounted(),
            connections.get(),
            "seed {seed}: every accepted connection must end in exactly one \
             counted outcome (no silent drops, no hung workers)"
        );
        assert!(
            metrics.counter("explorerd.requests").get() >= completed as u64,
            "seed {seed}: every complete client response came from a parsed request"
        );
        // The injected-fault tally mirrors into the registry counter.
        assert_eq!(
            metrics.counter("explorerd.faults_injected").get(),
            transport.faults_injected(),
            "seed {seed}: fault counter mirrors the transport"
        );

        shutdown_within(server, Duration::from_secs(10));
    }
}

#[test]
fn torn_writes_never_poison_the_cache() {
    // Baseline from a fault-free server: /api/runs over this store is
    // deterministic.
    let baseline = {
        let server = start_server(ServerConfig::default());
        let (status, body) = try_get(server.local_addr(), "/api/runs").expect("clean fetch");
        assert_eq!(status, 200);
        server.shutdown();
        body
    };
    assert!(matches!(
        json::parse(std::str::from_utf8(&baseline).expect("utf-8")).expect("json"),
        Json::Arr(_)
    ));

    // Sweep a torn write across the early op indices. Whatever op the
    // tear lands on — head, first chunk, cache-filling stream — any
    // *complete* 200 response the server ever produces afterwards
    // (including cache hits of the first response) must be
    // byte-identical to the baseline: the cache may only ever hold
    // fully written bodies.
    for op in 0..24u64 {
        let transport = FaultTransport::new(iokc_store::FaultPlan::at(op, NetFault::ShortWrite));
        let server = start_server(ServerConfig {
            transport: Arc::new(transport),
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        let mut complete = 0;
        for _ in 0..5 {
            if let Some((status, body)) = try_get(addr, "/api/runs") {
                assert_eq!(status, 200, "op {op}: /api/runs status");
                assert_eq!(
                    body, baseline,
                    "op {op}: a complete response (cached or fresh) must match the baseline"
                );
                complete += 1;
            }
        }
        assert!(
            complete >= 1,
            "op {op}: a single injected tear cannot block every retry"
        );
        shutdown_within(server, Duration::from_secs(10));
    }
}

#[test]
fn exhausted_deadline_budget_answers_504_with_progress_counters() {
    // A zero budget is expired from birth, so every store-querying
    // endpoint must answer 504 on its first cancellation poll —
    // deterministically, no timing involved — while /healthz and
    // /metrics (no store scans) keep answering 200.
    let server = start_server(ServerConfig {
        request_deadline: Duration::ZERO,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let metrics = server.metrics();

    // The aggregation endpoints must fail the same way: the 504 is
    // decided before the first body byte (the whole response renders
    // from the pinned snapshot before anything is written), so a blown
    // budget never tears a partially-streamed JSON document.
    for path in [
        "/api/runs",
        "/api/boxplot?op=write",
        "/api/compare",
        "/",
        "/api/agg",
        "/api/dist?group=tasks&factor=total_score",
        "/api/corr",
    ] {
        let (status, body) = try_get(addr, path).expect("a clean, fully framed 504");
        assert_eq!(status, 504, "{path} must answer Gateway Timeout");
        if path.starts_with("/api") {
            let parsed = json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("json");
            assert!(
                parsed.get("rows_examined").is_some() && parsed.get("rows_matched").is_some(),
                "{path}: 504 body carries partial-progress counters: {parsed:?}"
            );
        }
    }
    assert_eq!(
        metrics.counter("http.deadline_exceeded").get(),
        7,
        "each deadline miss ticks http.deadline_exceeded"
    );
    assert!(
        metrics.counter("store.query_cancelled").get() >= 4,
        "the store's scans observed the cancellations"
    );
    assert!(
        metrics.counter("store.aggregate.cancelled").get() >= 3,
        "the aggregate engine observed its cancellations"
    );

    let (status, _) = try_get(addr, "/healthz").expect("health is deadline-free");
    assert_eq!(status, 200);
    let (status, _) = try_get(addr, "/metrics").expect("metrics is deadline-free");
    assert_eq!(status, 200);

    // The workers were never pinned: shutdown joins promptly.
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn per_peer_cap_and_rate_limit_hold_end_to_end() {
    let server = start_server(ServerConfig {
        workers: 4,
        queue: 16,
        max_per_peer: 2,
        rate_per_peer: 1.0,
        limits: iokc_explorerd::Limits {
            read_deadline: Duration::from_secs(10),
            ..iokc_explorerd::Limits::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Two held connections fill the peer's concurrency cap; the third
    // is refused with 503 at accept time.
    let hold_a = TcpStream::connect(addr).expect("conn 1");
    let hold_b = TcpStream::connect(addr).expect("conn 2");
    std::thread::sleep(Duration::from_millis(100));
    let mut third = TcpStream::connect(addr).expect("conn 3");
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut raw = Vec::new();
    third.read_to_end(&mut raw).expect("shed response");
    assert!(
        String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 503"),
        "peer over its connection cap is shed: {raw:?}"
    );
    assert!(
        server
            .metrics()
            .counter("explorerd.admission.peer_capped")
            .get()
            >= 1
    );
    drop(hold_a);
    drop(hold_b);
    std::thread::sleep(Duration::from_millis(100));

    // Rate limit: burst is 2×rate = 2 tokens, so a rapid third request
    // on one keep-alive connection answers 429 Retry-After — while
    // /healthz stays exempt even with the bucket dry.
    let mut conn = TcpStream::connect(addr).expect("keep-alive conn");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut statuses = Vec::new();
    for _ in 0..3 {
        write!(conn, "GET /api/runs/1 HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let (status, head) = read_framed(&mut conn);
        statuses.push(status);
        if status == 429 {
            assert!(
                head.contains("Retry-After:"),
                "429 carries a retry hint: {head}"
            );
        }
    }
    assert_eq!(&statuses[..2], &[200, 200], "burst admits two");
    assert_eq!(statuses[2], 429, "the third rapid request is limited");
    write!(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let (status, _) = read_framed(&mut conn);
    assert_eq!(status, 200, "health probes bypass the rate limiter");

    shutdown_within(server, Duration::from_secs(10));
}

/// Read one `Content-Length`-framed response off a keep-alive
/// connection; returns `(status, head)`.
fn read_framed(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    let split = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut buf).expect("head");
        assert!(n > 0, "closed before a full head");
        raw.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status")
        .parse()
        .expect("numeric");
    let expected: usize = head
        .to_ascii_lowercase()
        .lines()
        .find_map(|l| {
            l.strip_prefix("content-length:")
                .map(str::trim)
                .map(String::from)
        })
        .expect("framed")
        .parse()
        .expect("numeric length");
    let mut got = raw.len() - split - 4;
    while got < expected {
        let n = stream.read(&mut buf).expect("body");
        assert!(n > 0, "closed mid-body");
        got += n;
    }
    (status, head)
}

#[test]
fn degraded_store_trips_the_breaker_for_expensive_endpoints_only() {
    // An unrecoverably damaged image opens read-only (Degraded). The
    // circuit breaker must fast-fail the expensive fan-out endpoints
    // with 503 while cheap reads and health stay up.
    let dir = std::env::temp_dir().join(format!("iokc-chaos-degraded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("kb.json");
    std::fs::write(&path, "definitely not a knowledge image").expect("write garbage");
    let store = KnowledgeStore::open_or_degraded(path);
    assert!(store.is_read_only());

    let recorder = Arc::new(Recorder::new(Clock::wall(), Arc::new(NullSink)));
    let server = Server::start(ServerConfig::default(), store, recorder).expect("bind");
    let addr = server.local_addr();

    for path in [
        "/api/compare",
        "/api/boxplot?op=write",
        "/compare",
        "/boxplot",
    ] {
        let (status, _) = try_get(addr, path).expect("clean fast-fail");
        assert_eq!(status, 503, "{path} fast-fails while degraded");
    }
    assert!(
        server
            .metrics()
            .counter("explorerd.breaker.fast_fail")
            .get()
            >= 4,
        "fast-fails are counted"
    );
    let (status, _) = try_get(addr, "/api/runs").expect("cheap read");
    assert_eq!(status, 200, "normal endpoints keep serving");
    let (status, _) = try_get(addr, "/healthz").expect("health");
    assert_eq!(status, 200, "health is always admitted");

    shutdown_within(server, Duration::from_secs(10));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn misbehaving_raw_clients_cannot_hang_the_server() {
    let server = start_server(ServerConfig {
        workers: 2,
        queue: 4,
        limits: iokc_explorerd::Limits {
            read_deadline: Duration::from_millis(300),
            ..iokc_explorerd::Limits::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Six flavours of bad citizenship, all at once.
    let misbehavers: Vec<_> = (0..6)
        .map(|n| {
            std::thread::spawn(move || match n {
                // Connect and say nothing; hold the socket open.
                0 => {
                    let s = TcpStream::connect(addr).ok();
                    std::thread::sleep(Duration::from_millis(600));
                    drop(s);
                }
                // Drip a partial head past the read deadline.
                1 => {
                    if let Ok(mut s) = TcpStream::connect(addr) {
                        for _ in 0..4 {
                            let _ = s.write_all(b"GET /dribble");
                            std::thread::sleep(Duration::from_millis(150));
                        }
                    }
                }
                // Pure garbage.
                2 => {
                    if let Ok(mut s) = TcpStream::connect(addr) {
                        let _ = s.write_all(b"\x00\x01\x02 nonsense \r\n\r\n");
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
                // Connect and vanish immediately.
                3 => {
                    drop(TcpStream::connect(addr));
                }
                // Valid request, then vanish without reading the reply.
                4 => {
                    if let Ok(mut s) = TcpStream::connect(addr) {
                        let _ = s.write_all(b"GET /api/runs HTTP/1.1\r\nHost: t\r\n\r\n");
                    }
                }
                // An oversized head.
                _ => {
                    if let Ok(mut s) = TcpStream::connect(addr) {
                        let _ = s.write_all(b"GET / HTTP/1.1\r\nX-Fill: ");
                        let _ = s.write_all(&vec![b'a'; 16 * 1024]);
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            })
        })
        .collect();
    for m in misbehavers {
        m.join().expect("misbehaver thread");
    }

    // A well-behaved client still gets through (retrying past any
    // transient shed while the workers clear the wreckage).
    let deadline = Instant::now() + Duration::from_secs(5);
    let served = loop {
        match try_get(addr, "/healthz") {
            Some((200, _)) => break true,
            _ if Instant::now() >= deadline => break false,
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    assert!(served, "an honest client is served after the abuse");

    shutdown_within(server, Duration::from_secs(10));
}
