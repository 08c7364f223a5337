//! The `/api/runs` response path, checked from outside the crate: how
//! many socket writes a streamed response takes (through the
//! [`Transport`] seam, counted, never timed), and that the streamed
//! bytes are the one-shot rendering of the same query by the row model
//! the stream's direct encoder replaced.
#![cfg(test)]

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

use iokc_core::model::{
    Io500Knowledge, Knowledge, KnowledgeItem, KnowledgeSource, OperationSummary,
};
use iokc_explorerd::http::pull_chunk;
use iokc_explorerd::{Body, Conn, Explorer, Request, Response, Server, ServerConfig, Transport};
use iokc_obs::{DeadlineToken, Recorder};
use iokc_store::{KnowledgeStore, Query, RunKind, RunOrder, RunPredicate, RunSummary};
use iokc_util::json::Json;
use proptest::prelude::*;

/// `service::PAGE_ROWS`: rows per streamed chunk.
const PAGE_ROWS: usize = 512;

// ------------------------------------------------------------------ corpus

fn bench(command: &str, api: &str, tasks: u32, ops: &[(&str, f64)]) -> Knowledge {
    let mut k = Knowledge::new(KnowledgeSource::Ior, command);
    k.pattern.api = api.to_owned();
    k.pattern.tasks = tasks;
    k.pattern.transfer_size = 1 << 20;
    for &(operation, mean_mib) in ops {
        k.summaries.push(OperationSummary {
            operation: operation.to_owned(),
            api: api.to_owned(),
            max_mib: mean_mib * 1.2,
            min_mib: mean_mib * 0.8,
            mean_mib,
            stddev_mib: 0.0,
            mean_ops: mean_mib / 2.0,
            iterations: 1,
        });
    }
    k
}

fn io500(tasks: u32, bw_score: f64, total_score: f64) -> Io500Knowledge {
    Io500Knowledge {
        id: None,
        tasks,
        bw_score,
        md_score: bw_score * 2.0,
        total_score,
        testcases: Vec::new(),
        options: std::collections::BTreeMap::new(),
        system: None,
        start_time: 1,
        warnings: Vec::new(),
    }
}

/// 1200 runs over three sealed segments and an active block, with every
/// sort key heavily duplicated, tombstones in both, and — last, so they
/// stay in the active block as saved — the rows an encoder can get
/// wrong: no `read` mean, no means at all, a command needing every kind
/// of escape, non-finite scores.
fn corpus() -> KnowledgeStore {
    let mut store = KnowledgeStore::in_memory();
    store.set_seal_threshold(300);
    let apis = ["POSIX", "MPIIO", "HDF5"];
    let items: Vec<KnowledgeItem> = (0..1200u32)
        .map(|i| {
            if i % 8 == 7 {
                let score = f64::from(i % 7);
                return KnowledgeItem::Io500(io500(1 << (i % 5), score, score * 1.5));
            }
            let api = apis[i as usize % 3];
            let write = ("write", f64::from(i % 10) * 50.0);
            let read = ("read", f64::from(i % 4) * 75.5);
            let ops = if i % 5 == 0 {
                vec![write]
            } else {
                vec![write, read]
            };
            let command = format!(
                "ior -a {api} -t {}{}",
                i % 6,
                if i % 9 == 0 { " -x" } else { "" }
            );
            KnowledgeItem::Benchmark(bench(&command, api, 1 << (i % 4), &ops))
        })
        .collect();
    for batch in items.chunks(100) {
        store.save_batch(batch).expect("save");
    }
    for id in [5, 299, 300, 301, 640] {
        assert!(store.delete_knowledge(id).expect("delete sealed"));
    }
    assert!(store.delete_io500(3).expect("delete sealed io500"));
    let odd = [
        bench("ior -a posix", "POSIX", 8, &[("write", 123.456)]),
        bench("mdtest -n 4", "POSIX", 2, &[]),
        bench(
            "ior \"q\" \\ back\nline\ttab \u{1}ctl é😀",
            "MPIIO",
            4,
            &[("read", 0.5)],
        ),
    ];
    for k in &odd {
        store.save_knowledge(k).expect("save");
    }
    store
        .save_io500(&io500(16, f64::INFINITY, f64::NAN))
        .expect("save");
    let last = store.save_knowledge(&odd[0]).expect("save");
    assert!(store.delete_knowledge(last).expect("delete active"));
    assert!(store.segment_metas().len() >= 3, "sealed blocks exist");
    store
}

// ------------------------------------------------------------------- model

/// One `/api/runs` row as a `Json` tree — the renderer the stream used
/// before it encoded rows directly, kept as the model of its bytes.
fn summary_row(row: &RunSummary) -> Json {
    let mean = |op: &str| row.op(op).map_or(Json::Null, |s| Json::from(s.mean_mib));
    match row.kind {
        RunKind::Benchmark => Json::obj(vec![
            ("kind", Json::from("benchmark")),
            ("id", Json::from(row.id)),
            ("command", Json::from(row.command.as_str())),
            ("api", Json::from(row.api.as_str())),
            ("tasks", Json::from(u64::from(row.tasks))),
            ("block_size", Json::from(row.block_size)),
            ("transfer_size", Json::from(row.transfer_size)),
            ("write_mean_mib", mean("write")),
            ("read_mean_mib", mean("read")),
            ("warnings", Json::from(row.warning_count)),
        ]),
        RunKind::Io500 => Json::obj(vec![
            ("kind", Json::from("io500")),
            ("id", Json::from(row.id)),
            ("tasks", Json::from(u64::from(row.tasks))),
            ("bw_score", Json::from(row.bw_score)),
            ("md_score", Json::from(row.md_score)),
            ("total_score", Json::from(row.total_score)),
            ("warnings", Json::from(row.warning_count)),
        ]),
    }
}

/// The `/api/runs` parameters of one request, and their typed reading.
#[derive(Debug, Clone, Default)]
struct Params {
    kind: Option<&'static str>,
    api: Option<&'static str>,
    command: Option<&'static str>,
    op: Option<&'static str>,
    tasks: Option<(u32, u32)>,
    sort: &'static str,
    descending: bool,
    offset: usize,
    limit: Option<usize>,
}

impl Params {
    fn request(&self) -> Request {
        let mut query: Vec<(String, String)> = Vec::new();
        let mut push = |k: &str, v: String| query.push((k.to_owned(), v));
        for (name, value) in [
            ("kind", self.kind),
            ("api", self.api),
            ("command", self.command),
            ("op", self.op),
        ] {
            if let Some(value) = value {
                push(name, value.to_owned());
            }
        }
        if let Some((lo, hi)) = self.tasks {
            push("min_tasks", lo.to_string());
            push("max_tasks", hi.to_string());
        }
        push("sort", self.sort.to_owned());
        push(
            "order",
            if self.descending { "desc" } else { "asc" }.to_owned(),
        );
        push("offset", self.offset.to_string());
        if let Some(limit) = self.limit {
            push("limit", limit.to_string());
        }
        Request {
            method: "GET".to_owned(),
            path: "/api/runs".to_owned(),
            query,
            keep_alive: false,
            if_none_match: None,
        }
    }

    fn query(&self) -> Query {
        let benchmark = || RunPredicate::Kind(RunKind::Benchmark);
        let mut predicate = RunPredicate::True;
        match self.kind {
            Some("io500") => predicate = predicate.and(RunPredicate::Kind(RunKind::Io500)),
            Some(_) => predicate = predicate.and(benchmark()),
            None => {}
        }
        if let Some(api) = self.api {
            predicate = predicate
                .and(benchmark())
                .and(RunPredicate::ApiEq(api.to_owned()));
        }
        if let Some(text) = self.command {
            predicate = predicate
                .and(benchmark())
                .and(RunPredicate::CommandContains(text.to_owned()));
        }
        if let Some(op) = self.op {
            predicate = predicate.and(RunPredicate::HasOp(op.to_owned()));
        }
        if let Some((lo, hi)) = self.tasks {
            predicate = predicate.and(RunPredicate::TasksBetween(lo, hi));
        }
        let mut query = Query::new(predicate)
            .order_by(match self.sort {
                "tasks" => RunOrder::Tasks,
                "command" => RunOrder::Command,
                "bw" => RunOrder::Bandwidth,
                _ => RunOrder::Id,
            })
            .offset(self.offset);
        query.descending = self.descending;
        query.limit = self.limit;
        query
    }
}

// ----------------------------------------------------------------- harness

/// The explorer over the shared corpus. No cache budget, so every
/// request streams.
fn explorer() -> &'static Explorer {
    static EXPLORER: OnceLock<Explorer> = OnceLock::new();
    EXPLORER.get_or_init(|| {
        let store = Arc::new(RwLock::new(corpus()));
        Explorer::new(store, 0, Arc::new(Recorder::disabled()))
    })
}

/// Everything a response puts on the wire, pulled to the end.
fn wire(response: Response) -> Vec<u8> {
    let mut out = Vec::new();
    let mut source = response.serialize(false, &mut out);
    while let Some(rest) = source.as_mut() {
        if !pull_chunk(rest.as_mut(), &mut out) {
            source = None;
        }
    }
    out
}

/// Status and body of wire bytes, de-chunking a chunked body.
fn parse(raw: &[u8]) -> (u16, Vec<u8>) {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head");
    let head = String::from_utf8_lossy(&raw[..split]).to_ascii_lowercase();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let mut rest = &raw[split + 4..];
    if !head.contains("transfer-encoding: chunked") {
        return (status, rest.to_vec());
    }
    let mut body = Vec::new();
    loop {
        let line = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(&String::from_utf8_lossy(&rest[..line]), 16)
            .expect("hex chunk size");
        rest = &rest[line + 2..];
        if size == 0 {
            assert_eq!(rest, b"\r\n", "nothing follows the terminator");
            return (status, body);
        }
        body.extend_from_slice(&rest[..size]);
        assert_eq!(&rest[size..size + 2], b"\r\n", "chunk closes with CRLF");
        rest = &rest[size + 2..];
    }
}

/// The streamed answer to `params` against the model's one-shot one.
fn streamed_and_model(params: &Params) -> (Vec<u8>, Vec<u8>) {
    let open = DeadlineToken::unbounded();
    let response = explorer().handle(&params.request(), &open);
    assert!(matches!(response.body, Body::Pull(_)), "a miss streams");
    let (status, streamed) = parse(&wire(response));
    assert_eq!(status, 200);
    let store = explorer().store();
    let rows = store
        .read()
        .expect("store lock")
        .query_summaries(&params.query(), &open)
        .expect("query");
    let model = Json::Arr(rows.iter().map(summary_row).collect()).to_compact();
    (streamed, model.into_bytes())
}

// ------------------------------------------------------------------- tests

#[test]
fn encoded_rows_equal_the_json_tree_model() {
    // Both kinds; a run without a `read` mean, one without any; a
    // command with quote, backslash, newline, tab, control and
    // multi-byte characters; infinite and NaN scores — all in the
    // unsealed tail of the corpus.
    let tail = Params {
        sort: "id",
        descending: true,
        limit: Some(40),
        ..Params::default()
    };
    let scores = Params {
        kind: Some("io500"),
        limit: Some(3),
        ..tail.clone()
    };
    let mut text = String::new();
    for params in [&tail, &scores] {
        let (streamed, model) = streamed_and_model(params);
        assert_eq!(
            String::from_utf8_lossy(&streamed),
            String::from_utf8_lossy(&model)
        );
        text.push_str(&String::from_utf8_lossy(&streamed));
    }
    for needle in [
        r#"{"bw_score":null,"id":151,"kind":"io500","md_score":null,"tasks":16,"total_score":null,"warnings":0}"#,
        r#""read_mean_mib":null,"tasks":8,"transfer_size":1048576,"warnings":0,"write_mean_mib":123.456}"#,
        r#""read_mean_mib":null,"tasks":2,"transfer_size":1048576,"warnings":0,"write_mean_mib":null}"#,
        r#""command":"ior \"q\" \\ back\nline\ttab \u0001ctl é😀""#,
    ] {
        assert!(text.contains(needle), "{needle} in {text}");
    }
    let empty = Params {
        api: Some("nope"),
        sort: "id",
        ..Params::default()
    };
    assert_eq!(streamed_and_model(&empty).0, b"[]");
}

#[test]
fn listings_around_the_page_boundary_stream_whole() {
    for rows in [PAGE_ROWS - 1, PAGE_ROWS, PAGE_ROWS + 1, 2 * PAGE_ROWS + 1] {
        for sort in ["id", "tasks", "command", "bw"] {
            for descending in [false, true] {
                let params = Params {
                    sort,
                    descending,
                    offset: 3,
                    limit: Some(rows),
                    ..Params::default()
                };
                let (streamed, model) = streamed_and_model(&params);
                assert!(streamed == model, "{params:?} diverged");
                let listed = streamed.windows(8).filter(|w| w == b"\"kind\":\"").count();
                assert_eq!(listed, rows, "{params:?}");
            }
        }
    }
}

fn arb_params() -> impl Strategy<Value = Params> {
    let filters = (
        prop_oneof![
            Just(None),
            Just(None),
            Just(Some("benchmark")),
            Just(Some("io500"))
        ],
        prop_oneof![
            Just(None),
            Just(None),
            Just(Some("POSIX")),
            Just(Some("HDF5"))
        ],
        prop_oneof![Just(None), Just(None), Just(Some("ior")), Just(Some("-x"))],
        prop_oneof![
            Just(None),
            Just(None),
            Just(Some("write")),
            Just(Some("read"))
        ],
        proptest::option::of((0u32..9, 0u32..20)),
    );
    let paging = (
        prop_oneof![Just("id"), Just("tasks"), Just("command"), Just("bw")],
        any::<bool>(),
        0usize..40,
        prop_oneof![
            Just(None),
            (0usize..9).prop_map(Some),
            Just(Some(PAGE_ROWS - 1)),
            Just(Some(PAGE_ROWS)),
            Just(Some(PAGE_ROWS + 1)),
            Just(Some(2 * PAGE_ROWS + 1)),
        ],
    );
    (filters, paging).prop_map(
        |((kind, api, command, op, tasks), (sort, descending, offset, limit))| Params {
            kind,
            api,
            command,
            op,
            tasks,
            sort,
            descending,
            offset,
            limit,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any filter, sort, direction, offset and limit over sealed and
    /// active blocks with duplicate sort keys and tombstones: the
    /// de-chunked stream is the one-shot rendering of `query_summaries`.
    #[test]
    fn streamed_body_equals_one_shot_rendering(params in arb_params()) {
        let (streamed, model) = streamed_and_model(&params);
        prop_assert!(streamed == model, "{:?} diverged", params);
    }
}

// ---------------------------------------------------------- counted writes

/// One `write` call: what was offered and how much the socket took.
type WriteLog = Arc<Mutex<Vec<(Vec<u8>, usize)>>>;

#[derive(Debug, Default)]
struct Recording {
    log: WriteLog,
}

struct RecordingConn {
    stream: TcpStream,
    log: WriteLog,
}

impl Transport for Recording {
    fn wrap(&self, stream: TcpStream) -> Box<dyn Conn> {
        Box::new(RecordingConn {
            stream,
            log: Arc::clone(&self.log),
        })
    }
}

impl Read for RecordingConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for RecordingConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let taken = self.stream.write(buf)?;
        self.log
            .lock()
            .expect("log lock")
            .push((buf.to_vec(), taken));
        Ok(taken)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Conn for RecordingConn {
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        Conn::set_write_timeout(&self.stream, dur)
    }
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        Conn::set_nonblocking(&self.stream, nonblocking)
    }
    fn peer_addr(&self) -> Option<SocketAddr> {
        Conn::peer_addr(&self.stream)
    }
    fn shutdown(&self) -> io::Result<()> {
        Conn::shutdown(&self.stream)
    }
    fn raw_fd(&self) -> Option<i32> {
        Conn::raw_fd(&self.stream)
    }
}

/// Fetch `path` on a connection of its own and return the buffers the
/// reactor filled for the answer. A `write` the socket took only part of
/// must be followed by one offering exactly the rest: the reactor may
/// not refill before the previous buffer drained.
fn buffers_for(addr: SocketAddr, log: &WriteLog, path: &str) -> Vec<Vec<u8>> {
    log.lock().expect("log lock").clear();
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read to close");
    assert_eq!(parse(&raw).0, 200);
    let mut buffers: Vec<Vec<u8>> = Vec::new();
    let mut rest: Option<Vec<u8>> = None;
    for (offered, taken) in log.lock().expect("log lock").iter() {
        match rest.take() {
            Some(rest) => assert!(*offered == rest, "refilled before the buffer drained"),
            None => buffers.push(offered.clone()),
        }
        if *taken < offered.len() {
            rest = Some(offered[*taken..].to_vec());
        }
    }
    assert!(rest.is_none(), "the last buffer drained");
    assert_eq!(buffers.concat(), raw, "the client read what was written");
    buffers
}

#[test]
fn a_streamed_response_is_one_write_per_page() {
    let transport = Recording::default();
    let log = Arc::clone(&transport.log);
    let server = Server::start(
        ServerConfig {
            transport: Arc::new(transport),
            ..ServerConfig::default()
        },
        corpus(),
        Arc::new(Recorder::disabled()),
    )
    .expect("server starts");
    let addr = server.local_addr();
    let writes = server.metrics().counter("explorerd.write.calls");

    // A one-page miss: head, chunk and terminator leave in one `write`.
    let one = buffers_for(addr, &log, "/api/runs?api=POSIX&limit=50");
    assert_eq!(
        log.lock().expect("log lock").len(),
        1,
        "exactly one write call"
    );
    assert_eq!(writes.get(), 1, "and /metrics says so");
    assert!(one[0].starts_with(b"HTTP/1.1 200 OK\r\n"));
    assert!(one[0]
        .windows(30)
        .any(|w| w == b"Transfer-Encoding: chunked\r\n\r\n"));
    assert!(one[0].ends_with(b"}]\r\n0\r\n\r\n"));
    // It filled the cache whole: the same listing again is one write of
    // the same body, fixed-length this time.
    let again = buffers_for(addr, &log, "/api/runs?limit=50&api=POSIX");
    assert_eq!(again.len(), 1);
    assert!(again[0].windows(16).any(|w| w == b"Content-Length: "));
    assert_eq!(parse(&again[0]).1, parse(&one[0]).1);

    // Three pages: three buffers (a 100 KB page may take several calls
    // to drain), the head sharing the first and the terminator the last.
    let three = buffers_for(
        addr,
        &log,
        &format!("/api/runs?limit={}", 2 * PAGE_ROWS + 1),
    );
    assert_eq!(three.len(), 3, "one buffer per page");
    let head_end = three[0]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("head in the first buffer");
    assert!(
        three[0].len() > head_end + 4 + 50_000,
        "with the first page behind it"
    );
    assert!(three[0].ends_with(b"}\r\n"));
    assert!(three[1].ends_with(b"}\r\n") && !three[1].starts_with(b"HTTP"));
    assert!(
        three[2].ends_with(b"}]\r\n0\r\n\r\n"),
        "terminator with the last page"
    );
    let listed = parse(&three.concat()).1;
    assert_eq!(
        listed.windows(8).filter(|w| w == b"\"kind\":\"").count(),
        2 * PAGE_ROWS + 1
    );
    server.shutdown();
}
