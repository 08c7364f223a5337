//! The readiness-driven connection engine.
//!
//! One thread owns every socket: it accepts, polls for readiness
//! through the [`Poller`], feeds buffered bytes to the incremental
//! parser, and drives each connection's state machine
//!
//! ```text
//!   accept → Idle ─first byte→ Reading ─head complete→ Dispatched
//!               ↑                                           │ completion
//!               └──────────── keep-alive ←─── Writing ←─────┘
//! ```
//!
//! Store-touching work never runs on the loop: parsed requests are
//! submitted to the [`HandlerPool`], whose workers execute
//! [`Explorer::handle`] and push the finished [`Response`] onto the
//! completion queue, ringing the [`Waker`] so the loop starts the
//! write within one poll cycle. Writes are incremental: the loop
//! drains a bounded `send_buf`, refilled from a [`BodySource`] one
//! page at a time, so a 100k-row listing is never materialized whole.
//! Each refill carries everything that is ready — the head with the
//! first page, the terminator with the last — so a response of n pages
//! is n `write`s when the socket keeps up, and sockets run with
//! `TCP_NODELAY`: either alone still leaves a small segment waiting out
//! the peer's delayed ACK (40 ms) somewhere in a response.
//!
//! Timers live on the loop too: `Reading` connections are bounded by
//! the head read deadline (slow-loris → `408`), `Idle` keep-alive
//! connections by the idle timeout (reaped with a clean close). Both
//! tick `explorerd.recv.timeout`.
//!
//! Counter identity is preserved exactly as under the old
//! thread-per-connection design: every accepted connection ticks
//! `explorerd.connections`, and a `Connection: close` client
//! contributes exactly one of `explorerd.shed`, `explorerd.requests`,
//! or one `explorerd.recv.*` counter. `explorerd.write_failed` stays
//! outside the identity and ticks only when a *served* (admitted or
//! admission-refused) response fails mid-write — best-effort error
//! responses (`400`/`408`) ignore write failures, as before.

use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iokc_obs::{CancelToken, Counter, DeadlineToken, Gauge, MetricsRegistry, Recorder};

use crate::admission::{classify, Admission, AdmitDecision, ConnPermit};
use crate::http::{
    parse_request, pull_chunk, BodySource, Limits, Parsed, RecvError, Request, Response,
};
use crate::pool::HandlerPool;
use crate::service::Explorer;
use crate::transport::{Conn, PollSlot, Poller, Transport, Waker};

/// Upper bound on one poll sleep: cancellation, timers and (on the
/// portable fallback) completions are all observed within this slice.
const POLL_SLICE: Duration = Duration::from_millis(25);

/// How long a shutting-down reactor waits for dispatched and writing
/// connections to finish before closing them outright.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);

/// One request handed to the handler pool.
pub(crate) struct Job {
    /// The reactor's connection id, echoed back in the completion.
    pub conn_id: u64,
    /// The parsed request.
    pub request: Request,
}

/// One finished response coming back from the handler pool.
pub(crate) struct Completion {
    /// The connection the response belongs to.
    pub conn_id: u64,
    /// The response to write.
    pub response: Response,
}

/// Reactor tuning, split off [`ServerConfig`](crate::ServerConfig).
pub(crate) struct ReactorConfig {
    pub limits: Limits,
    pub idle_timeout: Duration,
    pub max_conns: usize,
    /// Handler threads, their backlog bound, and each request's budget.
    pub workers: usize,
    pub queue: usize,
    pub request_deadline: Duration,
}

/// Everything the reactor thread owns.
pub(crate) struct Reactor {
    pub listener: TcpListener,
    pub transport: Arc<dyn Transport>,
    pub admission: Arc<Admission>,
    pub explorer: Arc<Explorer>,
    pub waker: Arc<Waker>,
    pub cancel: CancelToken,
    pub recorder: Arc<Recorder>,
    pub config: ReactorConfig,
}

/// The classified connection-error counters — every accepted connection
/// that does not end in a clean response ends in exactly one of these.
#[derive(Clone)]
struct ConnObs {
    recv_closed: Counter,
    recv_timeout: Counter,
    recv_too_large: Counter,
    recv_malformed: Counter,
    recv_io: Counter,
    recv_cancelled: Counter,
    write_failed: Counter,
    /// Socket `write` calls that accepted bytes, and ones that found the
    /// socket full: writes per response, readable from `/metrics`.
    write_calls: Counter,
    write_would_block: Counter,
}

impl ConnObs {
    fn new(metrics: &MetricsRegistry) -> ConnObs {
        ConnObs {
            recv_closed: metrics.counter("explorerd.recv.closed"),
            recv_timeout: metrics.counter("explorerd.recv.timeout"),
            recv_too_large: metrics.counter("explorerd.recv.too_large"),
            recv_malformed: metrics.counter("explorerd.recv.malformed"),
            recv_io: metrics.counter("explorerd.recv.io"),
            recv_cancelled: metrics.counter("explorerd.recv.cancelled"),
            write_failed: metrics.counter("explorerd.write_failed"),
            write_calls: metrics.counter("explorerd.write.calls"),
            write_would_block: metrics.counter("explorerd.write.would_block"),
        }
    }
}

/// Shared context the per-connection helpers borrow.
struct Ctx {
    transport: Arc<dyn Transport>,
    admission: Arc<Admission>,
    explorer: Arc<Explorer>,
    cancel: CancelToken,
    recorder: Arc<Recorder>,
    limits: Limits,
    idle_timeout: Duration,
    max_conns: usize,
    obs: ConnObs,
    connections: Counter,
    shed: Counter,
    conns_open: Gauge,
    conns_idle: Gauge,
    conns_reading: Gauge,
    conns_writing: Gauge,
}

/// Where a connection's state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Keep-alive parked between requests (or freshly accepted);
    /// bounded by the idle timeout.
    Idle,
    /// Mid-head; bounded by the read deadline.
    Reading,
    /// Request handed to the pool; no I/O interest until the
    /// completion comes back.
    Dispatched,
    /// Draining `send_buf` (refilled from `source`, if any).
    Writing,
}

struct ConnState {
    conn: Box<dyn Conn>,
    fd: Option<i32>,
    // Held for its `Drop` over the connection's whole lifetime;
    // released on close.
    _permit: Option<ConnPermit>,
    peer: Option<IpAddr>,
    phase: Phase,
    /// Timer for `Idle`/`Reading`; ignored in the other phases.
    deadline: Instant,
    recv_buf: Vec<u8>,
    send_buf: Vec<u8>,
    sent: usize,
    source: Option<Box<dyn BodySource>>,
    keep_alive_after_write: bool,
    /// Does a mid-write failure tick `write_failed`? True for served
    /// responses, false for best-effort error responses.
    counted_write: bool,
    accepted_at: Instant,
    saw_first_byte: bool,
}

/// What which slot in the poll set belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotOwner {
    Listener,
    Waker,
    Conn(u64),
}

/// What a readable connection produced.
enum ReadOutcome {
    /// Socket drained without a complete head; keep waiting.
    Continue,
    /// Terminal condition already counted; close silently.
    CloseNow,
    /// Answer an error response (best-effort) and close.
    Respond(Response),
    /// A complete request to run through admission and dispatch.
    Request(Request),
}

/// What a writable connection produced.
enum WriteOutcome {
    /// Socket full; keep the write interest.
    Continue,
    /// Response fully written.
    Done,
    /// The write failed; the response is torn.
    Failed,
}

impl Reactor {
    /// The event loop. Runs until cancellation, then drains dispatched
    /// and mid-write connections within [`SHUTDOWN_GRACE`] and shuts
    /// the handler pool down.
    pub(crate) fn run(self) {
        let Reactor {
            listener,
            transport,
            admission,
            explorer,
            waker,
            cancel,
            recorder,
            config,
        } = self;
        // The loop thread starts the pool it later drains and joins. It
        // is the last of the server's threads to exit and so the first
        // to run when a process starts its next server, and glibc hands
        // a new thread the allocator arena of the thread that exited
        // before it: started from here, each handler thread inherits the
        // arena the previous handler loaded segment bodies into, instead
        // of trading arenas with the loop at every restart and leaving
        // the process holding both.
        let pool = {
            let (admission, explorer) = (Arc::clone(&admission), Arc::clone(&explorer));
            let (cancel, waker) = (cancel.clone(), Arc::clone(&waker));
            let budget = config.request_deadline;
            HandlerPool::new(
                config.workers,
                config.queue,
                move || waker.wake(),
                move |job: Job| {
                    let class = classify(&job.request.path);
                    let deadline = DeadlineToken::with_budget(cancel.clone(), budget);
                    let response = explorer.handle(&job.request, &deadline);
                    admission.record_outcome(class, response.status < 500);
                    Completion {
                        conn_id: job.conn_id,
                        response,
                    }
                },
            )
        };
        let metrics = recorder.metrics();
        let ctx = Ctx {
            transport,
            admission,
            explorer,
            cancel,
            limits: config.limits,
            idle_timeout: config.idle_timeout,
            max_conns: config.max_conns,
            obs: ConnObs::new(&metrics),
            connections: metrics.counter("explorerd.connections"),
            shed: metrics.counter("explorerd.shed"),
            conns_open: metrics.gauge("explorerd.conns.open"),
            conns_idle: metrics.gauge("explorerd.conns.idle"),
            conns_reading: metrics.gauge("explorerd.conns.reading"),
            conns_writing: metrics.gauge("explorerd.conns.writing"),
            recorder,
        };
        let mut conns: HashMap<u64, ConnState> = HashMap::new();
        let mut next_id: u64 = 0;
        let mut poller = Poller::new();
        let mut slots: Vec<PollSlot> = Vec::new();
        let mut owners: Vec<SlotOwner> = Vec::new();
        let mut cancel_seen = false;
        let mut grace_until = Instant::now();

        loop {
            if !cancel_seen && ctx.cancel.is_cancelled() {
                cancel_seen = true;
                grace_until = Instant::now() + SHUTDOWN_GRACE;
                // Connections waiting for request bytes have nothing in
                // flight: reap them now so shutdown never waits on a
                // silent peer.
                let waiting: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| matches!(c.phase, Phase::Idle | Phase::Reading))
                    .map(|(&id, _)| id)
                    .collect();
                for id in waiting {
                    ctx.obs.recv_cancelled.inc();
                    close_conn(&mut conns, id);
                }
            }
            if cancel_seen && (conns.is_empty() || Instant::now() >= grace_until) {
                break;
            }

            update_gauges(&ctx, &conns);

            slots.clear();
            owners.clear();
            if !cancel_seen {
                slots.push(PollSlot::read(listener_fd(&listener)));
                owners.push(SlotOwner::Listener);
            }
            slots.push(PollSlot::read(waker.fd()));
            owners.push(SlotOwner::Waker);
            for (&id, conn) in &conns {
                match conn.phase {
                    Phase::Idle | Phase::Reading => {
                        slots.push(PollSlot::read(conn.fd));
                        owners.push(SlotOwner::Conn(id));
                    }
                    Phase::Writing => {
                        slots.push(PollSlot::write(conn.fd));
                        owners.push(SlotOwner::Conn(id));
                    }
                    Phase::Dispatched => {}
                }
            }
            let _ = poller.wait(&mut slots, POLL_SLICE);
            waker.drain();

            // Completions first: frees pool slots and starts the writes
            // this very cycle.
            for done in pool.drain_completions() {
                begin_response(&mut conns, done.conn_id, done.response, &ctx, &pool);
            }

            // Accept everything pending, then drive ready connections.
            if !cancel_seen {
                let listener_ready = slots
                    .iter()
                    .zip(&owners)
                    .any(|(s, o)| *o == SlotOwner::Listener && s.readable());
                if listener_ready {
                    accept_ready(&listener, &mut conns, &mut next_id, &ctx);
                }
            }
            for (slot, owner) in slots.iter().zip(&owners) {
                if let SlotOwner::Conn(id) = owner {
                    if slot.readable() || slot.writable() {
                        drive_conn(&mut conns, *id, &ctx, &pool);
                    }
                }
            }

            // Timer sweep: reap idle keep-alives, 408 slow heads.
            let now = Instant::now();
            let due: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    matches!(c.phase, Phase::Idle | Phase::Reading) && now >= c.deadline
                })
                .map(|(&id, _)| id)
                .collect();
            for id in due {
                expire_conn(&mut conns, id, &ctx, &pool);
            }
        }

        // Grace over (or nothing left): anything still open was already
        // accounted (its request counted in `explorerd.requests`).
        for (_, conn) in conns.drain() {
            let _ = conn.conn.shutdown();
        }
        ctx.conns_open.set(0);
        ctx.conns_idle.set(0);
        ctx.conns_reading.set(0);
        ctx.conns_writing.set(0);
        pool.shutdown();
    }
}

#[cfg(unix)]
fn listener_fd(listener: &TcpListener) -> Option<i32> {
    use std::os::unix::io::AsRawFd;
    Some(listener.as_raw_fd())
}

#[cfg(not(unix))]
fn listener_fd(_listener: &TcpListener) -> Option<i32> {
    None
}

fn update_gauges(ctx: &Ctx, conns: &HashMap<u64, ConnState>) {
    let mut idle = 0u64;
    let mut reading = 0u64;
    let mut writing = 0u64;
    for conn in conns.values() {
        match conn.phase {
            Phase::Idle => idle += 1,
            Phase::Reading => reading += 1,
            Phase::Writing => writing += 1,
            Phase::Dispatched => {}
        }
    }
    ctx.conns_open.set(conns.len() as u64);
    ctx.conns_idle.set(idle);
    ctx.conns_reading.set(reading);
    ctx.conns_writing.set(writing);
}

/// Accept until the listener reports `WouldBlock`.
fn accept_ready(
    listener: &TcpListener,
    conns: &mut HashMap<u64, ConnState>,
    next_id: &mut u64,
    ctx: &Ctx,
) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                ctx.connections.inc();
                // Responses leave in whole buffers; Nagle would only hold
                // a buffer's last segment until the peer's delayed ACK.
                let _ = stream.set_nodelay(true);
                let conn = ctx.transport.wrap(stream);
                if ctx.max_conns > 0 && conns.len() >= ctx.max_conns {
                    ctx.shed.inc();
                    shed_connection(conn);
                    continue;
                }
                let Some(permit) = ctx.admission.admit_conn(Some(peer.ip())) else {
                    // Peer over its concurrency cap: shed in O(1).
                    ctx.shed.inc();
                    shed_connection(conn);
                    continue;
                };
                if conn.set_nonblocking(true).is_err() {
                    ctx.obs.recv_io.inc();
                    let _ = conn.shutdown();
                    continue;
                }
                let fd = conn.raw_fd();
                let id = *next_id;
                *next_id += 1;
                let now = Instant::now();
                conns.insert(
                    id,
                    ConnState {
                        conn,
                        fd,
                        _permit: Some(permit),
                        peer: Some(peer.ip()),
                        phase: Phase::Idle,
                        deadline: now + ctx.idle_timeout,
                        recv_buf: Vec::new(),
                        send_buf: Vec::new(),
                        sent: 0,
                        source: None,
                        keep_alive_after_write: false,
                        counted_write: false,
                        accepted_at: now,
                        saw_first_byte: false,
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Answer `503 Retry-After: 1` and close — the load-shedding path, run
/// inline so it stays O(1) regardless of handler state. The socket
/// never joins the poll set, so the write is blocking with a short
/// timeout.
fn shed_connection(mut conn: Box<dyn Conn>) {
    let _ = conn.set_nonblocking(false);
    let _ = conn.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = Response::unavailable(1).write(conn.as_mut(), false);
}

/// `429 Too Many Requests` with the bucket's derived `Retry-After`.
fn rate_limited(retry_after_secs: u32) -> Response {
    let mut resp = Response::error(429, "per-peer rate limit exceeded, retry shortly");
    resp.headers
        .push(("Retry-After", retry_after_secs.to_string()));
    resp
}

fn close_conn(conns: &mut HashMap<u64, ConnState>, id: u64) {
    if let Some(conn) = conns.remove(&id) {
        let _ = conn.conn.shutdown();
    }
}

/// Drive one connection as far as the socket allows right now.
fn drive_conn(
    conns: &mut HashMap<u64, ConnState>,
    id: u64,
    ctx: &Ctx,
    pool: &HandlerPool<Job, Completion>,
) {
    loop {
        let Some(conn) = conns.get_mut(&id) else {
            return;
        };
        match conn.phase {
            Phase::Dispatched => return,
            Phase::Idle | Phase::Reading => match read_ready(conn, ctx) {
                ReadOutcome::Continue => return,
                ReadOutcome::CloseNow => {
                    close_conn(conns, id);
                    return;
                }
                ReadOutcome::Respond(resp) => {
                    start_write(conn, resp, false, false);
                    // Loop: the Writing arm drains what it can now.
                }
                ReadOutcome::Request(req) => {
                    if !dispatch(conn, id, req, ctx, pool) {
                        return; // Parked in Dispatched.
                    }
                    // An admission refusal started a write; loop.
                }
            },
            Phase::Writing => match write_ready(conn, &ctx.obs) {
                WriteOutcome::Continue => return,
                WriteOutcome::Failed => {
                    if conn.counted_write {
                        ctx.obs.write_failed.inc();
                    }
                    close_conn(conns, id);
                    return;
                }
                WriteOutcome::Done => {
                    if !conn.keep_alive_after_write || ctx.cancel.is_cancelled() {
                        close_conn(conns, id);
                        return;
                    }
                    conn.counted_write = false;
                    conn.send_buf = Vec::new();
                    conn.sent = 0;
                    let now = Instant::now();
                    if conn.recv_buf.is_empty() {
                        conn.phase = Phase::Idle;
                        conn.deadline = now + ctx.idle_timeout;
                        return;
                    }
                    // Pipelined bytes already buffered: parse them now
                    // rather than waiting for the next poll event.
                    conn.phase = Phase::Reading;
                    conn.deadline = now + ctx.limits.read_deadline;
                    match parse_buffered(conn, ctx) {
                        None => return, // NeedMore: poll keeps watching.
                        Some(ReadOutcome::Request(req)) => {
                            if !dispatch(conn, id, req, ctx, pool) {
                                return;
                            }
                        }
                        Some(ReadOutcome::Respond(resp)) => {
                            start_write(conn, resp, false, false);
                        }
                        Some(ReadOutcome::Continue | ReadOutcome::CloseNow) => return,
                    }
                }
            },
        }
    }
}

/// Try to parse one request out of the connection's buffer, mapping
/// parse failures onto counted error responses.
fn parse_buffered(conn: &mut ConnState, ctx: &Ctx) -> Option<ReadOutcome> {
    match parse_request(&conn.recv_buf, &ctx.limits) {
        Ok(Parsed::NeedMore) => None,
        Ok(Parsed::Complete(req, used)) => {
            conn.recv_buf.drain(..used);
            Some(ReadOutcome::Request(req))
        }
        Err(RecvError::TooLarge) => {
            ctx.obs.recv_too_large.inc();
            Some(ReadOutcome::Respond(Response::error(
                400,
                "request head exceeds the size limit",
            )))
        }
        Err(RecvError::Malformed(what)) => {
            ctx.obs.recv_malformed.inc();
            Some(ReadOutcome::Respond(Response::error(400, &what)))
        }
    }
}

/// Pull whatever the socket holds, classifying terminal conditions the
/// same way the old blocking reader did.
fn read_ready(conn: &mut ConnState, ctx: &Ctx) -> ReadOutcome {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.conn.read(&mut chunk) {
            Ok(0) => {
                if conn.recv_buf.is_empty() {
                    ctx.obs.recv_closed.inc();
                    return ReadOutcome::CloseNow;
                }
                ctx.obs.recv_malformed.inc();
                return ReadOutcome::Respond(Response::error(400, "connection closed mid-request"));
            }
            Ok(n) => {
                if !conn.saw_first_byte {
                    conn.saw_first_byte = true;
                    ctx.recorder.observe(
                        "explorerd.accept_to_first_byte_ns",
                        conn.accepted_at.elapsed().as_nanos() as f64,
                    );
                }
                if conn.phase == Phase::Idle {
                    // First byte of a request: the head read deadline
                    // starts now (slow-loris enforcement).
                    conn.phase = Phase::Reading;
                    conn.deadline = Instant::now() + ctx.limits.read_deadline;
                }
                conn.recv_buf.extend_from_slice(&chunk[..n]);
                if let Some(outcome) = parse_buffered(conn, ctx) {
                    // Head complete (or unsalvageable): stop reading —
                    // pipelined bytes stay buffered until the response
                    // is out (backpressure).
                    return outcome;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return ReadOutcome::Continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {
                ctx.obs.recv_closed.inc();
                return ReadOutcome::CloseNow;
            }
            Err(_) => {
                ctx.obs.recv_io.inc();
                return ReadOutcome::CloseNow;
            }
        }
    }
}

/// Run admission and either park the connection in `Dispatched` (false)
/// or start writing a refusal/shed response (true).
fn dispatch(
    conn: &mut ConnState,
    id: u64,
    req: Request,
    ctx: &Ctx,
    pool: &HandlerPool<Job, Completion>,
) -> bool {
    let keep_alive = req.keep_alive && !ctx.cancel.is_cancelled();
    let class = classify(&req.path);
    let degraded = ctx.explorer.store_degraded();
    match ctx
        .admission
        .admit_request(conn.peer, class, degraded, pool.queued())
    {
        AdmitDecision::Admit => {
            conn.keep_alive_after_write = keep_alive;
            match pool.try_submit(Job {
                conn_id: id,
                request: req,
            }) {
                Ok(()) => {
                    conn.phase = Phase::Dispatched;
                    false
                }
                Err(_) => {
                    // Handler backlog full: shed, close after the 503.
                    ctx.shed.inc();
                    start_write(conn, Response::unavailable(1), false, false);
                    true
                }
            }
        }
        AdmitDecision::RateLimited { retry_after_secs } => {
            start_write(conn, rate_limited(retry_after_secs), keep_alive, true);
            true
        }
        AdmitDecision::ShedExpensive { retry_after_secs }
        | AdmitDecision::BreakerOpen { retry_after_secs } => {
            start_write(
                conn,
                Response::unavailable(retry_after_secs),
                keep_alive,
                true,
            );
            true
        }
    }
}

/// Queue a response for incremental writing: everything of it that is
/// ready goes into the first buffer.
fn start_write(conn: &mut ConnState, response: Response, keep_alive: bool, counted: bool) {
    conn.keep_alive_after_write = keep_alive;
    conn.counted_write = counted;
    conn.send_buf.clear();
    conn.sent = 0;
    conn.source = response.serialize(keep_alive, &mut conn.send_buf);
    conn.phase = Phase::Writing;
}

/// Drain the send buffer; once it is empty — and only then, which is
/// the backpressure — refill it with the body source's next page.
fn write_ready(conn: &mut ConnState, obs: &ConnObs) -> WriteOutcome {
    loop {
        if conn.sent == conn.send_buf.len() {
            let Some(source) = conn.source.as_mut() else {
                return WriteOutcome::Done;
            };
            conn.send_buf.clear();
            conn.sent = 0;
            if !pull_chunk(source.as_mut(), &mut conn.send_buf) {
                conn.source = None;
            }
        }
        match conn.conn.write(&conn.send_buf[conn.sent..]) {
            Ok(0) => return WriteOutcome::Failed,
            Ok(n) => {
                obs.write_calls.inc();
                conn.sent += n;
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                obs.write_would_block.inc();
                return WriteOutcome::Continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return WriteOutcome::Failed,
        }
    }
}

/// A completion arrived from the handler pool: start writing it.
fn begin_response(
    conns: &mut HashMap<u64, ConnState>,
    id: u64,
    response: Response,
    ctx: &Ctx,
    pool: &HandlerPool<Job, Completion>,
) {
    let Some(conn) = conns.get_mut(&id) else {
        // The connection went away (shutdown cleanup); drop the body.
        return;
    };
    let keep_alive = conn.keep_alive_after_write && !ctx.cancel.is_cancelled();
    start_write(conn, response, keep_alive, true);
    drive_conn(conns, id, ctx, pool);
}

/// A timer fired: 408 a half-received head, reap an idle keep-alive.
fn expire_conn(
    conns: &mut HashMap<u64, ConnState>,
    id: u64,
    ctx: &Ctx,
    pool: &HandlerPool<Job, Completion>,
) {
    let Some(conn) = conns.get_mut(&id) else {
        return;
    };
    ctx.obs.recv_timeout.inc();
    match conn.phase {
        Phase::Reading => {
            // Slow-loris: bytes arrived but the head never completed.
            start_write(
                conn,
                Response::error(408, "request not received before the read deadline"),
                false,
                false,
            );
            drive_conn(conns, id, ctx, pool);
        }
        Phase::Idle => {
            // Keep-alive idle eviction: a clean close, no response.
            close_conn(conns, id);
        }
        Phase::Dispatched | Phase::Writing => {}
    }
}
