//! The socket layer: [`Transport`]/[`Conn`] traits, the production
//! [`StdTransport`] veneer, the deterministic [`FaultTransport`]
//! injector, and the readiness primitives ([`Poller`]/[`Waker`]) the
//! reactor drives every connection through.
//!
//! This mirrors `store::vfs` one layer up: just as every file operation
//! the store performs flows through a `Vfs` so crash consistency can be
//! tested exhaustively, every byte the server reads from or writes to a
//! client flows through a [`Conn`] produced by the server's
//! [`Transport`]. Production wraps raw [`TcpStream`]s unchanged; the
//! chaos suite substitutes a [`FaultTransport`] whose [`FaultPlan`] (the
//! plan type `FaultVfs` runs) injects short reads/writes, RST-style
//! resets, mid-response stalls, slow-trickle bodies and connection drops
//! at *op-indexed* points — the op counter is global across every
//! connection the transport wraps, so one seeded plan exercises an
//! entire mixed workload reproducibly. Injected faults are counted and surface as
//! `explorerd.faults_injected` once a counter is attached.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use iokc_obs::Counter;
use iokc_store::FaultPlan;

/// One bidirectional client connection, as the server sees it.
///
/// The trait is the narrow waist between the HTTP layer and the socket:
/// request parsing and response writing only ever touch a
/// `&mut dyn Conn`, so a fault-injecting wrapper slots under the whole
/// serving path without the HTTP code knowing.
pub trait Conn: Read + Write + Send {
    /// Set the write timeout (used by the blocking shed path only; the
    /// reactor's writes are non-blocking).
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    /// Switch the connection between blocking and non-blocking mode.
    /// The reactor owns every admitted socket in non-blocking mode.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// The peer's address, when still known.
    fn peer_addr(&self) -> Option<SocketAddr>;
    /// Shut down both directions of the connection.
    fn shutdown(&self) -> io::Result<()>;
    /// The underlying OS descriptor for readiness polling, when the
    /// platform exposes one. `None` makes the [`Poller`] fall back to
    /// treating the connection as always ready.
    fn raw_fd(&self) -> Option<i32>;
}

/// The platform descriptor of a socket, when one exists.
#[cfg(unix)]
fn stream_fd(stream: &TcpStream) -> Option<i32> {
    use std::os::unix::io::AsRawFd;
    Some(stream.as_raw_fd())
}

#[cfg(not(unix))]
fn stream_fd(_stream: &TcpStream) -> Option<i32> {
    None
}

impl Conn for TcpStream {
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, dur)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }

    fn peer_addr(&self) -> Option<SocketAddr> {
        TcpStream::peer_addr(self).ok()
    }

    fn shutdown(&self) -> io::Result<()> {
        TcpStream::shutdown(self, Shutdown::Both)
    }

    fn raw_fd(&self) -> Option<i32> {
        stream_fd(self)
    }
}

/// The seam the server accepts connections through.
pub trait Transport: Send + Sync + fmt::Debug {
    /// Wrap one accepted socket into the connection the workers serve.
    fn wrap(&self, stream: TcpStream) -> Box<dyn Conn>;

    /// Mirror injected faults into `counter`. The server calls this at
    /// startup with `explorerd.faults_injected`; fault-free transports
    /// ignore it.
    fn attach_fault_counter(&self, counter: Counter) {
        let _ = counter;
    }
}

/// The production veneer: connections are the raw sockets, untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdTransport;

impl Transport for StdTransport {
    fn wrap(&self, stream: TcpStream) -> Box<dyn Conn> {
        Box::new(stream)
    }
}

/// What a [`FaultPlan`] can make a socket under [`FaultTransport`] do,
/// keyed by the transport's global op counter (each `read` and `write`
/// call is one op, across all connections in acceptance order). On one
/// op a stall comes first (the op then proceeds), then a drop, then a
/// reset, then a short read, or a short write before a trickle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NetFault {
    /// A read delivers at most one byte.
    ShortRead,
    /// A write persists only half the buffer, then fails — the
    /// torn-response case.
    ShortWrite,
    /// A read fails with `ECONNRESET` (peer sent RST).
    ResetRead,
    /// A write fails with `ECONNRESET`.
    ResetWrite,
    /// The op sleeps 10 ms before proceeding — a mid-response hiccup,
    /// not a failure.
    Stall,
    /// A write delivers a single byte (slow-trickle body; the caller's
    /// `write_all` loop continues with later ops).
    Trickle,
    /// The connection drops entirely: both directions are shut down and
    /// every later op on that connection fails.
    Drop,
}

impl NetFault {
    /// Every kind, in the order a seeded chaos plan's seed draws them.
    pub const ALL: [NetFault; 7] = [
        NetFault::ShortRead,
        NetFault::ShortWrite,
        NetFault::ResetRead,
        NetFault::ResetWrite,
        NetFault::Stall,
        NetFault::Trickle,
        NetFault::Drop,
    ];
}

/// How long a [`NetFault::Stall`] sleeps.
const STALL: Duration = Duration::from_millis(10);

/// The fault-injecting transport: wraps every accepted socket in a
/// [`Conn`] that consults the shared [`FaultPlan`] on each op.
///
/// Clones share state, so a test can keep one handle for assertions
/// while the server owns another.
#[derive(Debug, Clone, Default)]
pub struct FaultTransport {
    plan: Arc<FaultPlan<NetFault>>,
    ops: Arc<AtomicU64>,
}

impl FaultTransport {
    /// A transport executing `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan<NetFault>) -> FaultTransport {
        FaultTransport {
            plan: Arc::new(plan),
            ops: Arc::default(),
        }
    }

    /// Socket ops performed so far (reads + writes, all connections).
    #[must_use]
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Faults injected so far.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.plan.fired()
    }
}

impl Transport for FaultTransport {
    fn wrap(&self, stream: TcpStream) -> Box<dyn Conn> {
        Box::new(FaultConn {
            stream,
            plan: Arc::clone(&self.plan),
            ops: Arc::clone(&self.ops),
            dropped: false,
        })
    }

    /// Faults injected before attachment are backfilled, so the counter
    /// never under-reports.
    fn attach_fault_counter(&self, counter: Counter) {
        self.plan.attach_counter(counter);
    }
}

/// One fault-wrapped connection.
struct FaultConn {
    stream: TcpStream,
    plan: Arc<FaultPlan<NetFault>>,
    ops: Arc<AtomicU64>,
    dropped: bool,
}

impl FaultConn {
    /// Count one op, and serve a stall planned at it.
    fn next_op(&self) -> u64 {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.plan.fires(op, NetFault::Stall) {
            std::thread::sleep(STALL);
        }
        op
    }

    /// Drop the connection: shut both directions and poison every
    /// later op.
    fn drop_conn(&mut self) -> io::Error {
        self.dropped = true;
        let _ = self.stream.shutdown(Shutdown::Both);
        io::Error::new(io::ErrorKind::ConnectionAborted, "injected connection drop")
    }
}

impl Read for FaultConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dropped {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "connection already dropped",
            ));
        }
        let op = self.next_op();
        if self.plan.fires(op, NetFault::Drop) {
            return Err(self.drop_conn());
        }
        if self.plan.fires(op, NetFault::ResetRead) {
            let _ = self.stream.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected reset on read",
            ));
        }
        if buf.len() > 1 && self.plan.fires(op, NetFault::ShortRead) {
            return self.stream.read(&mut buf[..1]);
        }
        self.stream.read(buf)
    }
}

impl Write for FaultConn {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.dropped {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection already dropped",
            ));
        }
        let op = self.next_op();
        if self.plan.fires(op, NetFault::Drop) {
            return Err(self.drop_conn());
        }
        if self.plan.fires(op, NetFault::ResetWrite) {
            let _ = self.stream.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected reset on write",
            ));
        }
        if data.len() > 1 && self.plan.fires(op, NetFault::ShortWrite) {
            // The torn write: half the bytes reach the wire, then the
            // call fails — the caller must treat the response as
            // unsalvageable and close.
            let half = data.len() / 2;
            self.stream.write_all(&data[..half])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write",
            ));
        }
        if data.len() > 1 && self.plan.fires(op, NetFault::Trickle) {
            // Slow trickle: deliver one byte; the caller's write_all
            // loop continues, each continuation being a fresh op.
            return self.stream.write(&data[..1]);
        }
        self.stream.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Conn for FaultConn {
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(dur)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    fn peer_addr(&self) -> Option<SocketAddr> {
        self.stream.peer_addr().ok()
    }

    fn shutdown(&self) -> io::Result<()> {
        self.stream.shutdown(Shutdown::Both)
    }

    fn raw_fd(&self) -> Option<i32> {
        stream_fd(&self.stream)
    }
}

/// Raw `poll(2)` bindings. The crate otherwise denies unsafe code; this
/// module is the single audited exception, kept to one `#[repr(C)]`
/// struct and one foreign call so the reactor can sleep until a socket
/// is actually ready instead of burning a thread per connection.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use std::io;

    /// Mirror of the kernel's `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Safe wrapper over `poll(2)`: blocks until a descriptor is ready
    /// or `timeout_ms` elapses, filling `revents` in place.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // pollfd records valid for the whole call, and `nfds` matches
        // its length, so the kernel writes only within bounds.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(usize::try_from(rc).unwrap_or(0))
        }
    }
}

/// Interest registration and readiness report for one descriptor in a
/// [`Poller::wait`] call. Error/hangup conditions are folded into both
/// `readable()` and `writable()` so the connection's state machine
/// advances, performs the I/O, and classifies the failure it gets back.
#[derive(Debug, Clone, Copy, Default)]
pub struct PollSlot {
    fd: Option<i32>,
    want_read: bool,
    want_write: bool,
    got_read: bool,
    got_write: bool,
    got_error: bool,
}

impl PollSlot {
    /// Register read interest on `fd`.
    #[must_use]
    pub fn read(fd: Option<i32>) -> PollSlot {
        PollSlot {
            fd,
            want_read: true,
            ..PollSlot::default()
        }
    }

    /// Register write interest on `fd`.
    #[must_use]
    pub fn write(fd: Option<i32>) -> PollSlot {
        PollSlot {
            fd,
            want_write: true,
            ..PollSlot::default()
        }
    }

    /// The descriptor became readable (or errored/hung up).
    #[must_use]
    pub fn readable(&self) -> bool {
        self.got_read || self.got_error
    }

    /// The descriptor became writable (or errored/hung up).
    #[must_use]
    pub fn writable(&self) -> bool {
        self.got_write || self.got_error
    }
}

/// A thin readiness poller over `poll(2)`.
///
/// On Linux this is a real level-triggered kernel poll; descriptors
/// stay reported ready until their buffers drain, which is what lets
/// the reactor park pipelined bytes in the kernel while a response is
/// still being written. On other platforms (and for [`Conn`]s without
/// a descriptor) it degrades to a bounded sleep that reports every
/// slot ready — correct, because all reactor I/O is non-blocking and
/// simply returns `WouldBlock`, just less efficient.
#[derive(Debug, Default)]
pub struct Poller {
    #[cfg(target_os = "linux")]
    fds: Vec<sys::PollFd>,
    #[cfg(target_os = "linux")]
    slot_index: Vec<usize>,
}

impl Poller {
    /// A fresh poller with no registered interest.
    #[must_use]
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Wait until a slot is ready or `timeout` elapses, filling each
    /// slot's readiness flags. Returns the number of ready slots.
    #[cfg(target_os = "linux")]
    pub fn wait(&mut self, slots: &mut [PollSlot], timeout: Duration) -> io::Result<usize> {
        self.fds.clear();
        self.slot_index.clear();
        let mut fallback_ready = 0usize;
        for (i, slot) in slots.iter_mut().enumerate() {
            slot.got_read = false;
            slot.got_write = false;
            slot.got_error = false;
            match slot.fd {
                Some(fd) => {
                    let mut events = 0i16;
                    if slot.want_read {
                        events |= sys::POLLIN;
                    }
                    if slot.want_write {
                        events |= sys::POLLOUT;
                    }
                    self.fds.push(sys::PollFd {
                        fd,
                        events,
                        revents: 0,
                    });
                    self.slot_index.push(i);
                }
                None => {
                    // No descriptor: report requested readiness and do
                    // not let the kernel sleep past it.
                    slot.got_read = slot.want_read;
                    slot.got_write = slot.want_write;
                    fallback_ready += 1;
                }
            }
        }
        let timeout_ms = if fallback_ready > 0 {
            0
        } else {
            i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX)
        };
        if self.fds.is_empty() {
            if fallback_ready == 0 && !timeout.is_zero() {
                std::thread::sleep(timeout);
            }
            return Ok(fallback_ready);
        }
        match sys::poll_fds(&mut self.fds, timeout_ms) {
            Ok(_) => {}
            Err(err) if err.kind() == io::ErrorKind::Interrupted => return Ok(fallback_ready),
            Err(err) => return Err(err),
        }
        let mut ready = fallback_ready;
        for (pf, &i) in self.fds.iter().zip(&self.slot_index) {
            let slot = &mut slots[i];
            if pf.revents & sys::POLLIN != 0 {
                slot.got_read = true;
            }
            if pf.revents & sys::POLLOUT != 0 {
                slot.got_write = true;
            }
            if pf.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0 {
                slot.got_error = true;
            }
            if slot.readable() || slot.writable() {
                ready += 1;
            }
        }
        Ok(ready)
    }

    /// Portable fallback: bounded sleep, then report every slot ready.
    #[cfg(not(target_os = "linux"))]
    pub fn wait(&mut self, slots: &mut [PollSlot], timeout: Duration) -> io::Result<usize> {
        std::thread::sleep(timeout.min(Duration::from_millis(5)));
        for slot in slots.iter_mut() {
            slot.got_read = slot.want_read;
            slot.got_write = slot.want_write;
            slot.got_error = false;
        }
        Ok(slots.len())
    }
}

/// A self-pipe that unblocks [`Poller::wait`] from another thread.
///
/// The handler pool rings it after pushing each completion so finished
/// responses start draining immediately instead of waiting out the
/// poll slice.
#[cfg(unix)]
#[derive(Debug)]
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
    rx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl Waker {
    /// A connected, non-blocking socketpair waker.
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Wake the poller. A full pipe means a wake-up is already pending,
    /// so the failed write is deliberately ignored.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }

    /// The readable end's descriptor, registered as a read slot.
    #[must_use]
    pub fn fd(&self) -> Option<i32> {
        use std::os::unix::io::AsRawFd;
        Some(self.rx.as_raw_fd())
    }

    /// Consume any pending wake-up bytes.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.rx).read(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }
}

/// Portable stand-in: the fallback poller never sleeps long, so a
/// no-op waker only costs a bounded delay.
#[cfg(not(unix))]
#[derive(Debug)]
pub struct Waker;

#[cfg(not(unix))]
impl Waker {
    /// A no-op waker.
    pub fn new() -> io::Result<Waker> {
        Ok(Waker)
    }

    /// No-op: the fallback poller wakes itself every few milliseconds.
    pub fn wake(&self) {}

    /// No descriptor to register.
    #[must_use]
    pub fn fd(&self) -> Option<i32> {
        None
    }

    /// No-op.
    pub fn drain(&self) {}
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A loopback socket pair: (server side, client side).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (server, client)
    }

    #[test]
    fn std_transport_passes_bytes_through() {
        let (server, mut client) = pair();
        let mut conn = StdTransport.wrap(server);
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        conn.write_all(b"pong").unwrap();
        let mut back = [0u8; 4];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"pong");
        assert!(conn.peer_addr().is_some());
    }

    #[test]
    fn short_read_delivers_one_byte_and_counts() {
        let (server, mut client) = pair();
        let transport = FaultTransport::new(FaultPlan::at(0, NetFault::ShortRead));
        let mut conn = transport.wrap(server);
        client.write_all(b"abcdef").unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(conn.read(&mut buf).unwrap(), 1);
        assert_eq!(buf[0], b'a');
        // Op 1 is clean: the rest arrives.
        assert!(conn.read(&mut buf).unwrap() >= 1);
        assert_eq!(transport.faults_injected(), 1);
    }

    #[test]
    fn torn_write_sends_half_then_fails() {
        let (server, mut client) = pair();
        let transport = FaultTransport::new(FaultPlan::at(0, NetFault::ShortWrite));
        let mut conn = transport.wrap(server);
        let err = conn.write(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        drop(conn);
        let mut received = Vec::new();
        client.read_to_end(&mut received).unwrap();
        assert_eq!(received, b"01234", "exactly half reached the wire");
        assert_eq!(transport.faults_injected(), 1);
    }

    #[test]
    fn reset_and_drop_poison_the_connection() {
        let (server, _client) = pair();
        let transport = FaultTransport::new(FaultPlan::at(0, NetFault::Drop));
        let mut conn = transport.wrap(server);
        let err = conn.write(b"xx").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
        // Every later op fails without touching the plan.
        let err = conn.write(b"yy").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let mut buf = [0u8; 4];
        assert!(conn.read(&mut buf).is_err());
        assert_eq!(transport.faults_injected(), 1);

        let (server, _client2) = pair();
        let transport = FaultTransport::new(FaultPlan::at(0, NetFault::ResetRead));
        let mut conn = transport.wrap(server);
        let err = conn.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn trickle_delivers_one_byte_per_op() {
        let (server, mut client) = pair();
        let plan = [(0, NetFault::Trickle), (1, NetFault::Trickle)];
        let transport = FaultTransport::new(FaultPlan::from_iter(plan));
        let mut conn = transport.wrap(server);
        conn.write_all(b"abc").unwrap();
        drop(conn);
        let mut received = Vec::new();
        client.read_to_end(&mut received).unwrap();
        assert_eq!(received, b"abc", "trickle is slow, never lossy");
        assert_eq!(transport.faults_injected(), 2);
        assert!(transport.op_count() >= 3);
    }

    #[test]
    fn poller_reports_readiness_and_waker_unblocks() {
        let (server, mut client) = pair();
        server.set_nonblocking(true).unwrap();
        let conn = StdTransport.wrap(server);
        let mut poller = Poller::new();

        // Write interest on an empty send buffer is immediately ready.
        let mut slots = [PollSlot::write(conn.raw_fd())];
        let n = poller.wait(&mut slots, Duration::from_millis(200)).unwrap();
        assert!(n >= 1);
        assert!(slots[0].writable());

        // Read interest becomes ready once the peer sends a byte.
        client.write_all(b"x").unwrap();
        let mut slots = [PollSlot::read(conn.raw_fd())];
        let n = poller.wait(&mut slots, Duration::from_millis(500)).unwrap();
        assert!(n >= 1);
        assert!(slots[0].readable());

        // The waker's pipe registers like any other descriptor.
        let waker = Waker::new().unwrap();
        waker.wake();
        let mut slots = [PollSlot::read(waker.fd())];
        let n = poller.wait(&mut slots, Duration::from_millis(500)).unwrap();
        assert!(n >= 1);
        assert!(slots[0].readable());
        waker.drain();
    }

    #[test]
    fn seeded_chaos_is_reproducible_and_counter_backfills() {
        let plan = |seed| {
            let plan = FaultPlan::seeded(seed, 100, 12, &NetFault::ALL);
            plan.points().collect::<Vec<_>>()
        };
        assert_eq!(plan(42), plan(42));
        // Pinned: a recorded failing seed must keep replaying the plan
        // it failed under. The second seed is not 43: the generator ors
        // the low bit in, so 42 and 43 are the same seed stream.
        use NetFault::{ResetRead, ResetWrite, ShortRead, ShortWrite, Stall, Trickle};
        assert_eq!(
            plan(42),
            [
                (10, Trickle),
                (19, Stall),
                (27, Stall),
                (33, Stall),
                (46, Trickle),
                (51, ShortWrite),
                (53, Stall),
                (73, ResetRead),
                (76, ResetWrite),
                (87, ResetWrite),
                (99, ShortWrite),
                (99, Stall),
            ]
        );
        assert_eq!(
            plan(1234),
            [
                (5, ResetWrite),
                (5, Trickle),
                (10, ShortWrite),
                (16, ResetWrite),
                (18, ShortRead),
                (23, ResetWrite),
                (48, Trickle),
                (61, ResetWrite),
                (67, Stall),
                (70, ResetRead),
                (74, ShortRead),
                (96, ShortWrite),
            ]
        );

        // Counter attach backfills faults injected before attachment.
        let (server, _client) = pair();
        let transport = FaultTransport::new(FaultPlan::at(0, NetFault::Drop));
        let mut conn = transport.wrap(server);
        let _ = conn.write(b"xx");
        assert_eq!(transport.faults_injected(), 1);
        let counter = Counter::default();
        transport.attach_fault_counter(counter.clone());
        transport.attach_fault_counter(counter.clone());
        assert_eq!(counter.get(), 1, "backfilled exactly once");
    }
}
