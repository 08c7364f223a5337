//! Server assembly: listener, transport seam, admission control, the
//! readiness-driven reactor, and the off-loop handler pool.
//!
//! One reactor thread owns every socket (see [`crate::reactor`]): it
//! accepts connections, wraps them through the configured
//! [`Transport`] (production: raw sockets; chaos tests: the fault
//! injector), enforces the global connection cap and the per-peer
//! concurrency cap, and multiplexes all connections through `poll(2)`
//! in non-blocking mode. Parsed requests are executed by a small
//! [`crate::pool::HandlerPool`] off the loop; finished
//! responses come back through a completion queue and are written
//! incrementally as each socket drains. When the pool's bounded
//! backlog is full, new requests are answered `503 Retry-After`
//! straight from the loop — shedding load in O(1) instead of letting
//! every client queue behind a stalled handler.
//!
//! Each admitted request runs under a wall-clock deadline budget
//! ([`ServerConfig::request_deadline`]) carried as an `iokc-obs`
//! [`iokc_obs::DeadlineToken`] into the store's query scans; a request that blows
//! its budget answers `504` with partial-progress counters instead of
//! pinning a handler. The [`Admission`] controller layers per-peer
//! rate limits, priority shedding, and a circuit breaker on top — see
//! [`crate::admission`] — and every `429`/`503` derives its
//! `Retry-After` from the limiter's actual refill or cooldown clock.
//!
//! Shutdown is cooperative through the shared [`CancelToken`]: the
//! reactor stops accepting, reaps connections that are between
//! requests, drains dispatched and mid-write responses within a short
//! grace period, and joins the handler pool. No thread is left hung on
//! a silent peer.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use iokc_obs::{CancelToken, MetricsRegistry, Recorder};
use iokc_store::KnowledgeStore;

use crate::admission::{Admission, AdmissionConfig};
use crate::cache::CacheStats;
use crate::http::Limits;
use crate::reactor::{Reactor, ReactorConfig};
use crate::service::Explorer;
use crate::transport::{StdTransport, Transport, Waker};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Handler threads executing store queries off the reactor loop.
    pub workers: usize,
    /// Bounded handler-backlog capacity; beyond it, load is shed with
    /// 503.
    pub queue: usize,
    /// Query-cache byte budget.
    pub cache_bytes: usize,
    /// Request parsing limits.
    pub limits: Limits,
    /// The socket seam every connection flows through. Production keeps
    /// the default [`StdTransport`]; chaos tests substitute a
    /// fault-injecting transport.
    pub transport: Arc<dyn Transport>,
    /// Wall-clock budget for one request, carried into store query
    /// scans; exceeding it answers `504`. Generous by default.
    pub request_deadline: Duration,
    /// Maximum simultaneous connections per peer address (0 = no cap).
    pub max_per_peer: usize,
    /// Sustained requests/second per peer address (0 = unlimited).
    pub rate_per_peer: f64,
    /// Maximum simultaneous open connections across all peers
    /// (0 = unlimited). Beyond it, new connections are shed with 503.
    pub max_conns: usize,
    /// How long a keep-alive connection may sit between requests before
    /// the reactor reaps it with a clean close.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue: 64,
            cache_bytes: 1 << 20,
            limits: Limits::default(),
            transport: Arc::new(StdTransport),
            request_deadline: Duration::from_secs(30),
            max_per_peer: 0,
            rate_per_peer: 0.0,
            max_conns: 0,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// A running explorer server.
pub struct Server {
    local_addr: SocketAddr,
    explorer: Arc<Explorer>,
    recorder: Arc<Recorder>,
    cancel: CancelToken,
    waker: Arc<Waker>,
    reactor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the handler pool and the reactor thread, and start
    /// serving `store`.
    pub fn start(
        config: ServerConfig,
        mut store: KnowledgeStore,
        recorder: Arc<Recorder>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let cancel = CancelToken::new();
        // The store's query engine reports into the same registry the
        // service exposes at /metrics (index hits, full scans, pruning).
        store.attach_recorder(Arc::clone(&recorder));
        let store = Arc::new(RwLock::new(store));
        let explorer = Arc::new(Explorer::new(
            Arc::clone(&store),
            config.cache_bytes,
            Arc::clone(&recorder),
        ));
        let metrics = recorder.metrics();
        config
            .transport
            .attach_fault_counter(metrics.counter("explorerd.faults_injected"));
        let admission = Arc::new(Admission::new(
            AdmissionConfig {
                max_per_peer: config.max_per_peer,
                rate_per_peer: config.rate_per_peer,
                ..AdmissionConfig::default()
            },
            config.queue,
            &metrics,
        ));
        let waker = Arc::new(Waker::new()?);

        let reactor = Reactor {
            listener,
            transport: Arc::clone(&config.transport),
            admission,
            explorer: Arc::clone(&explorer),
            waker: Arc::clone(&waker),
            cancel: cancel.clone(),
            recorder: Arc::clone(&recorder),
            config: ReactorConfig {
                limits: config.limits.clone(),
                idle_timeout: config.idle_timeout,
                max_conns: config.max_conns,
                workers: config.workers,
                queue: config.queue,
                request_deadline: config.request_deadline,
            },
        };
        let reactor = std::thread::Builder::new()
            .name("explorerd-reactor".to_owned())
            .spawn(move || reactor.run())?;

        Ok(Server {
            local_addr,
            explorer,
            recorder,
            cancel,
            waker,
            reactor: Some(reactor),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared store — writes through this handle bump the
    /// generation and invalidate cached views.
    #[must_use]
    pub fn store(&self) -> Arc<RwLock<KnowledgeStore>> {
        self.explorer.store()
    }

    /// The metrics registry serving `/metrics`.
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.recorder.metrics()
    }

    /// Query-cache statistics.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.explorer.cache_stats()
    }

    /// The cancellation token; `cancel()` initiates graceful shutdown.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Graceful shutdown: stop accepting, drain in-flight responses
    /// within the reactor's grace period, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.cancel.cancel();
        self.waker.wake();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}
