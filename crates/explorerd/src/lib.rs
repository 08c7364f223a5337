//! `iokc-explorerd` — the knowledge explorer as an HTTP service.
//!
//! The paper's Analysis phase (§V-D) is a *web-based* explorer: a
//! single-run viewer, per-iteration detail, multi-object comparison with
//! selectable axes, a box-plot overview, and an IO500 viewer. This crate
//! serves exactly those views over HTTP/1.1 from a [`KnowledgeStore`],
//! with no dependencies beyond the standard library:
//!
//! * [`http`] — a minimal HTTP/1.1 layer: an incremental, resumable
//!   request parser with size limits, fixed-length and chunked
//!   responses, pull-based streaming bodies, keep-alive, and
//!   conditional-GET (`ETag` / `304 Not Modified`) plumbing;
//! * [`transport`] — the socket fault seam: every byte flows through a
//!   [`transport::Conn`] produced by the server's
//!   [`transport::Transport`], so a deterministic fault injector slots
//!   under the whole serving path in tests — plus the thin `poll(2)`
//!   readiness layer ([`transport::Poller`], [`transport::Waker`]) the
//!   reactor is built on;
//! * [`reactor`] — the readiness-driven event loop: one thread owns
//!   every socket in non-blocking mode and drives per-connection state
//!   machines (idle → reading → dispatched → writing → keep-alive),
//!   with idle-timeout and slow-loris enforcement on reactor timers;
//! * [`pool`] — the off-loop handler pool behind a bounded backlog with
//!   a completion queue; when the backlog is full the reactor sheds
//!   load with `503 Retry-After` instead of stalling every client;
//! * [`admission`] — per-peer connection caps and rate limits, priority
//!   shedding of expensive endpoints, and a circuit breaker over them,
//!   each refusal carrying a `Retry-After` derived from the limiter's
//!   actual refill or cooldown clock;
//! * [`cache`] — a read-through query cache keyed on the normalized
//!   query *and* the store's write generation, so persisting new
//!   knowledge invalidates every cached view — the same pair derives
//!   each response's strong ETag;
//! * [`service`] — the routing table and JSON/HTML renderers, reusing
//!   the `iokc-analysis` viewers and charts; `/api/runs` streams its
//!   rows in bounded pages pulled from a pinned snapshot as the socket
//!   drains;
//! * [`server`] — the assembly wiring it together, with graceful
//!   shutdown through an `iokc-obs` [`iokc_obs::CancelToken`].
//!
//! Observability is first-class: every request runs under a span, the
//! request log streams through the recorder's `EventSink`, connection
//! states surface as `explorerd.conns.*` gauges, and `GET /metrics`
//! dumps the schema-1 metrics JSON.
//!
//! [`KnowledgeStore`]: iokc_store::KnowledgeStore

// `deny`, not `forbid`: the one exception is the annotated FFI shim
// around `poll(2)` in `transport::sys`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod admission;
pub mod cache;
pub mod http;
pub mod pool;
pub mod reactor;
pub mod server;
pub mod service;
pub mod transport;

pub use admission::{classify, Admission, AdmissionConfig, AdmitDecision, EndpointClass};
pub use cache::{etag, CacheStats, QueryCache};
pub use http::{Body, BodySource, Limits, Parsed, Request, Response};
pub use pool::HandlerPool;
pub use server::{Server, ServerConfig};
pub use service::Explorer;
pub use transport::{
    Conn, FaultTransport, NetFault, PollSlot, Poller, StdTransport, Transport, Waker,
};
