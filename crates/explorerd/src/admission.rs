//! Admission control beyond the binary accept queue: per-peer caps, a
//! token-bucket rate limiter, priority shedding, and a circuit breaker.
//!
//! The bounded worker queue (PR 4) answers one question — "is there any
//! capacity at all?" — with a binary yes/no. This module answers the
//! finer-grained ones a shared explorer needs under overload:
//!
//! * **Per-peer concurrency caps**: one misbehaving client opening
//!   hundreds of keep-alive connections cannot monopolize the worker
//!   pool; connections beyond `max_per_peer` are answered `503` at
//!   accept time.
//! * **Token-bucket rate limiting, keyed on peer address**: sustained
//!   request rates above `rate_per_peer` drain the peer's bucket and
//!   further requests get `429 Retry-After` until it refills.
//! * **Priority shedding**: `/healthz` and `/metrics` are always
//!   admitted (operators must be able to see *into* an overloaded
//!   server), while the expensive compare/boxplot renders are shed
//!   first — as soon as the accept queue is more than half full.
//! * **A circuit breaker** over the expensive endpoints: while the
//!   store reports `Degraded`, or after a run of server-side failures,
//!   expensive requests fast-fail `503` without touching the store,
//!   then a cooldown admits a probe request to test recovery.
//!
//! Decisions surface as counters: `explorerd.admission.peer_capped`,
//! `.rate_limited`, `.shed_expensive`, and `explorerd.breaker.opened` /
//! `.fast_fail`.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use iokc_obs::{Counter, MetricsRegistry};

/// Tuning knobs for [`Admission`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum simultaneous connections per peer address (0 = no cap).
    pub max_per_peer: usize,
    /// Sustained requests/second per peer address (0 = unlimited).
    pub rate_per_peer: f64,
    /// Token-bucket capacity (burst size); 0 picks `max(2×rate, 1)`.
    pub burst: f64,
    /// Consecutive expensive-endpoint failures that open the breaker.
    pub breaker_threshold: u32,
    /// How long an opened breaker fast-fails before admitting a probe.
    pub breaker_cooldown: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_per_peer: 0,
            rate_per_peer: 0.0,
            burst: 0.0,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(5),
        }
    }
}

/// How a request path ranks when the server has to choose whom to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointClass {
    /// Health and metrics: always admitted, never rate limited — an
    /// overloaded server must stay observable.
    Critical,
    /// The fan-out renders (compare, boxplot): shed first under
    /// pressure, guarded by the circuit breaker.
    Expensive,
    /// Everything else.
    Normal,
}

/// Classify a request path.
#[must_use]
pub fn classify(path: &str) -> EndpointClass {
    match path.trim_end_matches('/') {
        "/healthz" | "/metrics" => EndpointClass::Critical,
        "/api/compare" | "/api/boxplot" | "/compare" | "/boxplot" => EndpointClass::Expensive,
        _ => EndpointClass::Normal,
    }
}

/// The verdict for one parsed request. Refusals carry a derived
/// `Retry-After` hint: bucket refill time for rate limits, remaining
/// cooldown for the breaker — so well-behaved clients back off for
/// exactly as long as the server needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Serve it.
    Admit,
    /// The peer's token bucket is empty — `429 Retry-After`.
    RateLimited {
        /// Seconds until the bucket refills to one token.
        retry_after_secs: u32,
    },
    /// The queue is backlogged and this endpoint is expensive — `503`.
    ShedExpensive {
        /// Suggested back-off; the backlog drains at worker speed, so
        /// this stays the minimum hint.
        retry_after_secs: u32,
    },
    /// The circuit breaker is open (or the store is degraded) — `503`
    /// without touching the store.
    BreakerOpen {
        /// Seconds until the cooldown admits a probe.
        retry_after_secs: u32,
    },
}

impl AdmitDecision {
    /// The `Retry-After` hint carried by a refusal (`None` for
    /// [`AdmitDecision::Admit`]).
    #[must_use]
    pub fn retry_after_secs(&self) -> Option<u32> {
        match self {
            AdmitDecision::Admit => None,
            AdmitDecision::RateLimited { retry_after_secs }
            | AdmitDecision::ShedExpensive { retry_after_secs }
            | AdmitDecision::BreakerOpen { retry_after_secs } => Some(*retry_after_secs),
        }
    }
}

/// Per-peer bookkeeping: live connections and the rate-limit bucket.
#[derive(Debug)]
struct PeerState {
    active: usize,
    tokens: f64,
    refilled: Instant,
}

#[derive(Debug)]
enum BreakerState {
    /// Normal operation; counts consecutive expensive-endpoint failures.
    Closed { failures: u32 },
    /// Fast-failing until the cooldown elapses; the first request after
    /// that is admitted as a probe (half-open).
    Open { until: Instant },
}

/// Shared per-peer accounting, referenced by both the controller and
/// the RAII permits it hands out.
type PeerTable = Arc<Mutex<HashMap<IpAddr, PeerState>>>;

/// The admission controller shared by the accept thread and the workers.
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    peers: PeerTable,
    breaker: Mutex<BreakerState>,
    queue_capacity: usize,
    peer_capped: Counter,
    rate_limited: Counter,
    shed_expensive: Counter,
    breaker_opened: Counter,
    breaker_fast_fail: Counter,
}

/// Entries to keep per-peer state for before pruning idle peers — a
/// bound on memory, not a behavioral knob.
const PEER_TABLE_LIMIT: usize = 4096;

impl Admission {
    /// Build a controller for a queue of `queue_capacity` slots,
    /// registering its counters with `metrics`.
    #[must_use]
    pub fn new(
        config: AdmissionConfig,
        queue_capacity: usize,
        metrics: &MetricsRegistry,
    ) -> Admission {
        Admission {
            config,
            peers: Arc::new(Mutex::new(HashMap::new())),
            breaker: Mutex::new(BreakerState::Closed { failures: 0 }),
            queue_capacity: queue_capacity.max(1),
            peer_capped: metrics.counter("explorerd.admission.peer_capped"),
            rate_limited: metrics.counter("explorerd.admission.rate_limited"),
            shed_expensive: metrics.counter("explorerd.admission.shed_expensive"),
            breaker_opened: metrics.counter("explorerd.breaker.opened"),
            breaker_fast_fail: metrics.counter("explorerd.breaker.fast_fail"),
        }
    }

    /// Admit one new connection from `peer`, or refuse it when the peer
    /// is at its concurrency cap. The returned permit releases the slot
    /// on drop; hold it for the connection's whole lifetime.
    pub fn admit_conn(&self, peer: Option<IpAddr>) -> Option<ConnPermit> {
        let Some(ip) = peer else {
            // Peer unknown (socket already gone): nothing to key on.
            return Some(ConnPermit { peers: None });
        };
        let Ok(mut peers) = self.peers.lock() else {
            return Some(ConnPermit { peers: None });
        };
        if peers.len() >= PEER_TABLE_LIMIT {
            peers.retain(|_, p| p.active > 0);
        }
        let burst = self.effective_burst();
        let state = peers.entry(ip).or_insert_with(|| PeerState {
            active: 0,
            tokens: burst,
            refilled: Instant::now(),
        });
        if self.config.max_per_peer > 0 && state.active >= self.config.max_per_peer {
            self.peer_capped.inc();
            return None;
        }
        state.active += 1;
        Some(ConnPermit {
            peers: Some((Arc::clone(&self.peers), ip)),
        })
    }

    /// Decide one parsed request. `degraded` is the store's current
    /// health (a degraded store forces the breaker open for expensive
    /// endpoints); `queued` is the handler pool's backlog right now
    /// ([`HandlerPool::queued`](crate::HandlerPool::queued)), read from
    /// the queue itself so that no mirror of it can drift.
    pub fn admit_request(
        &self,
        peer: Option<IpAddr>,
        class: EndpointClass,
        degraded: bool,
        queued: usize,
    ) -> AdmitDecision {
        if class == EndpointClass::Critical {
            return AdmitDecision::Admit;
        }
        if class == EndpointClass::Expensive {
            if degraded || !self.breaker_probe() {
                self.breaker_fast_fail.inc();
                return AdmitDecision::BreakerOpen {
                    retry_after_secs: self.breaker_retry_hint(),
                };
            }
            // Priority shedding: a backlogged queue (over half full)
            // means workers are saturated — stop paying for fan-out
            // renders before touching cheap requests.
            if queued * 2 > self.queue_capacity {
                self.shed_expensive.inc();
                return AdmitDecision::ShedExpensive {
                    retry_after_secs: 1,
                };
            }
        }
        if let Err(retry_after_secs) = self.take_token(peer) {
            self.rate_limited.inc();
            return AdmitDecision::RateLimited { retry_after_secs };
        }
        AdmitDecision::Admit
    }

    /// Feed the circuit breaker with the outcome of an admitted
    /// expensive request (`success` = the response was not a 5xx).
    pub fn record_outcome(&self, class: EndpointClass, success: bool) {
        if class != EndpointClass::Expensive {
            return;
        }
        let Ok(mut breaker) = self.breaker.lock() else {
            return;
        };
        match (&mut *breaker, success) {
            (BreakerState::Closed { failures }, true) => *failures = 0,
            (BreakerState::Closed { failures }, false) => {
                *failures += 1;
                if *failures >= self.config.breaker_threshold {
                    self.breaker_opened.inc();
                    *breaker = BreakerState::Open {
                        until: Instant::now() + self.config.breaker_cooldown,
                    };
                }
            }
            // A probe outcome while open: success closes, failure
            // restarts the cooldown.
            (BreakerState::Open { .. }, true) => {
                *breaker = BreakerState::Closed { failures: 0 };
            }
            (BreakerState::Open { until }, false) => {
                *until = Instant::now() + self.config.breaker_cooldown;
            }
        }
    }

    /// Is the breaker currently fast-failing (ignoring store health)?
    #[must_use]
    pub fn breaker_open(&self) -> bool {
        match self.breaker.lock() {
            Ok(breaker) => match &*breaker {
                BreakerState::Closed { .. } => false,
                BreakerState::Open { until } => Instant::now() < *until,
            },
            Err(_) => false,
        }
    }

    /// May an expensive request proceed past the breaker? Admits
    /// everything while closed, and the first request after the
    /// cooldown as a half-open probe.
    fn breaker_probe(&self) -> bool {
        let Ok(breaker) = self.breaker.lock() else {
            return true;
        };
        match &*breaker {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } => Instant::now() >= *until,
        }
    }

    fn effective_burst(&self) -> f64 {
        if self.config.burst > 0.0 {
            self.config.burst
        } else {
            (self.config.rate_per_peer * 2.0).max(1.0)
        }
    }

    /// Seconds until the breaker cooldown admits a probe: the remaining
    /// `Open` window, or (when the store itself is degraded with the
    /// breaker closed) one full cooldown as the recheck interval.
    fn breaker_retry_hint(&self) -> u32 {
        let cooldown = duration_ceil_secs(self.config.breaker_cooldown);
        let Ok(breaker) = self.breaker.lock() else {
            return cooldown;
        };
        match &*breaker {
            BreakerState::Closed { .. } => cooldown,
            BreakerState::Open { until } => {
                duration_ceil_secs(until.saturating_duration_since(Instant::now()))
            }
        }
    }

    /// Take one token from the peer's bucket; on refusal returns the
    /// seconds until the bucket refills to a whole token.
    fn take_token(&self, peer: Option<IpAddr>) -> Result<(), u32> {
        if self.config.rate_per_peer <= 0.0 {
            return Ok(());
        }
        let Some(ip) = peer else {
            return Ok(());
        };
        let Ok(mut peers) = self.peers.lock() else {
            return Ok(());
        };
        let burst = self.effective_burst();
        let now = Instant::now();
        let state = peers.entry(ip).or_insert_with(|| PeerState {
            active: 0,
            tokens: burst,
            refilled: now,
        });
        let dt = now.duration_since(state.refilled).as_secs_f64();
        state.tokens = (state.tokens + dt * self.config.rate_per_peer).min(burst);
        state.refilled = now;
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - state.tokens;
            let secs = (deficit / self.config.rate_per_peer).ceil();
            Err(clamp_secs(secs))
        }
    }
}

/// Round a duration up to whole seconds, never below 1.
fn duration_ceil_secs(dur: Duration) -> u32 {
    clamp_secs(dur.as_secs_f64().ceil())
}

/// Clamp a (already ceiled) second count into `1..=u32::MAX`.
fn clamp_secs(secs: f64) -> u32 {
    if secs.is_finite() && secs >= 1.0 {
        if secs >= f64::from(u32::MAX) {
            u32::MAX
        } else {
            // Representable: finite, >= 1, < u32::MAX after the guard.
            secs as u32
        }
    } else {
        1
    }
}

/// A held per-peer connection slot; dropping it releases the slot.
#[derive(Debug)]
pub struct ConnPermit {
    peers: Option<(PeerTable, IpAddr)>,
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        if let Some((peers, ip)) = self.peers.take() {
            if let Ok(mut peers) = peers.lock() {
                if let Some(state) = peers.get_mut(&ip) {
                    state.active = state.active.saturating_sub(1);
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::HandlerPool;

    fn ip(last: u8) -> IpAddr {
        IpAddr::from([127, 0, 0, last])
    }

    fn controller(config: AdmissionConfig, queue: usize) -> Admission {
        Admission::new(config, queue, &MetricsRegistry::new())
    }

    #[test]
    fn classifies_endpoints() {
        assert_eq!(classify("/healthz"), EndpointClass::Critical);
        assert_eq!(classify("/metrics"), EndpointClass::Critical);
        assert_eq!(classify("/api/compare"), EndpointClass::Expensive);
        assert_eq!(classify("/boxplot"), EndpointClass::Expensive);
        assert_eq!(classify("/api/runs"), EndpointClass::Normal);
        assert_eq!(classify("/"), EndpointClass::Normal);
    }

    #[test]
    fn per_peer_cap_releases_on_drop() {
        let admission = controller(
            AdmissionConfig {
                max_per_peer: 2,
                ..AdmissionConfig::default()
            },
            8,
        );
        let a = admission.admit_conn(Some(ip(1))).unwrap();
        let _b = admission.admit_conn(Some(ip(1))).unwrap();
        assert!(admission.admit_conn(Some(ip(1))).is_none(), "cap reached");
        // A different peer is unaffected.
        assert!(admission.admit_conn(Some(ip(2))).is_some());
        drop(a);
        assert!(
            admission.admit_conn(Some(ip(1))).is_some(),
            "slot released on drop"
        );
    }

    #[test]
    fn token_bucket_limits_sustained_rate() {
        let admission = controller(
            AdmissionConfig {
                rate_per_peer: 1.0,
                burst: 2.0,
                ..AdmissionConfig::default()
            },
            8,
        );
        let peer = Some(ip(1));
        assert_eq!(
            admission.admit_request(peer, EndpointClass::Normal, false, 0),
            AdmitDecision::Admit
        );
        assert_eq!(
            admission.admit_request(peer, EndpointClass::Normal, false, 0),
            AdmitDecision::Admit
        );
        let refused = admission.admit_request(peer, EndpointClass::Normal, false, 0);
        assert!(
            matches!(refused, AdmitDecision::RateLimited { .. }),
            "burst of 2 exhausted, got {refused:?}"
        );
        assert_eq!(
            refused.retry_after_secs(),
            Some(1),
            "one token refills within a second at 1 rps"
        );
        // Critical endpoints bypass the bucket entirely.
        assert_eq!(
            admission.admit_request(peer, EndpointClass::Critical, false, 0),
            AdmitDecision::Admit
        );
    }

    #[test]
    fn backlog_sheds_expensive_first() {
        let admission = controller(AdmissionConfig::default(), 4);
        assert!(matches!(
            admission.admit_request(Some(ip(1)), EndpointClass::Expensive, false, 3),
            AdmitDecision::ShedExpensive { .. }
        ));
        assert_eq!(
            admission.admit_request(Some(ip(1)), EndpointClass::Normal, false, 3),
            AdmitDecision::Admit,
            "cheap endpoints still served"
        );
        assert_eq!(
            admission.admit_request(Some(ip(1)), EndpointClass::Expensive, false, 1),
            AdmitDecision::Admit,
            "backlog cleared"
        );
    }

    /// A handler may take a job before `try_submit` has returned to the
    /// reactor. The backlog is read from the queue, so such a job leaves
    /// nothing behind, and an idle server with a one-slot queue still
    /// admits expensive requests.
    #[test]
    fn a_job_taken_before_its_submit_returns_leaves_no_backlog() {
        let admission = controller(AdmissionConfig::default(), 1);
        let pool: HandlerPool<u32, u32> = HandlerPool::new(1, 1, || {}, |n| n);
        for n in 0..3 {
            pool.try_submit(n).unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            while pool.drain_completions().is_empty() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(
                admission.admit_request(
                    Some(ip(1)),
                    EndpointClass::Expensive,
                    false,
                    pool.queued()
                ),
                AdmitDecision::Admit
            );
        }
        pool.shutdown();
    }

    #[test]
    fn degraded_store_forces_breaker_for_expensive_only() {
        let admission = controller(AdmissionConfig::default(), 8);
        let refused = admission.admit_request(Some(ip(1)), EndpointClass::Expensive, true, 0);
        assert!(matches!(refused, AdmitDecision::BreakerOpen { .. }));
        assert_eq!(
            refused.retry_after_secs(),
            Some(5),
            "degraded store with a closed breaker hints one full cooldown"
        );
        assert_eq!(
            admission.admit_request(Some(ip(1)), EndpointClass::Normal, true, 0),
            AdmitDecision::Admit
        );
        assert_eq!(
            admission.admit_request(Some(ip(1)), EndpointClass::Critical, true, 0),
            AdmitDecision::Admit
        );
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_probes_after_cooldown() {
        let admission = controller(
            AdmissionConfig {
                breaker_threshold: 3,
                breaker_cooldown: Duration::from_millis(20),
                ..AdmissionConfig::default()
            },
            8,
        );
        let peer = Some(ip(1));
        for _ in 0..2 {
            admission.record_outcome(EndpointClass::Expensive, false);
        }
        assert!(!admission.breaker_open(), "below threshold");
        // A success resets the run.
        admission.record_outcome(EndpointClass::Expensive, true);
        for _ in 0..3 {
            admission.record_outcome(EndpointClass::Expensive, false);
        }
        assert!(admission.breaker_open());
        let refused = admission.admit_request(peer, EndpointClass::Expensive, false, 0);
        assert!(matches!(refused, AdmitDecision::BreakerOpen { .. }));
        assert_eq!(
            refused.retry_after_secs(),
            Some(1),
            "a 20ms cooldown rounds up to the 1s floor"
        );
        // Normal traffic is untouched by the breaker.
        assert_eq!(
            admission.admit_request(peer, EndpointClass::Normal, false, 0),
            AdmitDecision::Admit
        );
        std::thread::sleep(Duration::from_millis(25));
        // Cooldown over: a probe is admitted; its success closes.
        assert_eq!(
            admission.admit_request(peer, EndpointClass::Expensive, false, 0),
            AdmitDecision::Admit
        );
        admission.record_outcome(EndpointClass::Expensive, true);
        assert!(!admission.breaker_open());
    }

    #[test]
    fn retry_after_tracks_bucket_refill_time() {
        // At 0.25 rps an empty bucket needs 4s to mint one token.
        let admission = controller(
            AdmissionConfig {
                rate_per_peer: 0.25,
                burst: 1.0,
                ..AdmissionConfig::default()
            },
            8,
        );
        let peer = Some(ip(9));
        assert_eq!(
            admission.admit_request(peer, EndpointClass::Normal, false, 0),
            AdmitDecision::Admit
        );
        let refused = admission.admit_request(peer, EndpointClass::Normal, false, 0);
        let Some(secs) = refused.retry_after_secs() else {
            panic!("empty bucket must refuse, got {refused:?}");
        };
        assert!((3..=4).contains(&secs), "refill hint ~4s, got {secs}");
    }

    #[test]
    fn unknown_peers_are_admitted() {
        let admission = controller(
            AdmissionConfig {
                max_per_peer: 1,
                rate_per_peer: 1.0,
                ..AdmissionConfig::default()
            },
            8,
        );
        let _a = admission.admit_conn(None).unwrap();
        let _b = admission.admit_conn(None).unwrap();
        assert_eq!(
            admission.admit_request(None, EndpointClass::Normal, false, 0),
            AdmitDecision::Admit
        );
    }
}
