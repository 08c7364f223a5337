//! The read-through query cache.
//!
//! Rendered responses are cached under their normalized query string
//! (path plus sorted parameters), tagged with the *store generation* —
//! the monotonic counter [`iokc_store::Snapshot::generation`]
//! bumps on every successful persist or delete. A lookup presenting a
//! newer generation than the cache holds empties it wholesale: any
//! write may change any view, and full invalidation is cheap, correct,
//! and easy to reason about.
//!
//! Entries are evicted least-recently-used once the byte budget is
//! exceeded. Hit/miss/eviction/invalidation/revalidation counts feed
//! the `explorerd.cache.*` metrics.
//!
//! The same `(generation, cache key)` pair that addresses an entry also
//! derives its strong [`etag`] validator: a store write bumps the
//! generation, which both empties the cache and changes every ETag, so
//! a `304 Not Modified` can never outlive the body it vouches for.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use iokc_obs::{Counter, MetricsRegistry};

struct Entry {
    content_type: &'static str,
    body: Arc<Vec<u8>>,
    last_used: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    generation: u64,
    bytes: usize,
    tick: u64,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to render.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Wholesale invalidations triggered by a store write.
    pub invalidations: u64,
    /// Conditional GETs answered `304 Not Modified` without a body.
    pub not_modified: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Bytes currently cached (body bytes, excluding keys).
    pub bytes: usize,
}

/// An LRU byte-budget cache of rendered responses, invalidated by store
/// generation.
pub struct QueryCache {
    inner: Mutex<Inner>,
    budget: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
    not_modified: Counter,
}

/// The strong ETag for a response rendered from `key` at store
/// generation `generation`: the generation in clear (cheap to audit in
/// a packet capture) plus an FNV-1a 64 digest of the canonical cache
/// key, quoted per RFC 9110.
#[must_use]
pub fn etag(generation: u64, key: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("\"g{generation}-{hash:016x}\"")
}

impl QueryCache {
    /// A cache holding at most `budget` body bytes, reporting its
    /// counters through `metrics` as `explorerd.cache.*`.
    #[must_use]
    pub fn new(budget: usize, metrics: &MetricsRegistry) -> QueryCache {
        QueryCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                generation: 0,
                bytes: 0,
                tick: 0,
            }),
            budget,
            hits: metrics.counter("explorerd.cache.hits"),
            misses: metrics.counter("explorerd.cache.misses"),
            evictions: metrics.counter("explorerd.cache.evictions"),
            invalidations: metrics.counter("explorerd.cache.invalidations"),
            not_modified: metrics.counter("explorerd.cache.not_modified"),
        }
    }

    /// The configured byte budget — also the cap a streaming tee uses
    /// to abandon an in-flight cache copy that could never be stored.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Record a conditional GET answered `304 Not Modified`.
    pub fn note_not_modified(&self) {
        self.not_modified.inc();
    }

    /// Look up `key` at store generation `generation`. A generation
    /// newer than the cached one clears everything first.
    pub fn get(&self, key: &str, generation: u64) -> Option<(&'static str, Arc<Vec<u8>>)> {
        let Ok(mut inner) = self.inner.lock() else {
            return None;
        };
        self.sync_generation(&mut inner, generation);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.inc();
                Some((entry.content_type, Arc::clone(&entry.body)))
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert a rendered body for `key` at `generation`, evicting LRU
    /// entries as needed to stay within the byte budget. Bodies larger
    /// than the whole budget are not cached.
    pub fn put(&self, key: &str, generation: u64, content_type: &'static str, body: Arc<Vec<u8>>) {
        if body.len() > self.budget {
            return;
        }
        let Ok(mut inner) = self.inner.lock() else {
            return;
        };
        self.sync_generation(&mut inner, generation);
        if inner.generation != generation {
            // A writer moved the store past `generation` while this
            // response rendered; the body is already stale.
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            key.to_owned(),
            Entry {
                content_type,
                body: Arc::clone(&body),
                last_used: tick,
            },
        ) {
            inner.bytes -= old.body.len();
        }
        inner.bytes += body.len();
        while inner.bytes > self.budget {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(entry) = inner.map.remove(&victim) {
                inner.bytes -= entry.body.len();
                self.evictions.inc();
            }
        }
    }

    fn sync_generation(&self, inner: &mut Inner, generation: u64) {
        if generation > inner.generation {
            if !inner.map.is_empty() {
                self.invalidations.inc();
            }
            inner.map.clear();
            inner.bytes = 0;
            inner.generation = generation;
        }
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = self
            .inner
            .lock()
            .map(|inner| (inner.map.len(), inner.bytes))
            .unwrap_or((0, 0));
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            not_modified: self.not_modified.get(),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<Vec<u8>> {
        Arc::new(text.as_bytes().to_vec())
    }

    #[test]
    fn read_through_hit_after_put() {
        let metrics = MetricsRegistry::new();
        let cache = QueryCache::new(1024, &metrics);
        assert!(cache.get("/api/runs?", 0).is_none());
        cache.put("/api/runs?", 0, "application/json", body("[]"));
        let (ct, b) = cache.get("/api/runs?", 0).unwrap();
        assert_eq!(ct, "application/json");
        assert_eq!(b.as_slice(), b"[]");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn newer_generation_invalidates_everything() {
        let metrics = MetricsRegistry::new();
        let cache = QueryCache::new(1024, &metrics);
        cache.put("a", 0, "text/plain; charset=utf-8", body("one"));
        cache.put("b", 0, "text/plain; charset=utf-8", body("two"));
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.get("a", 1).is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn stale_put_is_dropped() {
        let metrics = MetricsRegistry::new();
        let cache = QueryCache::new(1024, &metrics);
        // The store advanced to generation 2 while this body rendered
        // against generation 1.
        assert!(cache.get("x", 2).is_none());
        cache.put("x", 1, "text/plain; charset=utf-8", body("stale"));
        assert!(cache.get("x", 2).is_none());
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let metrics = MetricsRegistry::new();
        let cache = QueryCache::new(10, &metrics);
        cache.put("a", 0, "text/plain; charset=utf-8", body("aaaa"));
        cache.put("b", 0, "text/plain; charset=utf-8", body("bbbb"));
        // Touch `a` so `b` is the least recently used.
        assert!(cache.get("a", 0).is_some());
        cache.put("c", 0, "text/plain; charset=utf-8", body("cccc"));
        assert!(cache.get("a", 0).is_some());
        assert!(cache.get("b", 0).is_none());
        assert!(cache.get("c", 0).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= 10);
    }

    #[test]
    fn oversized_bodies_are_not_cached() {
        let metrics = MetricsRegistry::new();
        let cache = QueryCache::new(4, &metrics);
        cache.put("big", 0, "text/plain; charset=utf-8", body("too large"));
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.budget(), 4);
    }

    #[test]
    fn etags_are_strong_per_generation_and_key() {
        let a = etag(4, "/api/runs?");
        assert!(a.starts_with("\"g4-") && a.ends_with('"'));
        assert_eq!(a, etag(4, "/api/runs?"), "deterministic");
        assert_ne!(a, etag(5, "/api/runs?"), "generation bump changes it");
        assert_ne!(a, etag(4, "/api/runs?kind=io500"), "key changes it");
    }

    #[test]
    fn not_modified_counter_surfaces_in_stats() {
        let metrics = MetricsRegistry::new();
        let cache = QueryCache::new(64, &metrics);
        cache.note_not_modified();
        cache.note_not_modified();
        assert_eq!(cache.stats().not_modified, 2);
    }
}
