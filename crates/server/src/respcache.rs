//! Sharded LRU cache of pre-serialized responses, keyed by the
//! canonical query.
//!
//! Only successful `GET /v1/*` responses are cached — `/healthz` and
//! `/metrics` must always be fresh, errors should retry the real
//! path, and `POST /v1/sweep` is arbitrary-batch compute. Entries are
//! [`WireResponse`]s, so a hit is two `Arc` bumps and a `memcpy` onto
//! the wire — never a re-render.
//!
//! Two properties matter on the hot path and are tested here:
//!
//! - **Sharding**: keys hash (FNV-1a) onto independent locks, so
//!   concurrent workers hitting different artifacts never serialize
//!   on one mutex.
//! - **O(1) eviction**: each shard threads an intrusive
//!   doubly-linked recency list through a slot arena; get, put, and
//!   evict are all constant-time (the previous implementation scanned
//!   every entry for the LRU victim on each eviction).

use crate::http::{Request, WireResponse};
use leakage_faults::checksum::fnv1a;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

/// Running hit/miss/eviction totals for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries pushed out by capacity.
    pub evictions: u64,
}

/// A bounded, sharded LRU map from canonical request key to a
/// pre-serialized response.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// One slot in a shard's arena: the entry plus its recency-list links.
struct Slot {
    key: String,
    value: WireResponse,
    prev: usize,
    next: usize,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used — the eviction victim.
    tail: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            head: NIL,
            tail: NIL,
            ..Shard::default()
        }
    }

    fn unlink(&mut self, index: usize) {
        let (prev, next) = (self.slots[index].prev, self.slots[index].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, index: usize) {
        self.slots[index].prev = NIL;
        self.slots[index].next = self.head;
        match self.head {
            NIL => self.tail = index,
            h => self.slots[h].prev = index,
        }
        self.head = index;
    }
}

impl ResponseCache {
    /// A cache of `shards` independent LRU shards holding `capacity`
    /// entries in total (`capacity == 0` disables caching). Shard
    /// count is clamped to at least 1; per-shard capacity rounds up,
    /// so the effective total may slightly exceed `capacity`.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ResponseCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether this request/response pair is cacheable at all. Job
    /// endpoints are mutable state (status advances, results appear)
    /// and must never be served from cache.
    pub fn cacheable(request: &Request, status: u16) -> bool {
        request.method == "GET"
            && request.path.starts_with("/v1/")
            && !request.path.starts_with("/v1/jobs")
            && status == 200
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        // FNV-1a: stable, and good enough dispersion over short keys.
        &self.shards[(fnv1a(key.as_bytes()) % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<WireResponse> {
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Some(&index) = shard.map.get(key) else {
            drop(shard);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        shard.unlink(index);
        shard.push_front(index);
        let value = shard.slots[index].value.clone();
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Inserts `value` under `key`, evicting the shard's
    /// least-recently-used entry when full. All O(1).
    pub fn put(&self, key: &str, value: WireResponse) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(&index) = shard.map.get(key) {
            shard.slots[index].value = value;
            shard.unlink(index);
            shard.push_front(index);
            return;
        }
        let mut evicted = false;
        if shard.map.len() >= self.per_shard_capacity {
            let victim = shard.tail;
            shard.unlink(victim);
            let key = std::mem::take(&mut shard.slots[victim].key);
            shard.map.remove(&key);
            shard.free.push(victim);
            evicted = true;
        }
        let index = match shard.free.pop() {
            Some(index) => {
                shard.slots[index].key = key.to_string();
                shard.slots[index].value = value;
                index
            }
            None => {
                shard.slots.push(Slot {
                    key: key.to_string(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                shard.slots.len() - 1
            }
        };
        shard.push_front(index);
        shard.map.insert(key.to_string(), index);
        drop(shard);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time hit/miss/eviction totals.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of cached responses across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Response;

    fn wire(tag: &str) -> WireResponse {
        Response::json(200, format!("{{\"tag\": \"{tag}\"}}")).into_wire()
    }

    fn body(wire: &WireResponse) -> String {
        String::from_utf8_lossy(wire.body()).into_owned()
    }

    /// Single shard so the LRU order is fully deterministic.
    #[test]
    fn hit_refreshes_recency() {
        let cache = ResponseCache::new(2, 1);
        cache.put("a", wire("a"));
        cache.put("b", wire("b"));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.get("a").is_some());
        cache.put("c", wire("c"));
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "b was least recently used");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_chain_is_exact_lru_order() {
        let cache = ResponseCache::new(3, 1);
        for key in ["a", "b", "c"] {
            cache.put(key, wire(key));
        }
        // Recency now c > b > a; each insert evicts the exact tail.
        cache.put("d", wire("d")); // evicts a
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some()); // recency b > d > c
        cache.put("e", wire("e")); // evicts c
        assert!(cache.get("c").is_none());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = ResponseCache::new(1, 1);
        cache.put("k", wire("v1"));
        cache.put("k", wire("v2"));
        assert_eq!(cache.len(), 1);
        assert!(body(&cache.get("k").unwrap()).ends_with("\"v2\"}"));
        assert_eq!(cache.stats().evictions, 0, "update is not an eviction");
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = ResponseCache::new(0, 4);
        cache.put("k", wire("v"));
        assert!(cache.is_empty());
    }

    #[test]
    fn stats_count_hits_misses_evictions() {
        let cache = ResponseCache::new(2, 1);
        assert!(cache.get("a").is_none());
        cache.put("a", wire("a"));
        assert!(cache.get("a").is_some());
        cache.put("b", wire("b"));
        cache.put("c", wire("c")); // evicts "a"
        assert!(cache.get("a").is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                evictions: 1
            }
        );
    }

    #[test]
    fn shards_partition_the_keyspace() {
        // Headroom (32 per shard for 64 keys) because FNV does not
        // balance shards perfectly; what matters is that no shard
        // evicts while the total stays within capacity.
        let cache = ResponseCache::new(256, 8);
        for i in 0..64 {
            cache.put(&format!("key-{i}"), wire("x"));
        }
        assert_eq!(cache.len(), 64, "distinct keys all fit within capacity");
        assert_eq!(cache.stats().evictions, 0);
        for i in 0..64 {
            assert!(cache.get(&format!("key-{i}")).is_some(), "key-{i}");
        }
    }

    #[test]
    fn cacheability_rules() {
        let req = |method: &str, path: &str| Request {
            method: method.into(),
            path: path.into(),
            query: Vec::new(),
            body: Vec::new(),
            close: false,
            chunked: false,
            trace: crate::trace::ReqTrace::default(),
        };
        assert!(ResponseCache::cacheable(&req("GET", "/v1/table/2"), 200));
        assert!(!ResponseCache::cacheable(&req("GET", "/healthz"), 200));
        assert!(!ResponseCache::cacheable(&req("GET", "/metrics"), 200));
        assert!(!ResponseCache::cacheable(&req("POST", "/v1/sweep"), 200));
        assert!(!ResponseCache::cacheable(&req("GET", "/v1/table/2"), 500));
    }
}
