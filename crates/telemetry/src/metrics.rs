//! The metrics registry: counters, gauges, fixed-bucket histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A monotonically increasing counter (relaxed atomics — safe to bump
/// from any thread, including rayon workers).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh, unregistered counter at zero. Use
    /// [`Registry::counter`] (or the [`counter!`](crate::counter)
    /// macro) for registered ones.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// How many cache-line-padded stripes a [`StripedCounter`] spreads
/// its increments across.
pub const COUNTER_STRIPES: usize = 8;

/// One cache line's worth of counter, so neighbouring stripes never
/// share a line (no false sharing between writer threads).
#[derive(Default)]
#[repr(align(64))]
struct Stripe {
    value: AtomicU64,
}

/// A write-scalable counter: increments land on a per-thread stripe
/// (each on its own cache line), reads sum the stripes.
///
/// Use it for counters bumped on every request from many threads at
/// once — a plain [`Counter`] serializes those threads on one cache
/// line. Reads are O([`COUNTER_STRIPES`]) and relaxed, which is fine
/// for metrics: exact once writers quiesce, monotone always.
#[derive(Default)]
pub struct StripedCounter {
    stripes: [Stripe; COUNTER_STRIPES],
}

impl StripedCounter {
    /// A fresh, unregistered striped counter at zero. Use
    /// [`Registry::striped_counter`] for registered ones.
    pub fn new() -> Self {
        StripedCounter::default()
    }

    /// The stripe index for the calling thread: assigned round-robin
    /// on first use and cached in a thread-local, so a thread always
    /// hits the same line.
    fn stripe(&self) -> &AtomicU64 {
        use std::cell::Cell;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        thread_local! {
            static INDEX: Cell<usize> = Cell::new(usize::MAX);
        }
        let index = INDEX.with(|slot| {
            let mut index = slot.get();
            if index == usize::MAX {
                index = (NEXT.fetch_add(1, Ordering::Relaxed) as usize) % COUNTER_STRIPES;
                slot.set(index);
            }
            index
        });
        &self.stripes[index].value
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.stripe().fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum over all stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.value.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-write-wins (or running-maximum) gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is higher than the current
    /// reading — the idiom for peak-tracking (e.g. peak interval-set
    /// cardinality).
    pub fn set_max(&self, value: u64) {
        self.value.fetch_max(value, Ordering::Relaxed);
    }

    /// Adds `n` — for level-tracking gauges (in-flight requests, queue
    /// depths) that move both ways.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero (a racy decrement below zero
    /// clamps rather than wrapping to 2^64).
    pub fn sub(&self, n: u64) {
        let mut current = self.value.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(n);
            match self.value.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed upper bounds.
///
/// Bucket semantics (the satellite contract, tested in
/// `tests/registry.rs`): a value `v` lands in the first bucket whose
/// bound `b` satisfies `v <= b` — upper bounds are **inclusive**,
/// lower bounds **exclusive** (bucket `i > 0` holds
/// `bounds[i-1] < v <= bounds[i]`). Values above the last bound land
/// in the overflow bucket, reported as `+Inf` by the Prometheus
/// exporter.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` slots; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A fresh, unregistered histogram. `bounds` must be strictly
    /// increasing.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let slot = self.bounds.partition_point(|&bound| bound < value);
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// A consistent-enough snapshot (relaxed reads; exact once writers
    /// quiesce).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`, the last
    /// being the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

/// Point-in-time copy of the whole registry, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A name-keyed collection of metrics. One process-wide instance lives
/// behind [`registry`]; tests may build private ones.
///
/// Lock poisoning is recovered, not propagated: the maps only ever
/// hold `Arc` handles (inserts cannot half-complete), so a thread that
/// panicked while registering leaves the registry fully usable, and
/// metrics keep flowing from the surviving benchmark tasks.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    striped: Mutex<BTreeMap<String, Arc<StripedCounter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use. Handles are
    /// shared: every caller asking for the same name increments the
    /// same counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The striped counter named `name`, created on first use. Lives
    /// in its own namespace map but is reported alongside plain
    /// counters in [`Registry::snapshot`]; a name registered as both
    /// kinds is reported once, as the sum of the two.
    pub fn striped_counter(&self, name: &str) -> Arc<StripedCounter> {
        let mut map = self.striped.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use with `bounds`.
    /// Later callers get the existing histogram regardless of the
    /// bounds they pass (first creation wins).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut map = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Snapshot of every registered metric, sorted by name. Striped
    /// counters are summed and merged into the plain-counter list, so
    /// exporters need not know which flavor a call site picked; a name
    /// registered as both kinds appears once, with the two summed.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        for (name, c) in self
            .striped
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            *counters.entry(name.clone()).or_default() += c.get();
        }
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A lazily-initialized `&'static`-cached handle to a named global
/// counter: `counter!("profile_store_hits_total").inc()`. The handle
/// is resolved once per call site; steady-state cost is one `OnceLock`
/// load plus a relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Like [`counter!`] for [`StripedCounter`]s — the flavor for
/// counters bumped on every request from many threads:
/// `striped_counter!("server_requests_total").inc()`.
#[macro_export]
macro_rules! striped_counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::StripedCounter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::registry().striped_counter($name))
    }};
}

/// Like [`counter!`] for gauges: `gauge!("peak_classes").set_max(n)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// Like [`counter!`] for histograms; the bounds are used on first
/// resolution only: `histogram!("stage_ms", &[1, 10, 100]).record(v)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::registry().histogram($name, $bounds))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let registry = Registry::new();
        let c = registry.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(registry.counter("c").get(), 5);

        let g = registry.gauge("g");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(9);
        assert_eq!(g.get(), 9);
        g.add(2);
        assert_eq!(g.get(), 11);
        g.sub(5);
        assert_eq!(g.get(), 6);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
    }

    #[test]
    fn histogram_bucket_edges() {
        let h = Histogram::new(&[10, 100]);
        h.record(10); // inclusive upper → first bucket
        h.record(11); // exclusive lower → second bucket
        h.record(100);
        h.record(101); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 2, 1]);
        assert_eq!(snap.sum, 10 + 11 + 100 + 101);
        assert_eq!(snap.count, 4);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let registry = Registry::new();
        registry.counter("zed").inc();
        registry.counter("abc").add(2);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters,
            vec![("abc".to_string(), 2), ("zed".to_string(), 1)]
        );
    }

    #[test]
    fn striped_counter_sums_across_threads() {
        let registry = Registry::new();
        let striped = registry.striped_counter("s");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let striped = Arc::clone(&striped);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        striped.inc();
                    }
                    striped.add(5);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(striped.get(), 4 * 1005);
        assert_eq!(registry.striped_counter("s").get(), 4 * 1005);
    }

    #[test]
    fn snapshot_merges_striped_into_counters_sorted() {
        let registry = Registry::new();
        registry.counter("plain").add(1);
        registry.striped_counter("a_striped").add(7);
        registry.striped_counter("z_striped").add(9);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters,
            vec![
                ("a_striped".to_string(), 7),
                ("plain".to_string(), 1),
                ("z_striped".to_string(), 9),
            ]
        );
    }

    #[test]
    fn snapshot_sums_a_name_registered_as_both_kinds() {
        let registry = Registry::new();
        registry.counter("shed_total").add(2);
        registry.striped_counter("shed_total").add(3);
        let snap = registry.snapshot();
        assert_eq!(snap.counters, vec![("shed_total".to_string(), 5)]);
    }

    #[test]
    fn macros_share_one_metric_per_name() {
        counter!("metrics_test_shared_total").add(2);
        counter!("metrics_test_shared_total").add(3);
        assert_eq!(registry().counter("metrics_test_shared_total").get(), 5);
    }
}
