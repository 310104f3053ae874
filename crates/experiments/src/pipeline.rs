//! The end-to-end profiling pipeline.

use crate::store::ProfileStore;
use leakage_cachesim::{CacheStats, Hierarchy, HierarchyConfig, Level1};
use leakage_faults::{panic_message, PipelineError};
use leakage_intervals::{
    CompactIntervalDist, IntervalExtractor, IntervalTally, StreamingExtractor, WakeHints,
};
use leakage_prefetch::{PrefetchAnalyzer, PrefetchStats, WakeTrigger};
use leakage_trace::{Cycle, LineAddr, MemoryAccess, TraceSink, TraceSource};
use leakage_workloads::{suite, Benchmark, Scale, SUITE_NAMES};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Everything the experiments need to know about one cache of one
/// benchmark run: the interval distribution (the sufficient statistic
/// for every policy) plus bookkeeping counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheProfile {
    /// Interval distribution, by (length, kind, wake-hints) class.
    pub dist: CompactIntervalDist,
    /// Number of frames in the cache.
    pub num_frames: u32,
    /// Trace length in cycles.
    pub total_cycles: u64,
    /// Prefetch trigger counters.
    pub prefetch: PrefetchStats,
    /// Hit/miss counters.
    pub cache: CacheStats,
}

impl CacheProfile {
    /// The coverage invariant: interval cycle mass equals
    /// `frames × cycles`. Violations indicate an extraction bug.
    pub fn covers_timeline(&self) -> bool {
        self.dist.total_cycles() == u64::from(self.num_frames) * self.total_cycles
    }
}

/// Profiles of both L1 caches for one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Benchmark name (e.g. `"gzip"`).
    pub name: String,
    /// L1 instruction-cache profile.
    pub icache: CacheProfile,
    /// L1 data-cache profile.
    pub dcache: CacheProfile,
}

impl BenchmarkProfile {
    /// The profile for one cache side.
    pub fn side(&self, side: Level1) -> &CacheProfile {
        match side {
            Level1::Instruction => &self.icache,
            Level1::Data => &self.dcache,
        }
    }
}

/// Per-cache analysis state inside the pipeline sink.
struct SideState {
    extractor: IntervalExtractor,
    analyzer: PrefetchAnalyzer,
    tally: IntervalTally,
    predictions: PredictionTable,
}

/// Outstanding prefetch predictions for non-resident lines, so that when
/// the predicted fill arrives the *closing* interval of the victim frame
/// can be tagged prefetchable — the frame-level analog of the paper's
/// "an access to the previous cache line occurs within the interval".
///
/// Direct-mapped and lossy like the hardware it stands in for;
/// collisions simply drop the older prediction.
struct PredictionTable {
    entries: Vec<Option<(LineAddr, Cycle, WakeHints)>>,
    mask: usize,
}

impl PredictionTable {
    fn new(slots: usize) -> Self {
        let size = slots.next_power_of_two();
        PredictionTable {
            entries: vec![None; size],
            mask: size - 1,
        }
    }

    fn insert(&mut self, line: LineAddr, cycle: Cycle, hints: WakeHints) {
        let slot = (line.index() as usize) & self.mask;
        let merged = match self.entries[slot] {
            Some((existing, _, old)) if existing == line => old.union(hints),
            _ => hints,
        };
        self.entries[slot] = Some((line, cycle, merged));
    }

    fn take(&mut self, line: LineAddr) -> Option<(Cycle, WakeHints)> {
        let slot = (line.index() as usize) & self.mask;
        match self.entries[slot] {
            Some((existing, cycle, hints)) if existing == line => {
                self.entries[slot] = None;
                Some((cycle, hints))
            }
            _ => None,
        }
    }
}

/// The streaming sink: routes each access through the hierarchy, then
/// feeds the touched L1's interval extractor, then lets that side's
/// prefetchers fire wake triggers at resident lines.
struct PipelineSink {
    hierarchy: Hierarchy,
    icache: SideState,
    dcache: SideState,
    triggers: Vec<WakeTrigger>,
    end: Cycle,
}

impl PipelineSink {
    fn new(config: HierarchyConfig) -> Self {
        let icache = SideState {
            extractor: IntervalExtractor::new(config.l1i.num_frames()),
            analyzer: PrefetchAnalyzer::for_instruction_cache(config.l1i.line_bits()),
            tally: IntervalTally::new(),
            predictions: PredictionTable::new(16 * 1024),
        };
        let dcache = SideState {
            extractor: IntervalExtractor::new(config.l1d.num_frames()),
            analyzer: PrefetchAnalyzer::for_data_cache(config.l1d.line_bits()),
            tally: IntervalTally::new(),
            predictions: PredictionTable::new(16 * 1024),
        };
        PipelineSink {
            hierarchy: Hierarchy::new(config),
            icache,
            dcache,
            triggers: Vec::with_capacity(4),
            end: Cycle::ZERO,
        }
    }
}

impl TraceSink for PipelineSink {
    fn accept(&mut self, access: MemoryAccess) {
        let outcome = self.hierarchy.access(&access);
        let event = outcome.l1;
        let side = match event.cache {
            Level1::Instruction => &mut self.icache,
            Level1::Data => &mut self.dcache,
        };
        // 1. A fill that was predicted makes the interval it terminates
        // prefetchable — provided the prediction arrived *within* that
        // interval (after the frame's previous access).
        if !event.hit {
            if let Some((when, hints)) = side.predictions.take(event.line) {
                let in_interval = side
                    .extractor
                    .last_access(event.frame)
                    .is_none_or(|start| when >= start);
                if in_interval {
                    side.extractor.mark_wake(event.frame, hints);
                }
            }
        }
        // 2. Close the interval that this access terminates, carrying
        // the frame's dirtiness for the writeback-aware accounting.
        let now_dirty = self.hierarchy.l1(event.cache).frame_dirty(event.frame);
        side.extractor.on_access_full(
            event.frame,
            event.cycle,
            event.hit,
            now_dirty,
            &mut side.tally,
        );
        // 3. Let this side's prefetchers react. A trigger for a resident
        // line wakes that line's frame now; a trigger for a non-resident
        // line is remembered until its fill arrives (step 1).
        side.analyzer.observe_into(&access, &mut self.triggers);
        let cache = self.hierarchy.l1(event.cache);
        for trigger in &self.triggers {
            if let Some(frame) = cache.probe(trigger.line) {
                match event.cache {
                    Level1::Instruction => {
                        self.icache.extractor.mark_wake(frame, trigger.hints)
                    }
                    Level1::Data => self.dcache.extractor.mark_wake(frame, trigger.hints),
                }
            } else {
                let side = match event.cache {
                    Level1::Instruction => &mut self.icache,
                    Level1::Data => &mut self.dcache,
                };
                side.predictions.insert(trigger.line, access.cycle, trigger.hints);
            }
        }
        if access.cycle >= self.end {
            self.end = access.cycle.advanced(1);
        }
    }
}

/// Runs one benchmark through the full pipeline with the paper's
/// Alpha-like hierarchy.
///
/// # Examples
///
/// ```
/// use leakage_experiments::profile_benchmark;
/// use leakage_workloads::{gzip, Scale};
///
/// let profile = profile_benchmark(&mut gzip(Scale::Test));
/// assert!(profile.icache.covers_timeline());
/// assert!(profile.dcache.covers_timeline());
/// ```
pub fn profile_benchmark(bench: &mut Benchmark) -> BenchmarkProfile {
    profile_benchmark_with(bench, HierarchyConfig::alpha_like())
}

/// Runs one benchmark through the pipeline with an arbitrary hierarchy
/// geometry — the entry point for cache-geometry sensitivity studies.
pub fn profile_benchmark_with(bench: &mut Benchmark, config: HierarchyConfig) -> BenchmarkProfile {
    let _span = leakage_telemetry::span("simulate");
    let mut sink = PipelineSink::new(config.clone());
    bench.run(&mut sink);

    let end = sink.end;
    let PipelineSink {
        hierarchy,
        mut icache,
        mut dcache,
        ..
    } = sink;
    let (idist, ddist) = {
        let _span = leakage_telemetry::span("extract");
        icache.extractor.finish(end, &mut icache.tally);
        dcache.extractor.finish(end, &mut dcache.tally);
        (icache.tally.into_dist(), dcache.tally.into_dist())
    };
    hierarchy.flush_telemetry();
    // Peak interval-set cardinality across every profiled cache — the
    // memory high-water mark of the sufficient statistic.
    let gauge = leakage_telemetry::gauge!("intervals_peak_classes");
    gauge.set_max(idist.num_classes() as u64);
    gauge.set_max(ddist.num_classes() as u64);

    BenchmarkProfile {
        name: bench.name().to_string(),
        icache: CacheProfile {
            dist: idist,
            num_frames: config.l1i.num_frames(),
            total_cycles: end.raw(),
            prefetch: icache.analyzer.stats(),
            cache: *hierarchy.l1i().stats(),
        },
        dcache: CacheProfile {
            dist: ddist,
            num_frames: config.l1d.num_frames(),
            total_cycles: end.raw(),
            prefetch: dcache.analyzer.stats(),
            cache: *hierarchy.l1d().stats(),
        },
    }
}

/// Profiles the unified L2's intervals for one benchmark.
///
/// The L2 sees only L1 misses, so its frames rest far longer than the
/// L1s' — the `ablation-l2` experiment uses this to extend the limit
/// study one level down the hierarchy. No prefetch analysis is run at
/// this level (the paper's §5 schemes are L1 mechanisms).
pub fn profile_l2(bench: &mut Benchmark) -> CacheProfile {
    struct L2Sink {
        hierarchy: Hierarchy,
        extractor: IntervalExtractor,
        dist: CompactIntervalDist,
        end: Cycle,
    }
    impl TraceSink for L2Sink {
        fn accept(&mut self, access: MemoryAccess) {
            let outcome = self.hierarchy.access(&access);
            if let Some(l2) = outcome.l2 {
                self.extractor.on_access(
                    l2.result.frame,
                    access.cycle,
                    l2.result.hit,
                    &mut self.dist,
                );
            }
            if access.cycle >= self.end {
                self.end = access.cycle.advanced(1);
            }
        }
    }

    let config = HierarchyConfig::alpha_like();
    let mut sink = L2Sink {
        extractor: IntervalExtractor::new(config.l2.num_frames()),
        hierarchy: Hierarchy::new(config.clone()),
        dist: CompactIntervalDist::new(),
        end: Cycle::ZERO,
    };
    bench.run(&mut sink);
    let end = sink.end;
    sink.extractor.finish(end, &mut sink.dist);
    CacheProfile {
        dist: sink.dist,
        num_frames: config.l2.num_frames(),
        total_cycles: end.raw(),
        prefetch: PrefetchStats::default(),
        cache: *sink.hierarchy.l2().stats(),
    }
}

/// Extracts *line-centric* interval distributions (the paper's literal
/// §3.1 definition: per memory line, residency ignored) for both L1
/// line granularities. Returns `(icache_dist, dcache_dist, cycles)`.
/// Each side runs its own [`StreamingExtractor`], the one line-keyed
/// extractor in the workspace.
///
/// Used by the `ablation-line-centric` experiment to quantify how much
/// the frame-vs-line modelling choice moves the limits.
pub fn profile_line_centric(
    bench: &mut Benchmark,
) -> (CompactIntervalDist, CompactIntervalDist, u64) {
    struct LineSink {
        icache: StreamingExtractor<CompactIntervalDist>,
        dcache: StreamingExtractor<CompactIntervalDist>,
    }
    impl TraceSink for LineSink {
        fn accept(&mut self, access: MemoryAccess) {
            if access.kind.is_fetch() {
                self.icache.accept(access);
            } else {
                self.dcache.accept(access);
            }
        }
    }

    let mut sink = LineSink {
        icache: StreamingExtractor::new(6, CompactIntervalDist::new()),
        dcache: StreamingExtractor::new(6, CompactIntervalDist::new()),
    };
    bench.run(&mut sink);
    // Both sides close their trailing intervals at the shared trace
    // end, not at their own stream's last access.
    let end = sink
        .icache
        .watermark()
        .max(sink.dcache.watermark())
        .map_or(Cycle::ZERO, |last| last.advanced(1));
    (sink.icache.finish_at(end), sink.dcache.finish_at(end), end.raw())
}

/// Profiles the whole six-benchmark suite at the given scale —
/// benchmarks in parallel (rayon), results memoized in the global
/// [`ProfileStore`], so a second call (from any experiment module in
/// the same process) returns without simulating.
///
/// Thread count follows rayon's resolution order: a
/// [`rayon::set_num_threads`] override, then the `LEAKAGE_THREADS` /
/// `RAYON_NUM_THREADS` environment variables, then the machine's
/// available parallelism.
pub fn profile_suite(scale: Scale) -> Vec<BenchmarkProfile> {
    cached_suite(scale)
        .iter()
        .map(|profile| profile.as_ref().clone())
        .collect()
}

/// Like [`profile_suite`] but sharing the memoized profiles without
/// cloning them — prefer this when the caller only reads.
///
/// # Panics
///
/// Re-raises the first benchmark failure (a simulation panic or store
/// error). Callers that want the surviving profiles instead use
/// [`cached_suite_partial`].
pub fn cached_suite(scale: Scale) -> Vec<Arc<BenchmarkProfile>> {
    cached_suite_partial(scale).expect_healthy()
}

/// One benchmark's failure inside the suite fan-out.
#[derive(Debug)]
pub struct BenchmarkFailure {
    /// Which benchmark failed.
    pub benchmark: String,
    /// What happened.
    pub error: PipelineError,
}

impl std::fmt::Display for BenchmarkFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "benchmark {:?} failed: {}", self.benchmark, self.error)
    }
}

/// What a partial fan-out produced: every healthy profile (in the
/// order the benchmarks were named) plus a typed record of every
/// benchmark that did not make it.
#[derive(Debug, Default)]
pub struct SuiteOutcome {
    /// Profiles of the benchmarks that completed, in request order.
    pub profiles: Vec<Arc<BenchmarkProfile>>,
    /// Benchmarks that failed, in request order.
    pub failures: Vec<BenchmarkFailure>,
}

impl SuiteOutcome {
    /// `true` when every benchmark completed.
    pub fn all_healthy(&self) -> bool {
        self.failures.is_empty()
    }

    /// Owned clones of the healthy profiles (the shape the table and
    /// figure generators consume).
    pub fn cloned_profiles(&self) -> Vec<BenchmarkProfile> {
        self.profiles.iter().map(|p| p.as_ref().clone()).collect()
    }

    /// Every profile, when every benchmark completed.
    ///
    /// # Panics
    ///
    /// Re-raises the first failure, naming its benchmark.
    pub fn expect_healthy(self) -> Vec<Arc<BenchmarkProfile>> {
        if let Some(failure) = self.failures.first() {
            panic!("{failure}");
        }
        self.profiles
    }
}

/// Profiles the suite with per-benchmark panic isolation: a benchmark
/// that panics (or hits a store error) is reported in
/// [`SuiteOutcome::failures`] while every other benchmark completes
/// normally. Each failure also bumps the
/// `pipeline_benchmark_failures_total` counter, so run manifests
/// record the degradation.
///
/// This is the bulkhead `repro` runs behind: one poisoned benchmark
/// costs one row of the tables, not the whole evening's run.
pub fn cached_suite_partial(scale: Scale) -> SuiteOutcome {
    suite_partial_with(ProfileStore::global(), scale)
}

/// [`cached_suite_partial`] against an explicit store (tests use
/// private stores to keep fault experiments out of the global cache).
pub fn suite_partial_with(store: &ProfileStore, scale: Scale) -> SuiteOutcome {
    let _span = leakage_telemetry::span("suite");
    fetch_partial(store, &SUITE_NAMES, scale)
}

/// The one profiling fan-out: fetches every named benchmark (suite
/// analogs or `isa:*` programs) through `store` in parallel (rayon),
/// with per-benchmark panic isolation. Profiles and failures come back
/// in `names` order whatever the thread count; each failure bumps
/// `pipeline_benchmark_failures_total`.
pub fn fetch_partial(store: &ProfileStore, names: &[&str], scale: Scale) -> SuiteOutcome {
    // Capture the caller's span path before the fan-out: rayon workers
    // start with empty span stacks, so each benchmark re-attaches
    // under it.
    let parent = leakage_telemetry::current_path();
    let results: Vec<Result<Arc<BenchmarkProfile>, BenchmarkFailure>> = names
        .par_iter()
        .map(|name| {
            let _span = match &parent {
                Some(parent) => leakage_telemetry::span_under(parent, name),
                None => leakage_telemetry::span(name),
            };
            // Isolate the task: the store already catches simulation
            // panics at its per-key cell, and this second boundary
            // covers everything outside the store (span bookkeeping,
            // allocation failures in the fan-out itself).
            let fetched = catch_unwind(AssertUnwindSafe(|| store.try_fetch(name, scale)));
            match fetched {
                Ok(Ok(profile)) => Ok(profile),
                Ok(Err(err)) => Err(BenchmarkFailure {
                    benchmark: name.to_string(),
                    error: PipelineError::Store(err),
                }),
                Err(payload) => Err(BenchmarkFailure {
                    benchmark: name.to_string(),
                    error: PipelineError::Panicked {
                        benchmark: name.to_string(),
                        message: panic_message(payload.as_ref()),
                    },
                }),
            }
        })
        .collect();
    let mut outcome = SuiteOutcome::default();
    for result in results {
        match result {
            Ok(profile) => outcome.profiles.push(profile),
            Err(failure) => {
                leakage_telemetry::counter!("pipeline_benchmark_failures_total").inc();
                outcome.failures.push(failure);
            }
        }
    }
    outcome
}

/// Fetches one suite benchmark's memoized profile from the global
/// [`ProfileStore`], simulating only on first use. This is the fixture
/// entry point for tests: every test touching `"gzip"` at
/// [`Scale::Test`] shares one simulation per process.
///
/// # Panics
///
/// Panics if `name` is not one of [`SUITE_NAMES`].
pub fn cached_profile(name: &str, scale: Scale) -> Arc<BenchmarkProfile> {
    ProfileStore::global().fetch(name, scale)
}

/// Profiles the suite in parallel *without* consulting any store:
/// every call simulates all six benchmarks. The determinism tests and
/// the criterion benches use this as the non-memoized comparison
/// point.
pub fn profile_suite_uncached(scale: Scale) -> Vec<BenchmarkProfile> {
    suite(scale)
        .into_par_iter()
        .map(|mut bench| profile_benchmark(&mut bench))
        .collect()
}

/// Profiles the suite serially on the calling thread, no store — the
/// baseline the parallel paths are checked (and benchmarked) against.
pub fn profile_suite_serial(scale: Scale) -> Vec<BenchmarkProfile> {
    suite(scale)
        .iter_mut()
        .map(profile_benchmark)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_intervals::IntervalKind;

    #[test]
    fn coverage_invariant_holds() {
        let profile = cached_profile("gzip", Scale::Test);
        assert!(profile.icache.covers_timeline());
        assert!(profile.dcache.covers_timeline());
        assert_eq!(profile.name, "gzip");
        assert_eq!(profile.icache.num_frames, 1024);
        assert_eq!(profile.dcache.num_frames, 1024);
    }

    #[test]
    fn icache_sees_fetches_dcache_sees_data() {
        let profile = cached_profile("applu", Scale::Test);
        assert!(profile.icache.cache.accesses > profile.dcache.cache.accesses);
        assert!(profile.dcache.cache.accesses > 0);
    }

    #[test]
    fn prefetchers_fire() {
        let profile = cached_profile("applu", Scale::Test);
        assert!(profile.icache.prefetch.next_line_triggers > 0);
        assert_eq!(profile.icache.prefetch.stride_triggers, 0);
        assert!(profile.dcache.prefetch.next_line_triggers > 0);
        assert!(
            profile.dcache.prefetch.stride_triggers > 0,
            "applu's plane walks must train the stride prefetcher"
        );
    }

    #[test]
    fn some_intervals_carry_wake_hints() {
        let profile = cached_profile("applu", Scale::Test);
        let hinted = profile
            .dcache
            .dist
            .count_matching(|c| c.wake.any() && matches!(c.kind, IntervalKind::Interior { .. }));
        assert!(hinted > 0, "sequential sweeps must produce NL-hinted intervals");
    }

    #[test]
    fn side_accessor() {
        let profile = cached_profile("gzip", Scale::Test);
        assert_eq!(
            profile.side(Level1::Instruction).num_frames,
            profile.icache.num_frames
        );
    }

    #[test]
    fn suite_variants_agree() {
        let memoized = profile_suite(Scale::Test);
        let serial = profile_suite_serial(Scale::Test);
        let uncached = profile_suite_uncached(Scale::Test);
        assert_eq!(memoized.len(), 6);
        for ((m, s), u) in memoized.iter().zip(&serial).zip(&uncached) {
            assert_eq!(m.name, s.name);
            assert_eq!(m.icache.dist, s.icache.dist);
            assert_eq!(m.dcache.dist, u.dcache.dist);
            assert_eq!(m.icache.cache, u.icache.cache);
        }
    }
}
