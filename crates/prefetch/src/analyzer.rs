//! Turning an access stream into wake triggers.

use crate::{NextLinePrefetcher, StridePrefetcher};
use leakage_intervals::WakeHints;
use leakage_trace::{LineAddr, MemoryAccess};
use serde::{Deserialize, Serialize};

/// A prefetch trigger: some prefetcher predicts `line` will be wanted
/// soon, so a leakage-management scheme may wake (or refetch) it now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeTrigger {
    /// The predicted line.
    pub line: LineAddr,
    /// Which prefetcher(s) produced the prediction.
    pub hints: WakeHints,
}

/// Counters for the analysis (reported alongside Fig. 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchStats {
    /// Next-line triggers issued.
    pub next_line_triggers: u64,
    /// Confirmed stride triggers issued.
    pub stride_triggers: u64,
}

/// Drives the paper's prefetchers over one cache's access stream.
///
/// Per §5.1 the instruction cache uses next-line prefetching only, and
/// the data cache uses next-line plus per-PC stride prefetching —
/// "most of the cache misses can be captured by these schemes".
///
/// The caller forwards every access of the relevant stream to
/// [`observe`](PrefetchAnalyzer::observe) and routes the returned
/// triggers to the interval extractor of the same cache.
#[derive(Debug, Clone)]
pub struct PrefetchAnalyzer {
    line_bits: u32,
    next_line: NextLinePrefetcher,
    stride: Option<StridePrefetcher>,
    stats: PrefetchStats,
}

impl PrefetchAnalyzer {
    /// Default stride-table capacity (entries) for the data-side
    /// analyzer.
    pub const DEFAULT_STRIDE_TABLE: usize = 1024;

    /// An instruction-cache analyzer: next-line only.
    pub fn for_instruction_cache(line_bits: u32) -> Self {
        PrefetchAnalyzer {
            line_bits,
            next_line: NextLinePrefetcher::new(),
            stride: None,
            stats: PrefetchStats::default(),
        }
    }

    /// A data-cache analyzer: next-line plus stride.
    pub fn for_data_cache(line_bits: u32) -> Self {
        PrefetchAnalyzer {
            line_bits,
            next_line: NextLinePrefetcher::new(),
            stride: Some(StridePrefetcher::new(Self::DEFAULT_STRIDE_TABLE)),
            stats: PrefetchStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Observes one access, appending any wake triggers to `out`
    /// (which is cleared first). Triggers for the same line are merged.
    pub fn observe_into(&mut self, access: &MemoryAccess, out: &mut Vec<WakeTrigger>) {
        out.clear();
        let line = access.addr.line(self.line_bits);
        if let Some(target) = self.next_line.observe(line) {
            self.stats.next_line_triggers += 1;
            out.push(WakeTrigger {
                line: target,
                hints: WakeHints {
                    next_line: true,
                    stride: false,
                },
            });
        }
        if let Some(stride) = &mut self.stride {
            if let Some(predicted) = stride.observe(access.pc, access.addr) {
                let target = predicted.line(self.line_bits);
                // A stride that stays within the current line wakes
                // nothing new.
                if target != line {
                    self.stats.stride_triggers += 1;
                    let hint = WakeHints {
                        next_line: false,
                        stride: true,
                    };
                    if let Some(existing) = out.iter_mut().find(|t| t.line == target) {
                        existing.hints = existing.hints.union(hint);
                    } else {
                        out.push(WakeTrigger {
                            line: target,
                            hints: hint,
                        });
                    }
                }
            }
        }
    }

    /// Convenience wrapper around
    /// [`observe_into`](PrefetchAnalyzer::observe_into) that allocates
    /// the output vector (use `observe_into` in hot loops).
    pub fn observe(&mut self, access: &MemoryAccess) -> Vec<WakeTrigger> {
        let mut out = Vec::new();
        self.observe_into(access, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_trace::{Address, Cycle, Pc};

    fn load(pc: u64, addr: u64) -> MemoryAccess {
        MemoryAccess::load(Cycle::ZERO, Pc::new(pc), Address::new(addr))
    }

    #[test]
    fn icache_analyzer_is_nextline_only() {
        let mut a = PrefetchAnalyzer::for_instruction_cache(6);
        let t = a.observe(&MemoryAccess::fetch(Cycle::ZERO, Pc::new(0x1000)));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].line, Address::new(0x1000).line(6).succ(1));
        assert!(t[0].hints.next_line && !t[0].hints.stride);
        assert_eq!(a.stats().stride_triggers, 0);
    }

    #[test]
    fn dcache_analyzer_issues_stride_triggers() {
        let mut a = PrefetchAnalyzer::for_data_cache(6);
        // Stride of 256 bytes (4 lines) from one pc: confirmed on 3rd
        // access, predicting from the 4th.
        let mut triggers = Vec::new();
        for i in 0..4u64 {
            a.observe_into(&load(0x400, i * 256), &mut triggers);
        }
        assert!(triggers
            .iter()
            .any(|t| t.hints.stride && t.line == Address::new(4 * 256).line(6)));
        // Confirmed at the 3rd access, so the 3rd and 4th both predict.
        assert_eq!(a.stats().stride_triggers, 2);
        assert!(a.stats().next_line_triggers >= 1);
    }

    #[test]
    fn small_strides_within_a_line_do_not_trigger() {
        let mut a = PrefetchAnalyzer::for_data_cache(6);
        let mut out = Vec::new();
        // 8-byte stride stays inside a 64-byte line most of the time.
        for i in 0..4u64 {
            a.observe_into(&load(0x400, 0x1000 + i * 8), &mut out);
        }
        // After confirmation, prediction 0x1020 is in the same line: no
        // stride trigger.
        assert_eq!(a.stats().stride_triggers, 0);
    }

    #[test]
    fn merged_hints_when_both_predict_same_line() {
        let mut a = PrefetchAnalyzer::for_data_cache(6);
        // Train a 64-byte stride: prediction is exactly the next line,
        // which next-line also triggers.
        let mut out = Vec::new();
        for i in 0..4u64 {
            a.observe_into(&load(0x400, i * 64), &mut out);
        }
        assert_eq!(out.len(), 1, "one merged trigger: {out:?}");
        assert!(out[0].hints.next_line && out[0].hints.stride);
    }

    #[test]
    fn repeated_same_line_loads_trigger_once() {
        let mut a = PrefetchAnalyzer::for_data_cache(6);
        let mut out = Vec::new();
        a.observe_into(&load(0x400, 0x2000), &mut out);
        assert_eq!(out.len(), 1);
        a.observe_into(&load(0x404, 0x2008), &mut out);
        assert!(out.is_empty(), "no line crossing, no trigger");
    }
}
