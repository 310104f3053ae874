//! Result collection and output: named metrics with units, exact
//! simulated-statistic counts, operation accounting, and the one-line
//! JSON result that ends standard output.

use leakage_faults::checksum::Fnv64;
use std::collections::BTreeMap;

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    infos: Vec<(String, f64, &'static str)>,
    counts: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records one metric (printed in insertion order).
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records one informational row: printed with the metrics but kept
    /// out of the JSON result, whose metric set is fixed.
    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.infos.push((name.into(), value, unit));
    }

    /// Records one exact simulated-statistic count. Counts repeat
    /// exactly for a given seed; a count recorded twice must agree.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        match self.counts.get(&name) {
            Some(&previous) if previous != value => {
                self.fail(&format!(
                    "count {name} changed between units: {previous} then {value}"
                ));
            }
            _ => {
                self.counts.insert(name, value);
            }
        }
    }

    /// Accounts one attempted operation; a failed one is reported on
    /// standard error with `what`.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
    }

    /// Records a failed check that is not an operation of its own: it
    /// still makes the run incorrect.
    pub fn fail(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}");
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Share of attempted operations that succeeded (1.0 when clean).
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }

    /// FNV-1a digest over the canonical `name=value` lines of every
    /// count: the value pinned per workload and seed variant.
    pub fn counts_digest(&self) -> String {
        let mut hash = Fnv64::new();
        for (name, value) in &self.counts {
            hash.update(format!("{name}={value}\n").as_bytes());
        }
        format!("{:016x}", hash.finish())
    }

    /// Prints the human-readable rows, then the JSON result line, and
    /// returns whether every output check passed.
    pub fn print(&self) -> bool {
        for (name, value) in &self.counts {
            println!("count  {name:<40} {value}");
        }
        if !self.counts.is_empty() {
            println!("count  {:<40} {}", "digest", self.counts_digest());
        }
        for (name, value, unit) in &self.infos {
            println!("info   {name:<40} {value:>16.6} {unit}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<40} {value:>16.6} {unit}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// A finite number in JSON form with every digit Rust's shortest
/// round-trip formatting gives; non-finite values become 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of the samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile of the samples (0 for none).
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean of the samples (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in
/// MiB.
fn vm_hwm_mb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    vm_hwm_mb(&status).unwrap_or(0.0)
}

/// The peak resident sets (`VmHWM`), in MiB, of this process's live
/// child processes, found through `/proc/self/task/*/children`.
pub fn children_peak_rss_mb() -> Vec<f64> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let pids: Vec<String> = tasks
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("children")).ok())
        .flat_map(|list| {
            list.split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect();
    pids.iter()
        .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/status")).ok())
        .filter_map(|status| vm_hwm_mb(&status))
        .collect()
}

/// Lowers the process's peak resident set to its current size (Linux
/// `clear_refs` mode 5), so that [`peak_rss_mb`] covers only what runs
/// after this call rather than the set-up before it. Returns whether
/// the kernel allowed it; if not, the peak covers the process's life.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// FNV-1a digest of bytes as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash = Fnv64::new();
    hash.update(bytes);
    format!("{:016x}", hash.finish())
}
