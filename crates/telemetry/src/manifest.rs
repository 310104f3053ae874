//! Run manifests: the audit record binding a run's outputs to the
//! configuration, versions, and counters that produced them.

use crate::json::{array, key, object, string};
use crate::span::span_report;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Version tag of the emitted JSON document.
pub const MANIFEST_SCHEMA: &str = "leakage-telemetry/1";

/// A run manifest: free-form `info` key/values (config hashes,
/// versions, scale, thread count — whatever makes the run
/// reproducible) plus per-experiment pass/fail verdicts. Serializing
/// it snapshots the global metrics registry and span profile alongside.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    info: BTreeMap<String, String>,
    verdicts: BTreeMap<String, bool>,
}

impl RunManifest {
    /// An empty manifest.
    pub fn new() -> Self {
        RunManifest::default()
    }

    /// Records one `info` entry (last write wins).
    pub fn set(&mut self, name: &str, value: impl ToString) {
        self.info.insert(name.to_string(), value.to_string());
    }

    /// Reads back an `info` entry.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.info.get(name).map(String::as_str)
    }

    /// Records the reproduction verdict for one experiment.
    pub fn verdict(&mut self, experiment: &str, passed: bool) {
        self.verdicts.insert(experiment.to_string(), passed);
    }

    /// Whether every recorded verdict passed (vacuously true when no
    /// verdicts were recorded).
    pub fn all_passed(&self) -> bool {
        self.verdicts.values().all(|&passed| passed)
    }

    /// The experiments whose verdict is `false`, sorted.
    pub fn failures(&self) -> Vec<&str> {
        self.verdicts
            .iter()
            .filter(|(_, &passed)| !passed)
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Serializes the manifest, the global registry snapshot, and the
    /// span profile into one JSON document:
    ///
    /// ```json
    /// {
    ///   "schema": "leakage-telemetry/1",
    ///   "created_unix_s": 1754000000,
    ///   "manifest": {"generator_version": "3", ...},
    ///   "verdicts": {"table1": true, ...},
    ///   "metrics": {
    ///     "counters": {"profile_store_sim_misses_total": 6, ...},
    ///     "gauges": {...},
    ///     "histograms": {"name": {"bounds": [...], "counts": [...],
    ///                             "sum": 0, "count": 0}}
    ///   },
    ///   "spans": [{"path": "suite/gzip", "calls": 1,
    ///              "total_ms": 12.3}, ...]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let created = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let snapshot = crate::registry().snapshot();
        let counters = object(
            snapshot
                .counters
                .iter()
                .map(|(name, value)| key(name) + &value.to_string()),
        );
        let gauges = object(
            snapshot
                .gauges
                .iter()
                .map(|(name, value)| key(name) + &value.to_string()),
        );
        let histograms = object(snapshot.histograms.iter().map(|(name, h)| {
            key(name)
                + &object([
                    key("bounds") + &array(h.bounds.iter().map(u64::to_string)),
                    key("counts") + &array(h.counts.iter().map(u64::to_string)),
                    key("sum") + &h.sum.to_string(),
                    key("count") + &h.count.to_string(),
                ])
        }));
        let spans = array(span_report().iter().map(|(path, stat)| {
            object([
                key("path") + &string(path),
                key("calls") + &stat.calls.to_string(),
                key("total_ms") + &format!("{:.3}", stat.total_ms()),
            ])
        }));
        object([
            key("schema") + &string(MANIFEST_SCHEMA),
            key("created_unix_s") + &created.to_string(),
            key("manifest")
                + &object(
                    self.info
                        .iter()
                        .map(|(name, value)| key(name) + &string(value)),
                ),
            key("verdicts")
                + &object(
                    self.verdicts
                        .iter()
                        .map(|(name, &passed)| key(name) + if passed { "true" } else { "false" }),
                ),
            key("metrics")
                + &object([
                    key("counters") + &counters,
                    key("gauges") + &gauges,
                    key("histograms") + &histograms,
                ]),
            key("spans") + &spans,
        ])
    }

    /// Writes [`to_json`](RunManifest::to_json) to `path`, creating
    /// parent directories as needed.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accounting() {
        let mut manifest = RunManifest::new();
        assert!(manifest.all_passed());
        manifest.verdict("table1", true);
        manifest.verdict("fig7", false);
        assert!(!manifest.all_passed());
        assert_eq!(manifest.failures(), vec!["fig7"]);
    }

    #[test]
    fn json_contains_sections() {
        let mut manifest = RunManifest::new();
        manifest.set("generator_version", 3);
        manifest.verdict("table1", true);
        let doc = manifest.to_json();
        for section in [
            "\"schema\": \"leakage-telemetry/1\"",
            "\"manifest\": ",
            "\"generator_version\": \"3\"",
            "\"verdicts\": {\"table1\": true}",
            "\"metrics\": ",
            "\"spans\": ",
        ] {
            assert!(doc.contains(section), "missing {section} in {doc}");
        }
    }
}
