//! Prometheus text-format exporter for the global registry.

use std::fmt::Write as _;

/// Splits a registered metric name into its base family and an
/// optional `key="value",...` label block: `lat{route="table"}` →
/// (`lat`, `route="table"`). Names without braces pass through.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(open) if name.ends_with('}') => (&name[..open], Some(&name[open + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Emits a `# TYPE` header once per metric family. The registry
/// snapshot is sorted by name, so labeled series of one family are
/// adjacent and dedup by last-emitted base suffices.
fn type_line(out: &mut String, last: &mut String, base: &str, kind: &str) {
    if last != base {
        let _ = writeln!(out, "# TYPE {base} {kind}");
        last.clear();
        last.push_str(base);
    }
}

/// Renders every registered metric in the Prometheus text exposition
/// format. Counters get a `_total`-as-written name (the registry
/// convention is to name counters `*_total` at the call site), gauges
/// are exported as-is, and histograms expand into cumulative
/// `_bucket{le="..."}` series plus `_sum` and `_count`, matching the
/// inclusive-upper-bound semantics of
/// [`Histogram`](crate::Histogram).
///
/// A metric registered with an inline label block — e.g.
/// `server_latency_us{route="table"}` — is exported as one labeled
/// series of the `server_latency_us` family: a single `# TYPE` line
/// for the family, with the labels merged into every sample line
/// (histograms get the `le` label appended after the user labels).
pub fn prometheus_text() -> String {
    let snapshot = crate::registry().snapshot();
    let mut out = String::new();
    let mut last = String::new();
    for (name, value) in &snapshot.counters {
        let (base, _) = split_labels(name);
        type_line(&mut out, &mut last, base, "counter");
        let _ = writeln!(out, "{name} {value}");
    }
    last.clear();
    for (name, value) in &snapshot.gauges {
        let (base, _) = split_labels(name);
        type_line(&mut out, &mut last, base, "gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    last.clear();
    for (name, h) in &snapshot.histograms {
        let (base, labels) = split_labels(name);
        type_line(&mut out, &mut last, base, "histogram");
        let prefix = match labels {
            Some(labels) => format!("{labels},"),
            None => String::new(),
        };
        let suffix = match labels {
            Some(labels) => format!("{{{labels}}}"),
            None => String::new(),
        };
        let mut cumulative = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.counts) {
            cumulative += count;
            let _ = writeln!(out, "{base}_bucket{{{prefix}le=\"{bound}\"}} {cumulative}");
        }
        cumulative += h.counts.last().copied().unwrap_or(0);
        let _ = writeln!(out, "{base}_bucket{{{prefix}le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{base}_sum{suffix} {}", h.sum);
        let _ = writeln!(out, "{base}_count{suffix} {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exports_histogram_cumulatively() {
        let h = crate::registry().histogram("prom_test_latency", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);
        let text = prometheus_text();
        assert!(text.contains("# TYPE prom_test_latency histogram"));
        assert!(text.contains("prom_test_latency_bucket{le=\"10\"} 1"));
        assert!(text.contains("prom_test_latency_bucket{le=\"100\"} 2"));
        assert!(text.contains("prom_test_latency_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("prom_test_latency_sum 555"));
        assert!(text.contains("prom_test_latency_count 3"));
    }

    #[test]
    fn exports_labeled_histograms_as_one_family() {
        let a = crate::registry().histogram("prom_label_lat{route=\"a\"}", &[10]);
        let b = crate::registry().histogram("prom_label_lat{route=\"b\"}", &[10]);
        a.record(5);
        b.record(50);
        let text = prometheus_text();
        assert_eq!(text.matches("# TYPE prom_label_lat histogram").count(), 1);
        assert!(text.contains("prom_label_lat_bucket{route=\"a\",le=\"10\"} 1"));
        assert!(text.contains("prom_label_lat_bucket{route=\"b\",le=\"+Inf\"} 1"));
        assert!(text.contains("prom_label_lat_sum{route=\"a\"} 5"));
        assert!(text.contains("prom_label_lat_count{route=\"b\"} 1"));
    }

    #[test]
    fn exports_labeled_counters_with_one_type_line() {
        let a = crate::registry().counter("prom_label_total{route=\"a\"}");
        let b = crate::registry().counter("prom_label_total{route=\"b\"}");
        a.inc();
        b.add(2);
        let text = prometheus_text();
        assert_eq!(text.matches("# TYPE prom_label_total counter").count(), 1);
        assert!(text.contains("prom_label_total{route=\"a\"} 1"));
        assert!(text.contains("prom_label_total{route=\"b\"} 2"));
    }
}
