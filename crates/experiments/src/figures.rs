//! SVG renderings of the paper's figures.
//!
//! Each builder mirrors a figure module's data series into the figure's
//! native visual form via [`chart`](crate::chart). `repro --svg <dir>`
//! writes them all.

use crate::chart::{BarChart, LineChart};
use crate::{fig7, fig8, fig9, BenchmarkProfile, HEADLINE_NODE};
use leakage_cachesim::Level1;
use leakage_core::envelope::{envelope_series, EnvelopeSample};
use leakage_core::{CircuitParams, IntervalEnergyModel};
use leakage_energy::itrs;

/// Fig. 1: the ITRS leakage projection.
pub fn fig1_chart() -> String {
    LineChart::new(
        "Figure 1: projected leakage fraction of total power (ITRS trend)",
        "year",
        "leakage / total power (%)",
    )
    .series(
        "ITRS projection",
        itrs::projection()
            .into_iter()
            .map(|(year, f)| (f64::from(year), f * 100.0))
            .collect(),
    )
    .y_bounds(0.0, 100.0)
    .render()
}

/// Fig. 7: hybrid vs sleep over the minimum-sleep-interval sweep.
pub fn fig7_charts(profiles: &[BenchmarkProfile]) -> (String, String) {
    let build = |side: Level1, label: &str| {
        let series = fig7::series(profiles, side);
        let to_points = |f: fn(&(u64, f64, f64)) -> f64| {
            series
                .iter()
                .map(|row| (row.0 as f64, f(row)))
                .collect::<Vec<_>>()
        };
        LineChart::new(
            format!("Figure 7{label}: hybrid vs sleep, 70nm"),
            "minimum sleep interval (cycles)",
            "leakage power savings (%)",
        )
        .series("Sleep", to_points(|r| r.1))
        .series("Sleep+Drowsy", to_points(|r| r.2))
        .y_bounds(75.0, 100.0)
        .render()
    };
    (
        build(Level1::Instruction, "(a) Instruction Cache"),
        build(Level1::Data, "(b) Data Cache"),
    )
}

/// Fig. 8: grouped bars per benchmark and scheme.
pub fn fig8_charts(profiles: &[BenchmarkProfile]) -> (String, String) {
    let build = |side: Level1, label: &str| {
        let data = fig8::series(profiles, side);
        let mut categories: Vec<String> = profiles.iter().map(|p| p.name.clone()).collect();
        categories.push("average".to_string());
        let mut chart = BarChart::new(
            format!("Figure 8{label}: leakage power savings by scheme, 70nm"),
            "leakage power savings (%)",
        )
        .categories(categories)
        .y_max(100.0);
        for (name, savings) in data {
            chart = chart.series(name, savings);
        }
        chart.render()
    };
    (
        build(Level1::Instruction, "(a) Instruction Cache"),
        build(Level1::Data, "(b) Data Cache"),
    )
}

/// Fig. 9: stacked prefetchability bars per interval band.
pub fn fig9_charts(profiles: &[BenchmarkProfile]) -> (String, String) {
    let build = |side: Level1, label: &str| {
        let p = fig9::average(profiles, side);
        BarChart::new(
            format!("Figure 9{label}: prefetchability of intervals"),
            "% of all intervals",
        )
        .categories(["(0, 6]", "(6, 1057]", "(1057, +inf)"])
        .series("P-NL", vec![0.0, p.mid_nl, p.long_nl])
        .series("P-stride", vec![0.0, p.mid_stride, p.long_stride])
        .series("non-prefetchable", vec![p.short, p.mid_rest, p.long_rest])
        .stacked()
        .render()
    };
    (
        build(Level1::Instruction, "(a) Instruction Cache"),
        build(Level1::Data, "(b) Data Cache"),
    )
}

/// Fig. 10: the per-mode energy curves and their lower envelope
/// (log–log, as energies span five decades).
pub fn fig10_chart() -> String {
    let model = IntervalEnergyModel::new(CircuitParams::for_node(HEADLINE_NODE));
    let lengths: Vec<u64> = crate::fig10::sample_lengths();
    let series = envelope_series(&model, &lengths);
    let pick = |f: fn(&EnvelopeSample) -> Option<f64>| {
        series
            .iter()
            .filter_map(|row| f(row).map(|v| (row.0 as f64, v)))
            .filter(|&(x, y)| x > 0.0 && y > 0.0)
            .collect::<Vec<_>>()
    };
    LineChart::new(
        "Figure 10: interval energies and the optimal envelope, 70nm",
        "interval length (cycles)",
        "energy per line (pJ)",
    )
    .series("E_active", pick(|r| r.1))
    .series("E_drowsy", pick(|r| r.2))
    .series("E_sleep", pick(|r| r.3))
    .series("envelope", pick(|r| Some(r.4)))
    .log_x()
    .log_y()
    .render()
}

/// Writes every figure into `dir` (created if needed); returns the file
/// names written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_all(
    dir: &std::path::Path,
    profiles: &[BenchmarkProfile],
) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let (fig7a, fig7b) = fig7_charts(profiles);
    let (fig8a, fig8b) = fig8_charts(profiles);
    let (fig9a, fig9b) = fig9_charts(profiles);
    let files = [
        ("fig1.svg", fig1_chart()),
        ("fig7a_icache.svg", fig7a),
        ("fig7b_dcache.svg", fig7b),
        ("fig8a_icache.svg", fig8a),
        ("fig8b_dcache.svg", fig8b),
        ("fig9a_icache.svg", fig9a),
        ("fig9b_dcache.svg", fig9b),
        ("fig10.svg", fig10_chart()),
    ];
    let mut written = Vec::new();
    for (name, svg) in files {
        std::fs::write(dir.join(name), svg)?;
        written.push(name.to_string());
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached_profile;
    use leakage_workloads::Scale;

    fn profiles() -> Vec<BenchmarkProfile> {
        vec![cached_profile("gzip", Scale::Test).as_ref().clone()]
    }

    #[test]
    fn static_figures_render() {
        assert!(fig1_chart().contains("ITRS"));
        let fig10 = fig10_chart();
        assert!(fig10.contains("envelope"));
        assert!(fig10.contains("E_sleep"));
    }

    #[test]
    fn profile_figures_render() {
        let profiles = profiles();
        let (a, b) = fig7_charts(&profiles);
        assert!(a.contains("Sleep+Drowsy") && b.contains("Sleep+Drowsy"));
        let (a, _) = fig8_charts(&profiles);
        assert!(a.contains("OPT-Hybrid") && a.contains("gzip"));
        let (_, b) = fig9_charts(&profiles);
        assert!(b.contains("P-stride"));
    }

    #[test]
    fn write_all_creates_files() {
        let dir = std::env::temp_dir().join(format!("leakage-figures-{}", std::process::id()));
        let written = write_all(&dir, &profiles()).unwrap();
        assert_eq!(written.len(), 8);
        for name in &written {
            let content = std::fs::read_to_string(dir.join(name)).unwrap();
            assert!(content.starts_with("<svg"), "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
