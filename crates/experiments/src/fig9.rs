//! Fig. 9: prefetchability of intervals by length band.

use crate::eval::mean;
use crate::render::pct;
use crate::{BenchmarkProfile, Table, HEADLINE_NODE};
use leakage_cachesim::Level1;
use leakage_core::{CircuitParams, IntervalEnergyModel};
use leakage_intervals::IntervalKind;

/// Prefetchability percentages (of all intervals) for one benchmark's
/// cache, split by the paper's three bands.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prefetchability {
    /// Fraction of intervals in `(0, a]`, percent (never prefetchable —
    /// such lines stay active).
    pub short: f64,
    /// `(a, b]`: next-line-prefetchable percent.
    pub mid_nl: f64,
    /// `(a, b]`: stride-prefetchable percent (stride-only: intervals
    /// also covered by next-line count toward `mid_nl`).
    pub mid_stride: f64,
    /// `(a, b]`: non-prefetchable percent.
    pub mid_rest: f64,
    /// `(b, ∞)`: next-line-prefetchable percent.
    pub long_nl: f64,
    /// `(b, ∞)`: stride-prefetchable percent.
    pub long_stride: f64,
    /// `(b, ∞)`: non-prefetchable percent.
    pub long_rest: f64,
}

impl Prefetchability {
    /// Total next-line prefetchability (the paper's "P-NL"), percent of
    /// all intervals.
    pub fn total_nl(&self) -> f64 {
        self.mid_nl + self.long_nl
    }

    /// Total stride prefetchability ("P-stride"), percent.
    pub fn total_stride(&self) -> f64 {
        self.mid_stride + self.long_stride
    }

    /// Total prefetchability, percent.
    pub fn total(&self) -> f64 {
        self.total_nl() + self.total_stride()
    }
}

/// Computes one benchmark's prefetchability breakdown for a cache side.
///
/// Following §5.2, intervals of length ≤ a are counted non-prefetchable
/// (they are always kept active, so there is nothing to wake), and only
/// *interior* intervals are counted — the frame-timeline edges have no
/// resident data to manage.
pub fn analyze(profile: &BenchmarkProfile, side: Level1) -> Prefetchability {
    let points =
        IntervalEnergyModel::new(CircuitParams::for_node(HEADLINE_NODE)).inflection_points();
    let (a, b) = (points.active_drowsy, points.drowsy_sleep);
    let dist = &profile.side(side).dist;

    let mut result = Prefetchability::default();
    let mut total = 0u64;
    let add = |bucket: &mut f64, count: u64| *bucket += count as f64;
    for (class, count) in dist.iter() {
        if !matches!(class.kind, IntervalKind::Interior { .. }) {
            continue;
        }
        total += count;
        if class.length <= a {
            add(&mut result.short, count);
        } else {
            let (nl, stride, rest) = if class.length <= b {
                (
                    &mut result.mid_nl,
                    &mut result.mid_stride,
                    &mut result.mid_rest,
                )
            } else {
                (
                    &mut result.long_nl,
                    &mut result.long_stride,
                    &mut result.long_rest,
                )
            };
            if class.wake.next_line {
                add(nl, count);
            } else if class.wake.stride {
                add(stride, count);
            } else {
                add(rest, count);
            }
        }
    }
    if total > 0 {
        let scale = 100.0 / total as f64;
        for bucket in [
            &mut result.short,
            &mut result.mid_nl,
            &mut result.mid_stride,
            &mut result.mid_rest,
            &mut result.long_nl,
            &mut result.long_stride,
            &mut result.long_rest,
        ] {
            *bucket *= scale;
        }
    }
    result
}

/// Suite-average prefetchability for a side.
pub fn average(profiles: &[BenchmarkProfile], side: Level1) -> Prefetchability {
    let per: Vec<Prefetchability> = profiles.iter().map(|p| analyze(p, side)).collect();
    let get = |f: fn(&Prefetchability) -> f64| mean(&per.iter().map(f).collect::<Vec<_>>());
    Prefetchability {
        short: get(|p| p.short),
        mid_nl: get(|p| p.mid_nl),
        mid_stride: get(|p| p.mid_stride),
        mid_rest: get(|p| p.mid_rest),
        long_nl: get(|p| p.long_nl),
        long_stride: get(|p| p.long_stride),
        long_rest: get(|p| p.long_rest),
    }
}

/// Regenerates Fig. 9 as two tables (instruction cache, data cache).
pub fn generate(profiles: &[BenchmarkProfile]) -> (Table, Table) {
    let make = |side: Level1, label: &str| {
        let p = average(profiles, side);
        let mut table = Table::new(
            format!("Figure 9{label}: prefetchability of intervals (% of all intervals)"),
            vec![
                "Band".to_string(),
                "P-NL".to_string(),
                "P-stride".to_string(),
                "Non-prefetchable".to_string(),
            ],
        );
        table.push_row(vec!["(0, 6]".to_string(), pct(0.0), pct(0.0), pct(p.short)]);
        table.push_row(vec![
            "(6, 1057]".to_string(),
            pct(p.mid_nl),
            pct(p.mid_stride),
            pct(p.mid_rest),
        ]);
        table.push_row(vec![
            "(1057, +inf)".to_string(),
            pct(p.long_nl),
            pct(p.long_stride),
            pct(p.long_rest),
        ]);
        table.push_row(vec![
            "total".to_string(),
            pct(p.total_nl()),
            pct(p.total_stride()),
            pct(p.short + p.mid_rest + p.long_rest),
        ]);
        table
    };
    (
        make(Level1::Instruction, "(a) Instruction Cache"),
        make(Level1::Data, "(b) Data Cache"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached_profile;
    use leakage_workloads::Scale;

    #[test]
    fn percentages_sum_to_one_hundred() {
        let profile = cached_profile("applu", Scale::Test);
        for side in [Level1::Instruction, Level1::Data] {
            let p = analyze(&profile, side);
            let sum = p.short
                + p.mid_nl
                + p.mid_stride
                + p.mid_rest
                + p.long_nl
                + p.long_stride
                + p.long_rest;
            assert!((sum - 100.0).abs() < 1e-6, "{side}: {sum}");
        }
    }

    #[test]
    fn icache_has_no_stride_prefetchability() {
        let profile = cached_profile("gcc", Scale::Test);
        let p = analyze(&profile, Level1::Instruction);
        assert_eq!(p.total_stride(), 0.0);
        assert!(p.total_nl() > 0.0, "sequential code is NL-prefetchable");
    }

    #[test]
    fn applu_shows_stride_prefetchability_on_data() {
        let profile = cached_profile("applu", Scale::Test);
        let p = analyze(&profile, Level1::Data);
        assert!(p.total_stride() > 0.0, "plane walks are stride-covered");
    }

    #[test]
    fn tables_have_four_rows() {
        let profiles = vec![cached_profile("applu", Scale::Test).as_ref().clone()];
        let (i, d) = generate(&profiles);
        assert_eq!(i.rows().len(), 4);
        assert_eq!(d.rows().len(), 4);
    }
}
