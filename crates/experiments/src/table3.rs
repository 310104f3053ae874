//! Table 3: the Prefetch-A / Prefetch-B mode assignments.

use crate::Table;

/// Regenerates Table 3: which operating mode each scheme applies per
/// interval category. Prefetchable intervals receive Theorem 1's mode
/// (the trigger hides the wakeup); the schemes differ on
/// non-prefetchable intervals — Prefetch-A favours performance (stay
/// active), Prefetch-B favours savings (go drowsy).
pub fn generate() -> Table {
    let mut table = Table::new(
        "Table 3: Prefetch-A and Prefetch-B mode assignment",
        vec![
            "Interval category".to_string(),
            "Prefetch-A".to_string(),
            "Prefetch-B".to_string(),
        ],
    );
    for (category, a, b) in [
        ("(0, 6] (any)", "active", "active"),
        ("prefetchable, (6, 1057]", "drowsy", "drowsy"),
        ("prefetchable, (1057, +inf)", "sleep", "sleep"),
        ("non-prefetchable, (6, +inf)", "active", "drowsy"),
    ] {
        table.push_row(vec![category.to_string(), a.to_string(), b.to_string()]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HEADLINE_NODE;
    use leakage_core::policy::{LeakagePolicy, PrefetchGuided, PrefetchScheme};
    use leakage_core::{
        CircuitParams, EnergyContext, IntervalClass, IntervalKind, PowerMode, RefetchAccounting,
        WakeHints,
    };

    /// The table is definitional; verify the implemented policies obey it.
    #[test]
    fn policies_match_the_table() {
        let ctx = EnergyContext::new(
            CircuitParams::for_node(HEADLINE_NODE),
            RefetchAccounting::PaperStrict,
        );
        let class = |length, prefetchable| IntervalClass {
            length,
            kind: IntervalKind::Interior { reaccess: true },
            wake: WakeHints {
                next_line: prefetchable,
                stride: false,
            },
            dirty: false,
        };
        let a = PrefetchGuided::new(PrefetchScheme::A);
        let b = PrefetchGuided::new(PrefetchScheme::B);

        let active = |len, pf| ctx.baseline_energy(&class(len, pf));
        let drowsy = |len, pf| ctx.mode_energy(PowerMode::Drowsy, &class(len, pf)).unwrap();
        let sleep = |len, pf| ctx.mode_energy(PowerMode::Sleep, &class(len, pf)).unwrap();

        // Row 1: short intervals stay active under both.
        assert_eq!(
            a.interval_energy(&ctx, &class(3, false)).0,
            active(3, false)
        );
        assert_eq!(
            b.interval_energy(&ctx, &class(3, false)).0,
            active(3, false)
        );
        // Row 2: prefetchable mid-length -> drowsy.
        assert_eq!(
            a.interval_energy(&ctx, &class(500, true)).0,
            drowsy(500, true)
        );
        // Row 3: prefetchable long -> sleep.
        assert_eq!(
            a.interval_energy(&ctx, &class(50_000, true)).0,
            sleep(50_000, true)
        );
        // Row 4: non-prefetchable long: A active, B drowsy.
        assert_eq!(
            a.interval_energy(&ctx, &class(50_000, false)).0,
            active(50_000, false)
        );
        assert_eq!(
            b.interval_energy(&ctx, &class(50_000, false)).0,
            drowsy(50_000, false)
        );
    }

    #[test]
    fn table_shape() {
        let table = generate();
        assert_eq!(table.rows().len(), 4);
        assert_eq!(table.headers().len(), 3);
    }
}
