//! Property test: the direct-mapped stride table against a naive
//! unbounded per-PC reference model (collision-free regime).

use leakage_prefetch::StridePrefetcher;
use leakage_trace::{Address, Pc};
use proptest::prelude::*;
use std::collections::HashMap;

/// The textbook two-strike stride predictor, one entry per PC, no
/// capacity limits.
#[derive(Default)]
struct ReferenceStride {
    entries: HashMap<u64, (u64, i64, u8)>, // pc -> (last, stride, confirms)
}

impl ReferenceStride {
    fn observe(&mut self, pc: u64, addr: u64) -> Option<u64> {
        match self.entries.get_mut(&pc) {
            None => {
                self.entries.insert(pc, (addr, 0, 0));
                None
            }
            Some((last, stride, confirms)) => {
                let delta = addr.wrapping_sub(*last) as i64;
                if delta != 0 && delta == *stride {
                    *confirms = confirms.saturating_add(1);
                } else {
                    *stride = delta;
                    *confirms = if delta == 0 { 0 } else { 1 };
                }
                *last = addr;
                if *confirms >= 2 {
                    Some(addr.wrapping_add_signed(*stride))
                } else {
                    None
                }
            }
        }
    }
}

/// Distinct word-aligned PCs that cannot collide in a 4096-entry table.
fn arb_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec(
        (
            (0u64..64).prop_map(|i| 0x1000 + i * 4), // 64 distinct PCs
            0u64..1_000_000,
        ),
        1..500,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With no table collisions the hardware table equals the ideal
    /// model on every prediction.
    #[test]
    fn table_matches_reference_without_collisions(stream in arb_stream()) {
        let mut table = StridePrefetcher::new(4096);
        let mut reference = ReferenceStride::default();
        for &(pc, addr) in &stream {
            let expected = reference.observe(pc, addr);
            let actual = table.observe(Pc::new(pc), Address::new(addr));
            prop_assert_eq!(
                actual.map(|a| a.raw()),
                expected,
                "divergence at pc={:#x} addr={:#x}", pc, addr
            );
        }
    }

    /// A collision-prone table never *invents* predictions the ideal
    /// model would not make: evictions can only suppress predictions.
    #[test]
    fn collisions_only_suppress(stream in arb_stream()) {
        let mut small = StridePrefetcher::new(4); // heavy collisions
        let mut reference = ReferenceStride::default();
        for &(pc, addr) in &stream {
            let expected = reference.observe(pc, addr);
            let actual = small.observe(Pc::new(pc), Address::new(addr));
            if let Some(predicted) = actual {
                prop_assert_eq!(Some(predicted.raw()), expected,
                    "small table predicted something the ideal model would not");
            }
        }
        prop_assert!(small.triggers() <= reference_trigger_bound(&stream));
    }

    /// A pure arithmetic stream predicts exactly from the third access.
    #[test]
    fn arithmetic_stream_predicts_from_third_access(
        base in 0u64..1_000_000,
        stride in prop::sample::select(vec![-4096i64, -64, 8, 64, 512, 4096]),
        len in 3usize..40,
    ) {
        let mut table = StridePrefetcher::new(64);
        let pc = Pc::new(0x400);
        for i in 0..len {
            let addr = Address::new(base.wrapping_add_signed(stride * i as i64));
            let prediction = table.observe(pc, addr);
            if i < 2 {
                prop_assert_eq!(prediction, None, "i={}", i);
            } else {
                prop_assert_eq!(
                    prediction,
                    Some(addr.offset(stride)),
                    "i={}", i
                );
            }
        }
    }
}

/// A singleton access sequence trains nothing and predicts nothing —
/// in either implementation.
#[test]
fn singleton_sequence_never_predicts() {
    let mut table = StridePrefetcher::new(64);
    let mut reference = ReferenceStride::default();
    assert_eq!(table.observe(Pc::new(0x400), Address::new(1234)), None);
    assert_eq!(reference.observe(0x400, 1234), None);
    // A different PC immediately after is also a singleton.
    assert_eq!(table.observe(Pc::new(0x800), Address::new(5678)), None);
    assert_eq!(reference.observe(0x800, 5678), None);
}

/// Changing stride mid-stream must retrain: both implementations fall
/// silent for exactly two accesses, then predict with the new stride.
#[test]
fn stride_change_mid_stream_retrains_in_lockstep() {
    let mut table = StridePrefetcher::new(64);
    let mut reference = ReferenceStride::default();
    let pc = 0x400u64;
    let mut addr = 0x10_000u64;
    let feed = |table: &mut StridePrefetcher, reference: &mut ReferenceStride, a: u64| {
        let actual = table.observe(Pc::new(pc), Address::new(a)).map(|p| p.raw());
        let expected = reference.observe(pc, a);
        assert_eq!(actual, expected, "divergence at addr {a:#x}");
        actual
    };
    // Train stride +64 to confirmation.
    for _ in 0..4 {
        feed(&mut table, &mut reference, addr);
        addr += 64;
    }
    assert_eq!(feed(&mut table, &mut reference, addr), Some(addr + 64));
    // Switch to stride -128: the first observation with the new delta
    // only retrains (strike one); the next confirms and predicts.
    addr = addr.wrapping_add_signed(-128);
    assert_eq!(feed(&mut table, &mut reference, addr), None);
    addr = addr.wrapping_add_signed(-128);
    assert_eq!(
        feed(&mut table, &mut reference, addr),
        Some(addr.wrapping_add_signed(-128))
    );
}

/// A negative stride confirms and predicts downward, identically in
/// table and reference.
#[test]
fn negative_stride_predicts_downward() {
    let mut table = StridePrefetcher::new(64);
    let mut reference = ReferenceStride::default();
    let pc = 0x77cu64;
    for i in 0..6u64 {
        let a = 1_000_000 - i * 4096;
        let actual = table.observe(Pc::new(pc), Address::new(a)).map(|p| p.raw());
        let expected = reference.observe(pc, a);
        assert_eq!(actual, expected, "i={i}");
        if i >= 2 {
            assert_eq!(actual, Some(a - 4096), "i={i}");
        }
    }
}

/// Repeating the same address (stride zero) resets confirmation in
/// both implementations: no prediction until a stride re-confirms.
#[test]
fn zero_stride_resets_training() {
    let mut table = StridePrefetcher::new(64);
    let mut reference = ReferenceStride::default();
    let pc = 0x400u64;
    for (a, expect) in [
        (100, None),
        (164, None),
        (228, Some(292)), // +64 confirmed
        (228, None),      // zero stride: reset
        (292, None),      // retrain strike one
        (356, Some(420)), // strike two: re-confirmed
        (420, Some(484)), // still confirmed
    ] {
        let actual = table.observe(Pc::new(pc), Address::new(a)).map(|p| p.raw());
        let expected = reference.observe(pc, a);
        assert_eq!(actual, expected, "addr {a}");
        assert_eq!(actual, expect, "addr {a}");
    }
}

fn reference_trigger_bound(stream: &[(u64, u64)]) -> u64 {
    let mut reference = ReferenceStride::default();
    stream
        .iter()
        .filter(|&&(pc, addr)| reference.observe(pc, addr).is_some())
        .count() as u64
}
