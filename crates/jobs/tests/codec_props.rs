//! Property-based verification of the two durable codecs the fabric
//! trusts with job state: the chunk checkpoint file format and the
//! job-spec JSON. Round-trips must be exact, point decoding must be a
//! bijection, and *any* truncation or bit flip of a checkpoint must be
//! detected by the FNV-1a seal — the crash matrix relies on that
//! detection for every torn-write scenario.

use leakage_cachesim::Level1;
use leakage_energy::TechnologyNode;
use leakage_jobs::checkpoint::{decode_chunk, encode_chunk, ChunkFile, CkptError};
use leakage_jobs::{JobSpec, PermilleAxis};
use leakage_telemetry::json;
use leakage_workloads::{Scale, SUITE_NAMES};
use proptest::prelude::*;

/// Row payloads the worker actually produces are single-line JSON
/// objects; the codec must take any newline-free bytes, so rows here
/// are arbitrary printable ASCII.
fn arb_row() -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..80)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
}

fn arb_chunk_file() -> impl Strategy<Value = ChunkFile> {
    (
        0u64..u64::MAX,
        0u64..1_000_000,
        0u64..u64::from(u32::MAX),
        prop::collection::vec(arb_row(), 0..20),
    )
        .prop_map(|(id, chunk, start, rows)| ChunkFile {
            job_id: format!("j{id:016x}"),
            chunk,
            start,
            end: start + rows.len() as u64,
            rows,
        })
}

fn arb_scale() -> impl Strategy<Value = Scale> {
    prop_oneof![
        Just(Scale::Test),
        Just(Scale::Small),
        Just(Scale::Paper),
        (1u64..10_000_000).prop_map(Scale::Custom),
    ]
}

/// A legal job name: 1..=32 chars drawn from the allowed alphabet.
fn arb_name() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-";
    prop::collection::vec(0usize..ALPHABET.len(), 1..=32)
        .prop_map(|ids| ids.into_iter().map(|i| ALPHABET[i] as char).collect())
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        arb_name(),
        arb_scale(),
        // Axis subsets as bitmasks: every subset of the suite, the two
        // cache sides, and the four nodes is reachable (empty included).
        0u8..(1 << SUITE_NAMES.len()),
        0u8..4,
        0u8..16,
        (1u32..=2000, 0u32..500, 1u32..100),
        16u32..=4096,
    )
        .prop_map(
            |(name, scale, bench_mask, side_mask, node_mask, (from, span, step), chunk_points)| {
                let benchmarks = SUITE_NAMES
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| bench_mask & (1 << i) != 0)
                    .map(|(_, b)| b.to_string())
                    .collect();
                let sides = [Level1::Instruction, Level1::Data]
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| side_mask & (1 << i) != 0)
                    .map(|(_, s)| s)
                    .collect();
                let nodes = TechnologyNode::ALL
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| node_mask & (1 << i) != 0)
                    .map(|(_, n)| n)
                    .collect();
                JobSpec::build(
                    &name,
                    scale,
                    benchmarks,
                    sides,
                    nodes,
                    PermilleAxis {
                        from,
                        to: from + span,
                        step,
                    },
                    chunk_points,
                )
                .expect("generated spec is valid")
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode/decode of a checkpoint is the identity.
    #[test]
    fn chunk_codec_round_trips(file in arb_chunk_file()) {
        let bytes = encode_chunk(&file);
        let back = decode_chunk(&bytes).expect("clean bytes decode");
        prop_assert_eq!(back, file);
    }

    /// Every possible truncation of a checkpoint — any crash point of
    /// a non-atomic write — fails closed as `Corrupt`, never as a
    /// shorter-but-valid file.
    #[test]
    fn any_truncation_is_detected(file in arb_chunk_file(), cut in 0.0f64..1.0) {
        let bytes = encode_chunk(&file);
        let keep = ((bytes.len() - 1) as f64 * cut) as usize;
        prop_assert!(matches!(
            decode_chunk(&bytes[..keep]),
            Err(CkptError::Corrupt { .. })
        ), "truncation to {keep}/{} bytes must not decode", bytes.len());
    }

    /// Every single-bit flip anywhere in a checkpoint is detected:
    /// either the structure breaks or the FNV-1a seal refuses it.
    #[test]
    fn any_bit_flip_is_detected(
        file in arb_chunk_file(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_chunk(&file);
        let index = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[index] ^= 1 << bit;
        prop_assert!(matches!(
            decode_chunk(&bytes),
            Err(CkptError::Corrupt { .. })
        ), "flipping bit {bit} of byte {index} must not decode");
    }

    /// Spec → canonical JSON → spec is the identity, and the
    /// content-addressed job id is stable across the round trip.
    #[test]
    fn spec_json_round_trips(spec in arb_spec()) {
        let text = spec.to_json();
        let doc = json::parse(&text).expect("spec JSON parses");
        let back = JobSpec::from_json(&doc).expect("spec JSON decodes");
        prop_assert_eq!(back.id(), spec.id());
        prop_assert_eq!(back, spec);
    }

    /// Mixed-radix point decoding is a bijection: distinct indices
    /// yield distinct points, and chunk ranges tile the space.
    #[test]
    fn point_decode_is_injective(spec in arb_spec(), seed in 0u64..u64::MAX) {
        let total = spec.point_count();
        prop_assume!(total >= 2);
        let a = seed % total;
        let b = (seed >> 32) % total;
        prop_assume!(a != b);
        prop_assert_ne!(spec.point(a), spec.point(b));

        let last = spec.chunk_count() - 1;
        let (_, end) = spec.chunk_range(last);
        prop_assert_eq!(end, total, "chunks must tile the point space");
    }
}
