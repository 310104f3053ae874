//! Property tests for the mini-ISA front end.
//!
//! **Simulator determinism** keeps the executed-workload suite
//! reproducible: the same program, seed, and budget produce the same
//! timed event stream, run after run. Profiles, goldens, and the
//! served `isa:*` artifacts all lean on this.

use leakage_isa::{assemble, IsaSource, PROGRAMS};
use leakage_trace::{TraceSource, VecTrace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Same program, seed, and budget ⇒ the same timed event stream,
    /// run after run.
    #[test]
    fn simulator_is_deterministic(
        program in 0usize..PROGRAMS.len(),
        budget in 200u64..20_000,
        seed in 0u64..=u64::MAX,
    ) {
        let program = &PROGRAMS[program];
        let mut first = VecTrace::new();
        IsaSource::new(program, budget, seed).run(&mut first);
        let mut second = VecTrace::new();
        IsaSource::new(program, budget, seed).run(&mut second);
        prop_assert!(!first.is_empty(), "{} must emit events", program.name);
        prop_assert_eq!(first, second, "replay must be event-identical");
    }

    /// Different seeds actually steer the data-dependent programs:
    /// determinism is per-seed, not degenerate constancy.
    #[test]
    fn chase_traces_depend_on_their_seed(seed in 0u64..=u64::MAX) {
        let program = leakage_isa::program_by_name("isa:chase").expect("library program");
        let mut base = VecTrace::new();
        IsaSource::new(program, 4_000, seed).run(&mut base);
        let mut other = VecTrace::new();
        IsaSource::new(program, 4_000, seed.wrapping_add(1)).run(&mut other);
        prop_assert_ne!(base, other);
    }
}

/// Every shipped library program assembles to a non-empty program.
#[test]
fn library_programs_assemble() {
    for program in &PROGRAMS {
        let instrs = assemble(program.source)
            .unwrap_or_else(|err| panic!("{} must assemble: {err}", program.name));
        assert!(!instrs.is_empty(), "{} is not empty", program.name);
    }
}
