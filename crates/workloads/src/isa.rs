//! Executed-program benchmarks: the `isa:*` suite.
//!
//! Unlike the six synthetic analogs, these workloads *execute* real
//! control flow on the `leakage-isa` machine — assembled `.lasm`
//! programs run repeatedly (re-seeded each iteration, one continuous
//! clock) until the [`Scale`](crate::Scale) cycle budget is met. They
//! share the suite plumbing: [`crate::by_name`] resolves their
//! `isa:`-prefixed names, profile stores key them with their own
//! generator version, and they are valid axes in server sweeps.

use crate::bench::GENERATOR_VERSION;
use leakage_isa::{program_by_name, IsaSource};
use leakage_trace::{TraceSink, TraceSource};

/// The executed-program benchmark names, in library order. All are
/// prefixed `isa:` so they can never collide with synthetic suite
/// names.
pub use leakage_isa::PROGRAM_NAMES as ISA_SUITE_NAMES;

/// Version of the ISA workload family (program corpus, machine cycle
/// model, seeding discipline). Bump on any change that alters the
/// trace an `isa:*` benchmark emits for a given `(name, Scale)`; the
/// synthetic suite's [`GENERATOR_VERSION`] stays untouched, so adding
/// or revising ISA programs never invalidates synthetic profiles.
pub const ISA_GENERATOR_VERSION: u32 = 1;

/// The generator version governing `name`'s cache identity: ISA
/// benchmarks version independently from the synthetic suite, so
/// profile caches mix in the family version that actually produced
/// the trace.
pub fn generator_version(name: &str) -> u32 {
    if name.starts_with("isa:") {
        ISA_GENERATOR_VERSION
    } else {
        GENERATOR_VERSION
    }
}

/// Whether `name` is a benchmark this crate can build at any scale —
/// a synthetic suite member or an executed `isa:*` program. This is
/// the validation the server's sweep parser and the jobs fabric use.
pub fn is_known_benchmark(name: &str) -> bool {
    crate::bench::SUITE_NAMES.contains(&name) || ISA_SUITE_NAMES.contains(&name)
}

/// A runnable executed-program workload (the `inner` of an `isa:*`
/// [`Benchmark`](crate::Benchmark)).
#[derive(Debug, Clone)]
pub(crate) struct IsaWorkload {
    name: &'static str,
    budget_cycles: u64,
}

impl IsaWorkload {
    /// Builds the workload for a known `isa:*` name; `None` otherwise.
    pub(crate) fn by_name(name: &str, budget_cycles: u64) -> Option<IsaWorkload> {
        let program = program_by_name(name)?;
        Some(IsaWorkload {
            name: program.name,
            budget_cycles,
        })
    }

    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// The workload's base seed: a stable FNV-1a fold of its name, so
    /// each program family gets an independent deterministic stream
    /// without a hand-maintained table.
    fn seed(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in self.name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }
}

impl TraceSource for IsaWorkload {
    fn run(&mut self, sink: &mut dyn TraceSink) {
        let program = program_by_name(self.name).expect("constructed from a known name");
        IsaSource::new(program, self.budget_cycles, self.seed()).run(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{by_name, Scale, SUITE_NAMES};
    use leakage_trace::VecTrace;

    #[test]
    fn known_benchmarks_cover_both_families() {
        for name in SUITE_NAMES {
            assert!(is_known_benchmark(name), "{name}");
        }
        for name in ISA_SUITE_NAMES {
            assert!(is_known_benchmark(name), "{name}");
        }
        assert!(!is_known_benchmark("perlbmk"));
        assert!(!is_known_benchmark("isa:doom"));
    }

    #[test]
    fn generator_versions_split_by_family() {
        assert_eq!(generator_version("gzip"), GENERATOR_VERSION);
        assert_eq!(generator_version("isa:matmul"), ISA_GENERATOR_VERSION);
    }

    #[test]
    fn isa_benchmarks_resolve_and_reach_budget() {
        for name in ISA_SUITE_NAMES {
            let mut bench = by_name(name, Scale::Test).expect(name);
            assert_eq!(bench.name(), name);
            let mut trace = VecTrace::new();
            bench.run(&mut trace);
            let last = trace.stats().last_cycle.expect("non-empty").raw();
            let budget = Scale::Test.cycles();
            assert!(
                last >= budget - 10 && last < budget + 10,
                "{name}: last cycle {last} vs budget {budget}"
            );
        }
    }

    #[test]
    fn isa_benchmarks_are_deterministic_and_distinct() {
        let collect = |name: &str| {
            let mut trace = VecTrace::new();
            by_name(name, Scale::Test).unwrap().run(&mut trace);
            trace
        };
        assert_eq!(collect("isa:chase").events(), collect("isa:chase").events());
        assert_ne!(
            collect("isa:memset").events(),
            collect("isa:memcpy").events()
        );
    }
}
