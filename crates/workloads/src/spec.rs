//! Declarative workload structure and its executor.

use crate::{DataStream, Engine, SplitMix64, StreamSpec};
use leakage_trace::{TraceSink, TraceSource};

/// One tier of a phase's code: a contiguous region fetched straight
/// through, entered once every `every` supersteps.
///
/// The hot tier (`every == 1`) forms the inner loop; larger `every`
/// values synthesize progressively colder code whose instruction-cache
/// reuse intervals are correspondingly longer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeTier {
    /// First byte of the region (16-byte fetch blocks from here).
    pub base: u64,
    /// Region size in bytes.
    pub bytes: u64,
    /// Run once per this many supersteps (1 = the inner loop).
    pub every: u64,
}

impl CodeTier {
    /// Number of fetch blocks in one pass of the region.
    pub fn blocks(&self) -> u64 {
        self.bytes / 16
    }
}

/// One program phase: a code-tier schedule plus weighted data streams,
/// executed for `duration` cycles per occurrence.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Cycles per occurrence of this phase.
    pub duration: u64,
    /// Code tiers; at least one must have `every == 1`.
    pub code: Vec<CodeTier>,
    /// Data streams with selection weights.
    pub streams: Vec<(StreamSpec, f64)>,
    /// Average data operations per cycle.
    pub data_density: f64,
    /// Probability per fetch block of a short forward branch (skipping
    /// 1–3 blocks), which breaks perfect next-line coverage of code.
    pub branchiness: f64,
    /// When nonzero, each pass over a code tier executes its
    /// `segment_shuffle`-block segments in a per-pass pseudo-random
    /// order, modelling function-at-a-time control flow: the first line
    /// of a segment is then frequently *not* preceded by its
    /// address-predecessor, which is what makes a real program's code
    /// intervals only partially next-line prefetchable. Zero executes
    /// each region straight through.
    pub segment_shuffle: u32,
}

/// A full workload description: named, seeded, phase-structured.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (e.g. `"gzip"`).
    pub name: &'static str,
    /// RNG seed; every run with the same spec is identical.
    pub seed: u64,
    /// Phases, cycled round-robin until the cycle budget is exhausted.
    pub phases: Vec<Phase>,
}

impl Spec {
    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: empty
    /// phase list, a phase without an `every == 1` tier, a zero
    /// duration, a tier not holding at least one block, or a
    /// non-positive stream weight.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err(format!("workload {} has no phases", self.name));
        }
        for (i, phase) in self.phases.iter().enumerate() {
            if phase.duration == 0 {
                return Err(format!("{} phase {i}: zero duration", self.name));
            }
            if !phase.code.iter().any(|t| t.every == 1) {
                return Err(format!(
                    "{} phase {i}: needs a hot tier (every == 1)",
                    self.name
                ));
            }
            for tier in &phase.code {
                if tier.blocks() == 0 {
                    return Err(format!("{} phase {i}: tier under one block", self.name));
                }
                if tier.every == 0 {
                    return Err(format!("{} phase {i}: tier with every == 0", self.name));
                }
            }
            for (_, w) in &phase.streams {
                if *w <= 0.0 {
                    return Err(format!("{} phase {i}: non-positive weight", self.name));
                }
            }
            if phase.data_density > 0.0 && phase.streams.is_empty() {
                return Err(format!(
                    "{} phase {i}: data density without streams",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// Persistent per-phase execution state.
#[derive(Debug)]
struct PhaseState {
    streams: Vec<DataStream>,
    cumulative_weights: Vec<f64>,
    superstep: u64,
    data_debt: f64,
    /// Reused scratch buffer for the per-pass segment order.
    segment_order: Vec<u32>,
}

/// Executes a [`Spec`] for a cycle budget, emitting into a sink.
#[derive(Debug)]
pub(crate) struct Executor {
    spec: Spec,
    target_cycles: u64,
}

impl Executor {
    pub(crate) fn new(spec: Spec, target_cycles: u64) -> Self {
        spec.validate()
            .expect("workload spec is structurally valid");
        Executor {
            spec,
            target_cycles,
        }
    }

    pub(crate) fn run(&self, sink: &mut dyn TraceSink) {
        let mut rng = SplitMix64::new(self.spec.seed);
        let mut engine = Engine::new(sink);
        let mut pc_counter = 0xD000_0000u64;
        let mut states: Vec<PhaseState> = self
            .spec
            .phases
            .iter()
            .map(|phase| {
                let streams: Vec<DataStream> = phase
                    .streams
                    .iter()
                    .map(|(spec, _)| {
                        pc_counter += 8;
                        DataStream::new(*spec, pc_counter)
                    })
                    .collect();
                let mut acc = 0.0;
                let cumulative_weights = phase
                    .streams
                    .iter()
                    .map(|(_, w)| {
                        acc += w;
                        acc
                    })
                    .collect();
                PhaseState {
                    streams,
                    cumulative_weights,
                    superstep: 0,
                    data_debt: 0.0,
                    segment_order: Vec::new(),
                }
            })
            .collect();

        let mut phase_index = 0;
        while engine.cycle() < self.target_cycles {
            let phase = &self.spec.phases[phase_index];
            let state = &mut states[phase_index];
            let phase_end = (engine.cycle() + phase.duration).min(self.target_cycles);
            while engine.cycle() < phase_end {
                state.superstep += 1;
                for tier in &phase.code {
                    if state.superstep.is_multiple_of(tier.every) {
                        run_pass(&mut engine, tier, phase, state, &mut rng);
                        if engine.cycle() >= phase_end {
                            break;
                        }
                    }
                }
            }
            phase_index = (phase_index + 1) % self.spec.phases.len();
        }
    }
}

/// One pass over a code tier, interleaving data operations.
///
/// With `segment_shuffle == 0` the region runs straight through; with a
/// segment size, segments execute in a per-pass shuffled order.
fn run_pass(
    engine: &mut Engine<'_>,
    tier: &CodeTier,
    phase: &Phase,
    state: &mut PhaseState,
    rng: &mut SplitMix64,
) {
    let blocks = tier.blocks();
    let seg = u64::from(phase.segment_shuffle);
    if seg == 0 || blocks <= seg {
        run_segment(engine, tier, 0, blocks, phase, state, rng);
        return;
    }
    let num_segments = blocks.div_ceil(seg);
    state.segment_order.clear();
    state.segment_order.extend(0..num_segments as u32);
    // Fisher–Yates with the workload RNG: deterministic per pass.
    for i in (1..state.segment_order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        state.segment_order.swap(i, j);
    }
    for index in 0..state.segment_order.len() {
        let segment = u64::from(state.segment_order[index]);
        let start = segment * seg;
        let end = (start + seg).min(blocks);
        run_segment(engine, tier, start, end, phase, state, rng);
    }
}

/// Straight execution of `[start, end)` blocks of a tier.
fn run_segment(
    engine: &mut Engine<'_>,
    tier: &CodeTier,
    start: u64,
    end: u64,
    phase: &Phase,
    state: &mut PhaseState,
    rng: &mut SplitMix64,
) {
    let mut block = start;
    while block < end {
        engine.fetch_block(tier.base + block * 16);
        // Data operations overlap the fetch stream.
        state.data_debt += phase.data_density;
        while state.data_debt >= 1.0 {
            state.data_debt -= 1.0;
            if let Some(stream_index) = pick_stream(&state.cumulative_weights, rng) {
                let op = state.streams[stream_index].next_op(rng);
                engine.data(op.pc, op.addr, op.store);
            }
        }
        // Occasional forward branch: long enough skips can jump a whole
        // cache line, making the landing line's interval non-next-line-
        // prefetchable (the paper's unprefetchable code intervals).
        block += if phase.branchiness > 0.0 && rng.chance(phase.branchiness) {
            2 + rng.below(12)
        } else {
            1
        };
    }
}

fn pick_stream(cumulative: &[f64], rng: &mut SplitMix64) -> Option<usize> {
    let total = *cumulative.last()?;
    let draw = rng.unit() * total;
    Some(
        cumulative
            .partition_point(|&c| c < draw)
            .min(cumulative.len() - 1),
    )
}

/// A runnable benchmark analog: a [`Spec`] bound to a cycle budget.
#[derive(Debug, Clone)]
pub(crate) struct SpecWorkload {
    spec: Spec,
    target_cycles: u64,
}

impl SpecWorkload {
    pub(crate) fn new(spec: Spec, target_cycles: u64) -> Self {
        SpecWorkload {
            spec,
            target_cycles,
        }
    }

    pub(crate) fn name(&self) -> &'static str {
        self.spec.name
    }

    pub(crate) fn spec(&self) -> &Spec {
        &self.spec
    }
}

impl TraceSource for SpecWorkload {
    fn run(&mut self, sink: &mut dyn TraceSink) {
        Executor::new(self.spec.clone(), self.target_cycles).run(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_trace::VecTrace;

    fn tiny_spec() -> Spec {
        Spec {
            name: "tiny",
            seed: 1,
            phases: vec![Phase {
                duration: 1000,
                code: vec![
                    CodeTier {
                        base: 0x1000,
                        bytes: 256,
                        every: 1,
                    },
                    CodeTier {
                        base: 0x8000,
                        bytes: 512,
                        every: 4,
                    },
                ],
                streams: vec![(
                    StreamSpec::Seq {
                        base: 0x10_0000,
                        bytes: 4096,
                        stride: 8,
                        store_frac: 0.1,
                    },
                    1.0,
                )],
                data_density: 0.5,
                branchiness: 0.0,
                segment_shuffle: 16,
            }],
        }
    }

    #[test]
    fn executor_hits_cycle_budget() {
        let mut trace = VecTrace::new();
        Executor::new(tiny_spec(), 5_000).run(&mut trace);
        // An empty trace means the executor emitted nothing at all —
        // report that explicitly instead of unwrapping.
        let Some(last) = trace.stats().last_cycle else {
            panic!("executor produced an empty trace");
        };
        let last = last.raw();
        assert!((4_990..=5_100).contains(&last), "last cycle {last}");
        // Roughly half the cycles carry a data op.
        let data = trace.stats().data_accesses() as f64;
        let fetches = trace.stats().fetches as f64;
        assert!((data / fetches - 0.5).abs() < 0.05);
    }

    #[test]
    fn deterministic_replay() {
        let mut a = VecTrace::new();
        let mut b = VecTrace::new();
        Executor::new(tiny_spec(), 2_000).run(&mut a);
        Executor::new(tiny_spec(), 2_000).run(&mut b);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn cold_tier_runs_once_per_every_supersteps() {
        let mut trace = VecTrace::new();
        Executor::new(tiny_spec(), 4_000).run(&mut trace);
        let cold_fetches = trace
            .iter()
            .filter(|e| e.kind.is_fetch() && e.addr.raw() >= 0x8000 && e.addr.raw() < 0x8200)
            .count() as f64;
        let hot_fetches = trace
            .iter()
            .filter(|e| e.kind.is_fetch() && e.addr.raw() < 0x2000)
            .count() as f64;
        // Hot tier: 16 blocks every superstep; cold: 32 blocks every 4th.
        let ratio = cold_fetches / hot_fetches;
        assert!((ratio - 0.5).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn branchiness_skips_blocks() {
        let mut spec = tiny_spec();
        spec.phases[0].branchiness = 0.5;
        let mut trace = VecTrace::new();
        Executor::new(spec, 2_000).run(&mut trace);
        // With heavy branchiness some hot blocks are skipped in a pass:
        // consecutive fetch addresses sometimes jump by more than 16.
        let mut jumps = 0;
        let fetches: Vec<u64> = trace
            .iter()
            .filter(|e| e.kind.is_fetch() && e.addr.raw() < 0x2000)
            .map(|e| e.addr.raw())
            .collect();
        for pair in fetches.windows(2) {
            if pair[1] > pair[0] + 16 {
                jumps += 1;
            }
        }
        assert!(jumps > 10, "expected forward branches, saw {jumps}");
    }

    #[test]
    fn validation_errors() {
        let mut s = tiny_spec();
        s.phases[0].code[0].every = 3;
        assert!(s.validate().unwrap_err().contains("hot tier"));

        let mut s = tiny_spec();
        s.phases[0].duration = 0;
        assert!(s.validate().unwrap_err().contains("duration"));

        let mut s = tiny_spec();
        s.phases.clear();
        assert!(s.validate().unwrap_err().contains("no phases"));

        let mut s = tiny_spec();
        s.phases[0].streams[0].1 = 0.0;
        assert!(s.validate().unwrap_err().contains("weight"));

        let mut s = tiny_spec();
        s.phases[0].streams.clear();
        assert!(s.validate().unwrap_err().contains("without streams"));
    }
}
