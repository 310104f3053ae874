//! The execution engine: registers, word-addressed data memory, and
//! the cycle model, emitting one timed trace event per instruction
//! fetch and per data access.
//!
//! # Cycle model
//!
//! Each instruction issues its fetch at the current cycle and then
//! advances the clock by its latency:
//!
//! | instruction            | latency | data event                |
//! |------------------------|---------|---------------------------|
//! | ALU, `lui`             | 1       | —                         |
//! | `mul`/`muli`           | 2       | —                         |
//! | `lw` / `sw`            | 2       | at fetch cycle + 1        |
//! | branch, not taken      | 1       | —                         |
//! | branch, taken          | 3       | —                         |
//! | `jal` / `jalr`         | 2       | —                         |
//! | `halt`                 | 1       | —                         |
//!
//! Taken control flow pays a two-cycle redirect bubble; loads and
//! stores touch memory in the cycle after their fetch. The clock never
//! moves backwards, so emitted events are in non-decreasing cycle
//! order as [`leakage_trace::TraceSink`] requires.

use crate::instr::{AluOp, BranchCond, Instr, Reg, NUM_REGS};
use leakage_trace::{Address, Cycle, MemoryAccess, Pc, TraceSink};

/// Byte address of instruction index 0 in the emitted fetch stream.
pub const CODE_BASE: u64 = 0x0200_0000;
/// Byte address of data word 0 in the emitted load/store stream.
pub const DATA_BASE: u64 = 0x5000_0000;
/// Bytes per instruction in the fetch stream.
pub const INSTR_BYTES: u64 = 4;
/// Bytes per data word in the load/store stream.
pub const WORD_BYTES: u64 = 8;

/// Totals from one [`Machine::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles the clock advanced.
    pub cycles: u64,
    /// Loads performed.
    pub loads: u64,
    /// Stores performed.
    pub stores: u64,
    /// Whether execution ended by `halt` (or by running off the end of
    /// the program, which is treated the same) rather than by the
    /// caller's instruction budget.
    pub halted: bool,
}

/// A loaded program plus its machine state.
///
/// Data memory is a power-of-two number of 64-bit words; effective
/// addresses wrap modulo its size, so no program access is out of
/// bounds. `r0` reads as zero and ignores writes.
#[derive(Debug, Clone)]
pub struct Machine {
    program: Vec<Instr>,
    data: Vec<u64>,
    mask: u64,
    regs: [u64; NUM_REGS],
    pc: u64,
    cycle: Cycle,
}

impl Machine {
    /// Creates a machine over `program` with the given data image,
    /// clock at zero. The data image is padded with zeros up to the
    /// next power-of-two word count (minimum one word).
    pub fn new(program: Vec<Instr>, mut data: Vec<u64>) -> Machine {
        let words = data.len().next_power_of_two().max(1);
        data.resize(words, 0);
        Machine {
            program,
            mask: words as u64 - 1,
            data,
            regs: [0; NUM_REGS],
            pc: 0,
            cycle: Cycle::ZERO,
        }
    }

    /// Moves the clock, e.g. to continue a previous run's timeline.
    pub fn set_cycle(&mut self, cycle: Cycle) {
        self.cycle = cycle;
    }

    /// The current clock value.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Reads an architectural register.
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.index()]
    }

    /// The data memory image (padded length; see [`Machine::new`]).
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    fn write_reg(&mut self, reg: Reg, value: u64) {
        if reg.index() != 0 {
            self.regs[reg.index()] = value;
        }
    }

    fn alu(op: AluOp, a: u64, b: u64) -> u64 {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sll => a << (b & 63),
            AluOp::Srl => a >> (b & 63),
            AluOp::Mul => a.wrapping_mul(b),
        }
    }

    /// Executes until `halt`, falling off the end of the program, or
    /// `max_instructions` retirements, streaming fetch and data events
    /// into `sink`. The clock keeps its final value, so a later `run`
    /// (of this or another machine seeded via [`Machine::set_cycle`])
    /// continues the same timeline.
    pub fn run(&mut self, sink: &mut dyn TraceSink, max_instructions: u64) -> ExecStats {
        let start = self.cycle;
        let mut stats = ExecStats::default();
        while stats.instructions < max_instructions {
            let Some(&instr) = self.program.get(self.pc as usize) else {
                stats.halted = true;
                break;
            };
            sink.accept(MemoryAccess::fetch(
                self.cycle,
                Pc::new(CODE_BASE + self.pc * INSTR_BYTES),
            ));
            stats.instructions += 1;
            let pc = Pc::new(CODE_BASE + self.pc * INSTR_BYTES);
            let mut next_pc = self.pc.wrapping_add(1);
            let latency = match instr {
                Instr::Alu { op, rd, rs1, rs2 } => {
                    let value = Machine::alu(op, self.reg(rs1), self.reg(rs2));
                    self.write_reg(rd, value);
                    if op == AluOp::Mul {
                        2
                    } else {
                        1
                    }
                }
                Instr::AluImm { op, rd, rs1, imm } => {
                    let value = Machine::alu(op, self.reg(rs1), imm.get() as u64);
                    self.write_reg(rd, value);
                    if op == AluOp::Mul {
                        2
                    } else {
                        1
                    }
                }
                Instr::Lui { rd, imm } => {
                    self.write_reg(rd, (imm.get() << 14) as u64);
                    1
                }
                Instr::Lw { rd, rs1, imm } => {
                    let word = self.reg(rs1).wrapping_add(imm.get() as u64) & self.mask;
                    sink.accept(MemoryAccess::load(
                        self.cycle.advanced(1),
                        pc,
                        Address::new(DATA_BASE + word * WORD_BYTES),
                    ));
                    self.write_reg(rd, self.data[word as usize]);
                    stats.loads += 1;
                    2
                }
                Instr::Sw { rs2, rs1, imm } => {
                    let word = self.reg(rs1).wrapping_add(imm.get() as u64) & self.mask;
                    sink.accept(MemoryAccess::store(
                        self.cycle.advanced(1),
                        pc,
                        Address::new(DATA_BASE + word * WORD_BYTES),
                    ));
                    self.data[word as usize] = self.reg(rs2);
                    stats.stores += 1;
                    2
                }
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    imm,
                } => {
                    let (a, b) = (self.reg(rs1), self.reg(rs2));
                    let taken = match cond {
                        BranchCond::Eq => a == b,
                        BranchCond::Ne => a != b,
                        BranchCond::Lt => (a as i64) < (b as i64),
                        BranchCond::Ge => (a as i64) >= (b as i64),
                    };
                    if taken {
                        next_pc = self.pc.wrapping_add(imm.get() as u64);
                        3
                    } else {
                        1
                    }
                }
                Instr::Jal { rd, imm } => {
                    self.write_reg(rd, self.pc.wrapping_add(1));
                    next_pc = self.pc.wrapping_add(imm.get() as u64);
                    2
                }
                Instr::Jalr { rd, rs1, imm } => {
                    next_pc = self.reg(rs1).wrapping_add(imm.get() as u64);
                    self.write_reg(rd, self.pc.wrapping_add(1));
                    2
                }
                Instr::Halt => {
                    self.cycle = self.cycle.advanced(1);
                    stats.halted = true;
                    break;
                }
            };
            self.pc = next_pc;
            self.cycle = self.cycle.advanced(latency);
        }
        stats.cycles = self.cycle.since(start);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use leakage_trace::{AccessKind, VecTrace};

    fn run_source(source: &str, data: Vec<u64>) -> (Machine, VecTrace, ExecStats) {
        let mut machine = Machine::new(assemble(source).expect("assembles"), data);
        let mut trace = VecTrace::new();
        let stats = machine.run(&mut trace, 1_000_000);
        (machine, trace, stats)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (machine, trace, stats) = run_source(
            "addi r1, r0, 6\n\
             muli r2, r1, 7\n\
             halt\n",
            vec![],
        );
        assert_eq!(machine.reg(Reg::new(2).unwrap()), 42);
        assert!(stats.halted);
        assert_eq!(stats.instructions, 3);
        // 1 (addi) + 2 (muli) + 1 (halt) cycles.
        assert_eq!(stats.cycles, 4);
        assert_eq!(trace.stats().fetches, 3);
    }

    #[test]
    fn loads_and_stores_hit_data_space_one_cycle_late() {
        let (machine, trace, stats) = run_source(
            "lw r1, 0(r0)\n\
             sw r1, 1(r0)\n\
             halt\n",
            vec![99, 0],
        );
        assert_eq!(machine.data()[1], 99);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 1);
        let events = trace.events();
        // fetch@0, load@1, fetch@2, store@3, fetch@4.
        assert_eq!(events.len(), 5);
        assert_eq!(events[1].kind, AccessKind::Load);
        assert_eq!(events[1].cycle, Cycle::new(1));
        assert_eq!(events[1].addr.raw(), DATA_BASE);
        assert_eq!(events[3].kind, AccessKind::Store);
        assert_eq!(events[3].cycle, Cycle::new(3));
        assert_eq!(events[3].addr.raw(), DATA_BASE + WORD_BYTES);
    }

    #[test]
    fn taken_branches_cost_a_bubble() {
        // Not-taken branch: 1 cycle; taken branch: 3 cycles.
        let (_, _, stats) = run_source("beq r0, r0, 2\nhalt\nhalt\n", vec![]);
        assert_eq!(stats.instructions, 2);
        assert_eq!(stats.cycles, 3 + 1);
        let (_, _, stats) = run_source("bne r0, r0, 2\nhalt\n", vec![]);
        assert_eq!(stats.instructions, 2);
        assert_eq!(stats.cycles, 1 + 1);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        let (machine, _, stats) = run_source(
            "jal r1, 3\n\
             addi r2, r2, 1\n\
             halt\n\
             jalr r0, r1, 0\n",
            vec![],
        );
        assert!(stats.halted);
        assert_eq!(machine.reg(Reg::new(1).unwrap()), 1);
        assert_eq!(machine.reg(Reg::new(2).unwrap()), 1);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (machine, _, _) = run_source("addi r0, r0, 7\nhalt\n", vec![]);
        assert_eq!(machine.reg(Reg::R0), 0);
    }

    #[test]
    fn addresses_wrap_modulo_memory_size() {
        // Two-word memory: offset 5 wraps to word 1.
        let (machine, _, _) = run_source("addi r1, r0, 1\nsw r1, 5(r0)\nhalt\n", vec![0, 0]);
        assert_eq!(machine.data(), &[0, 1]);
    }

    #[test]
    fn running_off_the_end_halts() {
        let (_, _, stats) = run_source("addi r1, r0, 1\n", vec![]);
        assert!(stats.halted);
        assert_eq!(stats.instructions, 1);
    }

    #[test]
    fn instruction_budget_pauses_without_halt() {
        let mut machine = Machine::new(assemble("loop: jal r0, loop\n").unwrap(), vec![]);
        let stats = machine.run(&mut Vec::new(), 10);
        assert!(!stats.halted);
        assert_eq!(stats.instructions, 10);
        assert_eq!(stats.cycles, 20);
    }

    #[test]
    fn clock_persists_across_runs() {
        let mut machine = Machine::new(assemble("halt\n").unwrap(), vec![]);
        machine.set_cycle(Cycle::new(100));
        let mut trace = VecTrace::new();
        machine.run(&mut trace, 10);
        assert_eq!(trace.events()[0].cycle, Cycle::new(100));
        assert_eq!(machine.cycle(), Cycle::new(101));
    }
}
