//! The instruction set: registers, 14-bit immediates, ALU operations,
//! branch predicates and the [`Instr`] values the assembler produces
//! and the [`Machine`](crate::Machine) executes.

use std::fmt;

/// Number of architectural registers. `r0` is hardwired to zero.
pub const NUM_REGS: usize = 16;

/// An architectural register, `r0` through `r15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The zero register: reads as 0, writes are discarded.
    pub const R0: Reg = Reg(0);

    /// Creates a register from its index, if in range.
    pub fn new(index: u8) -> Option<Reg> {
        ((index as usize) < NUM_REGS).then_some(Reg(index))
    }

    /// The register's index, `0..16`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A 14-bit signed immediate, `-8192..=8191`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Imm14(i16);

impl Imm14 {
    /// Smallest representable immediate.
    pub const MIN: i64 = -(1 << 13);
    /// Largest representable immediate.
    pub const MAX: i64 = (1 << 13) - 1;
    /// The zero immediate.
    pub const ZERO: Imm14 = Imm14(0);

    /// Creates an immediate if the value fits in 14 signed bits.
    pub fn new(value: i64) -> Option<Imm14> {
        (Imm14::MIN..=Imm14::MAX)
            .contains(&value)
            .then_some(Imm14(value as i16))
    }

    /// The immediate's value.
    pub fn get(self) -> i64 {
        self.0 as i64
    }
}

impl fmt::Display for Imm14 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Arithmetic/logic operations, shared by the register and immediate
/// instruction forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Signed less-than, producing 0 or 1.
    Slt,
    /// Logical shift left by the low 6 bits of the operand.
    Sll,
    /// Logical shift right by the low 6 bits of the operand.
    Srl,
    /// Wrapping multiplication (2-cycle latency).
    Mul,
}

/// Branch comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Taken when `rs1 == rs2`.
    Eq,
    /// Taken when `rs1 != rs2`.
    Ne,
    /// Taken when `rs1 < rs2`, signed.
    Lt,
    /// Taken when `rs1 >= rs2`, signed.
    Ge,
}

/// One instruction.
///
/// Branch, [`Instr::Jal`] and [`Instr::Sw`]/[`Instr::Lw`] immediates
/// are in *instruction* and *word* units respectively — the ISA is
/// word-addressed; byte addresses appear only in the emitted trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `rd = op(rs1, rs2)`.
    Alu {
        /// Operation applied.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = op(rs1, sext(imm))`.
    AluImm {
        /// Operation applied.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Immediate operand, sign-extended.
        imm: Imm14,
    },
    /// `rd = sext(imm) << 14` — builds constants beyond 14 bits.
    Lui {
        /// Destination register.
        rd: Reg,
        /// Immediate shifted into the upper bits.
        imm: Imm14,
    },
    /// `rd = mem[(rs1 + sext(imm)) mod words]`.
    Lw {
        /// Destination register.
        rd: Reg,
        /// Base address register (word units).
        rs1: Reg,
        /// Word offset.
        imm: Imm14,
    },
    /// `mem[(rs1 + sext(imm)) mod words] = rs2`.
    Sw {
        /// Register stored.
        rs2: Reg,
        /// Base address register (word units).
        rs1: Reg,
        /// Word offset.
        imm: Imm14,
    },
    /// `if cond(rs1, rs2) { pc += sext(imm) }` — pc-relative, in
    /// instruction units, relative to the branch itself.
    Branch {
        /// Comparison predicate.
        cond: BranchCond,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Relative target, in instructions.
        imm: Imm14,
    },
    /// `rd = pc + 1; pc += sext(imm)`; link is an instruction index.
    Jal {
        /// Link register.
        rd: Reg,
        /// Relative target, in instructions.
        imm: Imm14,
    },
    /// `rd = pc + 1; pc = rs1 + sext(imm)`; absolute instruction index.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register holding an instruction index.
        rs1: Reg,
        /// Offset, in instructions.
        imm: Imm14,
    },
    /// Stops execution.
    Halt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_range_is_enforced() {
        assert!(Imm14::new(8191).is_some());
        assert!(Imm14::new(8192).is_none());
        assert!(Imm14::new(-8192).is_some());
        assert!(Imm14::new(-8193).is_none());
        assert_eq!(Imm14::new(-1).unwrap().get(), -1);
    }

    #[test]
    fn registers_display_and_bound() {
        assert!(Reg::new(15).is_some());
        assert!(Reg::new(16).is_none());
        assert_eq!(Reg::new(7).unwrap().to_string(), "r7");
        assert_eq!(Reg::R0.index(), 0);
    }
}
