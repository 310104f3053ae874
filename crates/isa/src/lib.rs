//! A small deterministic RISC-style simulator whose executed programs
//! feed timed instruction-fetch and data access events into the
//! leakage pipeline.
//!
//! The paper's interval and prefetchability analyses consume access
//! traces; the synthetic workload generators approximate program
//! behavior statistically, while this crate *executes* real control
//! flow: a 16-register instruction set ([`instr`]), a two-pass assembler
//! for `.lasm` text ([`asm`]), a word-addressed machine with a simple
//! cycle model ([`machine`]), and a six-program library ([`programs`])
//! adapted to [`leakage_trace::TraceSource`] by [`IsaSource`].
//!
//! Everything is deterministic: the same program and seed produce the
//! same event stream, byte for byte, on every run and thread count.
//!
//! # Examples
//!
//! ```
//! use leakage_isa::{assemble, IsaSource, Machine};
//! use leakage_trace::{TraceSource, VecTrace};
//!
//! // Run a hand-written fragment...
//! let program = assemble("addi r1, r0, 3\nsw r1, 0(r0)\nhalt\n").unwrap();
//! let mut machine = Machine::new(program, vec![0]);
//! let mut trace = VecTrace::new();
//! machine.run(&mut trace, 1_000);
//! assert_eq!(trace.stats().stores, 1);
//!
//! // ...or a library benchmark for a cycle budget.
//! let program = leakage_isa::program_by_name("isa:chase").unwrap();
//! let mut trace = VecTrace::new();
//! IsaSource::new(program, 10_000, 42).run(&mut trace);
//! assert!(trace.stats().loads > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod instr;
pub mod machine;
pub mod programs;
mod source;

pub use asm::{assemble, AsmError};
pub use instr::{AluOp, BranchCond, Imm14, Instr, Reg};
pub use machine::{ExecStats, Machine, CODE_BASE, DATA_BASE, INSTR_BYTES, WORD_BYTES};
pub use programs::{by_name as program_by_name, Program, DATA_WORDS, PROGRAMS, PROGRAM_NAMES};
pub use source::IsaSource;
