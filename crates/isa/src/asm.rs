//! A two-pass assembler for `.lasm` program text.
//!
//! Grammar, one statement per line:
//!
//! ```text
//! line      := [label ':'] [instr] [';' comment]
//! instr     := mnemonic operands
//! operands  := reg ',' reg ',' reg            ; add sub and or xor slt sll srl mul
//!            | reg ',' reg ',' imm            ; addi subi andi ori xori slti slli srli muli, jalr
//!            | reg ',' imm                    ; lui
//!            | reg ',' imm '(' reg ')'        ; lw rd, off(rs1) / sw rs2, off(rs1)
//!            | reg ',' reg ',' target         ; beq bne blt bge
//!            | reg ',' target                 ; jal
//!            |                                ; halt
//! target    := label | imm                    ; labels resolve pc-relative
//! imm       := ['-'] digits | '0x' hexdigits
//! ```
//!
//! `#` also introduces a comment. Labels are case-sensitive
//! identifiers; registers are `r0`..`r15`. Branch/`jal` label operands
//! assemble to the signed instruction-count difference between the
//! label and the referencing instruction.

use crate::instr::{AluOp, BranchCond, Imm14, Instr, Reg};
use std::collections::HashMap;
use std::fmt;

/// An assembly failure, annotated with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError {
        line,
        message: message.into(),
    })
}

/// An operand that may still be a label reference after pass one.
#[derive(Debug, Clone)]
enum Target {
    Imm(i64),
    Label(String),
}

/// One instruction as parsed in pass one, before label resolution.
#[derive(Debug, Clone)]
enum Parsed {
    Ready(Instr),
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: Target,
    },
    Jal {
        rd: Reg,
        target: Target,
    },
}

/// Assembles `.lasm` source into an instruction sequence.
///
/// # Errors
///
/// [`AsmError`] names the first offending line: unknown mnemonics,
/// malformed operands, duplicate or unknown labels, and immediates or
/// branch displacements outside the 14-bit range.
pub fn assemble(source: &str) -> Result<Vec<Instr>, AsmError> {
    let mut labels: HashMap<String, i64> = HashMap::new();
    let mut parsed: Vec<(usize, Parsed)> = Vec::new();

    for (index, raw) in source.lines().enumerate() {
        let line = index + 1;
        let mut text = raw;
        if let Some(at) = text.find([';', '#']) {
            text = &text[..at];
        }
        let mut text = text.trim();
        if let Some(colon) = text.find(':') {
            let label = text[..colon].trim();
            if !is_ident(label) {
                return err(line, format!("bad label {label:?}"));
            }
            if labels
                .insert(label.to_string(), parsed.len() as i64)
                .is_some()
            {
                return err(line, format!("duplicate label {label:?}"));
            }
            text = text[colon + 1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        parsed.push((line, parse_instr(line, text)?));
    }

    let mut program = Vec::with_capacity(parsed.len());
    for (pc, (line, instr)) in parsed.iter().enumerate() {
        let resolve = |target: &Target| -> Result<Imm14, AsmError> {
            let value = match target {
                Target::Imm(value) => *value,
                Target::Label(name) => match labels.get(name) {
                    Some(at) => at - pc as i64,
                    None => return err(*line, format!("unknown label {name:?}")),
                },
            };
            match Imm14::new(value) {
                Some(imm) => Ok(imm),
                None => err(*line, format!("displacement {value} out of 14-bit range")),
            }
        };
        program.push(match instr {
            Parsed::Ready(instr) => *instr,
            Parsed::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Instr::Branch {
                cond: *cond,
                rs1: *rs1,
                rs2: *rs2,
                imm: resolve(target)?,
            },
            Parsed::Jal { rd, target } => Instr::Jal {
                rd: *rd,
                imm: resolve(target)?,
            },
        });
    }
    Ok(program)
}

fn is_ident(text: &str) -> bool {
    !text.is_empty()
        && text.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !text.starts_with(|c: char| c.is_ascii_digit())
}

fn parse_instr(line: usize, text: &str) -> Result<Parsed, AsmError> {
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, rest)) => (m, rest.trim()),
        None => (text, ""),
    };
    let ops: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };

    let alu_reg = |op: AluOp| -> Result<Parsed, AsmError> {
        let [rd, rs1, rs2] = expect_ops::<3>(line, mnemonic, &ops)?;
        Ok(Parsed::Ready(Instr::Alu {
            op,
            rd: reg(line, rd)?,
            rs1: reg(line, rs1)?,
            rs2: reg(line, rs2)?,
        }))
    };
    let alu_imm = |op: AluOp| -> Result<Parsed, AsmError> {
        let [rd, rs1, imm] = expect_ops::<3>(line, mnemonic, &ops)?;
        Ok(Parsed::Ready(Instr::AluImm {
            op,
            rd: reg(line, rd)?,
            rs1: reg(line, rs1)?,
            imm: imm14(line, imm)?,
        }))
    };
    let branch = |cond: BranchCond| -> Result<Parsed, AsmError> {
        let [rs1, rs2, target] = expect_ops::<3>(line, mnemonic, &ops)?;
        Ok(Parsed::Branch {
            cond,
            rs1: reg(line, rs1)?,
            rs2: reg(line, rs2)?,
            target: target_ref(line, target)?,
        })
    };

    match mnemonic {
        "add" => alu_reg(AluOp::Add),
        "sub" => alu_reg(AluOp::Sub),
        "and" => alu_reg(AluOp::And),
        "or" => alu_reg(AluOp::Or),
        "xor" => alu_reg(AluOp::Xor),
        "slt" => alu_reg(AluOp::Slt),
        "sll" => alu_reg(AluOp::Sll),
        "srl" => alu_reg(AluOp::Srl),
        "mul" => alu_reg(AluOp::Mul),
        "addi" => alu_imm(AluOp::Add),
        "subi" => alu_imm(AluOp::Sub),
        "andi" => alu_imm(AluOp::And),
        "ori" => alu_imm(AluOp::Or),
        "xori" => alu_imm(AluOp::Xor),
        "slti" => alu_imm(AluOp::Slt),
        "slli" => alu_imm(AluOp::Sll),
        "srli" => alu_imm(AluOp::Srl),
        "muli" => alu_imm(AluOp::Mul),
        "lui" => {
            let [rd, imm] = expect_ops::<2>(line, mnemonic, &ops)?;
            Ok(Parsed::Ready(Instr::Lui {
                rd: reg(line, rd)?,
                imm: imm14(line, imm)?,
            }))
        }
        "lw" => {
            let [rd, mem] = expect_ops::<2>(line, mnemonic, &ops)?;
            let (imm, rs1) = mem_operand(line, mem)?;
            Ok(Parsed::Ready(Instr::Lw {
                rd: reg(line, rd)?,
                rs1,
                imm,
            }))
        }
        "sw" => {
            let [rs2, mem] = expect_ops::<2>(line, mnemonic, &ops)?;
            let (imm, rs1) = mem_operand(line, mem)?;
            Ok(Parsed::Ready(Instr::Sw {
                rs2: reg(line, rs2)?,
                rs1,
                imm,
            }))
        }
        "beq" => branch(BranchCond::Eq),
        "bne" => branch(BranchCond::Ne),
        "blt" => branch(BranchCond::Lt),
        "bge" => branch(BranchCond::Ge),
        "jal" => {
            let [rd, target] = expect_ops::<2>(line, mnemonic, &ops)?;
            Ok(Parsed::Jal {
                rd: reg(line, rd)?,
                target: target_ref(line, target)?,
            })
        }
        "jalr" => {
            let [rd, rs1, imm] = expect_ops::<3>(line, mnemonic, &ops)?;
            Ok(Parsed::Ready(Instr::Jalr {
                rd: reg(line, rd)?,
                rs1: reg(line, rs1)?,
                imm: imm14(line, imm)?,
            }))
        }
        "halt" => {
            expect_ops::<0>(line, mnemonic, &ops)?;
            Ok(Parsed::Ready(Instr::Halt))
        }
        other => err(line, format!("unknown mnemonic {other:?}")),
    }
}

fn expect_ops<'a, const N: usize>(
    line: usize,
    mnemonic: &str,
    ops: &[&'a str],
) -> Result<[&'a str; N], AsmError> {
    match <[&str; N]>::try_from(ops.to_vec()) {
        Ok(ops) => Ok(ops),
        Err(_) => err(
            line,
            format!("{mnemonic} takes {N} operand(s), got {}", ops.len()),
        ),
    }
}

fn reg(line: usize, text: &str) -> Result<Reg, AsmError> {
    let index = text
        .strip_prefix('r')
        .and_then(|digits| digits.parse::<u8>().ok())
        .and_then(Reg::new);
    match index {
        Some(reg) => Ok(reg),
        None => err(line, format!("bad register {text:?}")),
    }
}

fn integer(text: &str) -> Option<i64> {
    let (negative, digits) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text),
    };
    let magnitude = match digits.strip_prefix("0x") {
        Some(hex) => i64::from_str_radix(hex, 16).ok()?,
        None => digits.parse::<i64>().ok()?,
    };
    Some(if negative { -magnitude } else { magnitude })
}

fn imm14(line: usize, text: &str) -> Result<Imm14, AsmError> {
    match integer(text).and_then(Imm14::new) {
        Some(imm) => Ok(imm),
        None => err(line, format!("bad 14-bit immediate {text:?}")),
    }
}

/// Parses the `imm(rs1)` memory operand of `lw`/`sw`.
fn mem_operand(line: usize, text: &str) -> Result<(Imm14, Reg), AsmError> {
    let inner = text.strip_suffix(')').and_then(|rest| rest.split_once('('));
    match inner {
        Some((offset, base)) => Ok((imm14(line, offset.trim())?, reg(line, base.trim())?)),
        None => err(line, format!("bad memory operand {text:?}, want imm(reg)")),
    }
}

fn target_ref(line: usize, text: &str) -> Result<Target, AsmError> {
    if let Some(value) = integer(text) {
        return Ok(Target::Imm(value));
    }
    if is_ident(text) {
        return Ok(Target::Label(text.to_string()));
    }
    err(line, format!("bad branch target {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_every_format() {
        let program = assemble(
            "\
            ; a comment-only line\n\
            start:  addi r1, r0, 5      ; trailing comment\n\
                    lui  r2, 0x10\n\
                    add  r3, r1, r2\n\
            loop:   lw   r4, 8(r3)\n\
                    sw   r4, -1(r3)\n\
                    subi r1, r1, 1\n\
                    bne  r1, r0, loop\n\
                    jal  r5, start\n\
                    jalr r0, r5, 0\n\
                    halt\n",
        )
        .expect("assembles");
        assert_eq!(program.len(), 10);
        // The backward branch targets `loop` at index 3, from index 6.
        assert!(matches!(
            program[6],
            Instr::Branch { imm, .. } if imm.get() == -3
        ));
        // `jal` back to index 0 from index 7.
        assert!(matches!(program[7], Instr::Jal { imm, .. } if imm.get() == -7));
        assert!(matches!(program[9], Instr::Halt));
    }

    #[test]
    fn reports_line_numbers() {
        let error = assemble("addi r1, r0, 1\nfrobnicate r1\n").unwrap_err();
        assert_eq!(error.line, 2);
        assert!(error.to_string().contains("frobnicate"));
    }

    #[test]
    fn rejects_bad_operands() {
        assert!(assemble("addi r1, r0\n").is_err());
        assert!(assemble("add r1, r0, 5\n").is_err());
        assert!(assemble("addi r1, r0, 8192\n").is_err());
        assert!(assemble("addi r99, r0, 1\n").is_err());
        assert!(assemble("lw r1, 4[r2]\n").is_err());
        assert!(assemble("halt r1\n").is_err());
    }

    #[test]
    fn rejects_label_problems() {
        assert!(assemble("beq r0, r0, nowhere\n").is_err());
        assert!(assemble("x: halt\nx: halt\n").is_err());
        assert!(assemble("9bad: halt\n").is_err());
    }

    #[test]
    fn numeric_branch_targets_are_relative() {
        let program = assemble("beq r0, r0, 2\nhalt\nhalt\n").expect("assembles");
        assert!(matches!(
            program[0],
            Instr::Branch { imm, .. } if imm.get() == 2
        ));
    }
}
