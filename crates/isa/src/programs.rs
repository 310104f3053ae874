//! The executed-program library: six deterministic `.lasm` programs
//! with seeded data images.
//!
//! Each program owns a 4096-word (32 KiB) data arena; its seeded
//! initializer fills the region the program reads. All programs halt
//! on their own, and their instruction counts are small enough that a
//! single execution finishes in well under a million cycles — the
//! workload adapter re-runs them with fresh per-iteration seeds to
//! fill a cycle budget.

use crate::asm::assemble;
use crate::instr::Instr;

/// Words in every program's data arena (power of two).
pub const DATA_WORDS: usize = 4096;

/// Benchmark names served by this crate, all `isa:`-prefixed.
pub const PROGRAM_NAMES: [&str; 6] = [
    "isa:matmul",
    "isa:isort",
    "isa:msort",
    "isa:chase",
    "isa:memset",
    "isa:memcpy",
];

/// One library program: `.lasm` text plus its seeded data initializer.
pub struct Program {
    /// Benchmark name, `isa:`-prefixed.
    pub name: &'static str,
    /// One-line description for catalogs and docs.
    pub summary: &'static str,
    /// The `.lasm` source text.
    pub source: &'static str,
    init: fn(&mut SplitMix64, &mut [u64]),
}

impl Program {
    /// Assembles the program text. Library programs are covered by
    /// tests, so this cannot fail for the shipped corpus.
    pub fn assemble(&self) -> Vec<Instr> {
        assemble(self.source).expect("library program assembles")
    }

    /// Builds the seeded data image for one execution.
    pub fn data_image(&self, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut data = vec![0u64; DATA_WORDS];
        (self.init)(&mut rng, &mut data);
        data
    }
}

/// Looks a program up by its `isa:`-prefixed benchmark name.
pub fn by_name(name: &str) -> Option<&'static Program> {
    PROGRAMS.iter().find(|program| program.name == name)
}

/// The full program library, in [`PROGRAM_NAMES`] order.
pub static PROGRAMS: [Program; 6] = [
    Program {
        name: "isa:matmul",
        summary: "8x8 dense matrix multiply, row-major, triple loop",
        source: MATMUL,
        init: |rng, data| fill(rng, &mut data[..128]),
    },
    Program {
        name: "isa:isort",
        summary: "insertion sort of 64 words, signed order",
        source: ISORT,
        init: |rng, data| fill(rng, &mut data[..64]),
    },
    Program {
        name: "isa:msort",
        summary: "bottom-up merge sort of 128 words with a scratch half",
        source: MSORT,
        init: |rng, data| fill(rng, &mut data[..128]),
    },
    Program {
        name: "isa:chase",
        summary: "pointer chase over a seeded single-cycle linked arena",
        source: CHASE,
        init: |rng, data| sattolo(rng, data),
    },
    Program {
        name: "isa:memset",
        summary: "streaming store of a seeded pattern over 2048 words",
        source: MEMSET,
        init: |rng, data| data[0] = rng.next(),
    },
    Program {
        name: "isa:memcpy",
        summary: "streaming copy of 1024 words to a disjoint region",
        source: MEMCPY,
        init: |rng, data| fill(rng, &mut data[..1024]),
    },
];

fn fill(rng: &mut SplitMix64, words: &mut [u64]) {
    for word in words {
        *word = rng.next();
    }
}

/// Sattolo's algorithm: a uniform single-cycle permutation, so the
/// chase visits every arena word exactly once per lap.
fn sattolo(rng: &mut SplitMix64, data: &mut [u64]) {
    for (index, word) in data.iter_mut().enumerate() {
        *word = index as u64;
    }
    let mut i = data.len() - 1;
    while i > 0 {
        let j = (rng.next() % i as u64) as usize;
        data.swap(i, j);
        i -= 1;
    }
}

/// The same splitmix64 stream the synthetic workloads use, kept local
/// so this crate stays dependency-light.
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// 8x8 matmul: A at word 0, B at 64, C at 128.
const MATMUL: &str = "\
; C[i][j] = sum_k A[i][k] * B[k][j], N = 8
; r1=i r2=j r3=k r4=acc r5/r6 operands r7 flag
        addi r1, r0, 0
iloop:  addi r2, r0, 0
jloop:  addi r3, r0, 0
        addi r4, r0, 0
kloop:  muli r5, r1, 8
        add  r5, r5, r3
        lw   r5, 0(r5)          ; A[i*8+k]
        muli r6, r3, 8
        add  r6, r6, r2
        lw   r6, 64(r6)         ; B[k*8+j]
        mul  r5, r5, r6
        add  r4, r4, r5
        addi r3, r3, 1
        slti r7, r3, 8
        bne  r7, r0, kloop
        muli r5, r1, 8
        add  r5, r5, r2
        sw   r4, 128(r5)        ; C[i*8+j]
        addi r2, r2, 1
        slti r7, r2, 8
        bne  r7, r0, jloop
        addi r1, r1, 1
        slti r7, r1, 8
        bne  r7, r0, iloop
        halt
";

/// Insertion sort: 64 words at word 0, signed order.
const ISORT: &str = "\
; r1=i r2=key r3=j r4=flag r5=j-1 r6=a[j-1]
        addi r1, r0, 1
outer:  lw   r2, 0(r1)
        add  r3, r0, r1
inner:  slti r4, r3, 1
        bne  r4, r0, place
        addi r5, r3, -1
        lw   r6, 0(r5)
        slt  r4, r2, r6
        beq  r4, r0, place
        sw   r6, 0(r3)
        addi r3, r3, -1
        jal  r0, inner
place:  sw   r2, 0(r3)
        addi r1, r1, 1
        slti r4, r1, 64
        bne  r4, r0, outer
        halt
";

/// Bottom-up merge sort: 128 words at word 0, scratch at word 128.
const MSORT: &str = "\
; r1=width r2=lo r3=mid r4=hi r5=i r6=j r7=k r8/r9 temps r10=n
        addi r10, r0, 128
        addi r1, r0, 1
wloop:  addi r2, r0, 0
lloop:  add  r3, r2, r1         ; mid = min(lo+width, n)
        slt  r8, r10, r3
        beq  r8, r0, midok
        add  r3, r0, r10
midok:  add  r4, r3, r1         ; hi = min(mid+width, n)
        slt  r8, r10, r4
        beq  r8, r0, hiok
        add  r4, r0, r10
hiok:   add  r5, r0, r2
        add  r6, r0, r3
        add  r7, r0, r2
merge:  slt  r8, r7, r4         ; while k < hi
        beq  r8, r0, copy
        slt  r8, r5, r3         ; i exhausted -> take j
        beq  r8, r0, takej
        slt  r8, r6, r4         ; j exhausted -> take i
        beq  r8, r0, takei
        lw   r8, 0(r5)
        lw   r9, 0(r6)
        slt  r9, r9, r8         ; a[j] < a[i] -> take j (stable)
        bne  r9, r0, takej
takei:  lw   r8, 0(r5)
        sw   r8, 128(r7)
        addi r5, r5, 1
        jal  r0, stepk
takej:  lw   r8, 0(r6)
        sw   r8, 128(r7)
        addi r6, r6, 1
stepk:  addi r7, r7, 1
        jal  r0, merge
copy:   add  r5, r0, r2         ; copy scratch[lo..hi] back
cloop:  slt  r8, r5, r4
        beq  r8, r0, cdone
        lw   r8, 128(r5)
        sw   r8, 0(r5)
        addi r5, r5, 1
        jal  r0, cloop
cdone:  add  r2, r2, r1         ; lo += 2*width
        add  r2, r2, r1
        slt  r8, r2, r10
        bne  r8, r0, lloop
        add  r1, r1, r1         ; width *= 2
        slt  r8, r1, r10
        bne  r8, r0, wloop
        halt
";

/// Pointer chase: one full lap of the 4096-word cyclic permutation.
const CHASE: &str = "\
; r1=cursor r2=steps r3=flag
        addi r1, r0, 0
        addi r2, r0, 0
loop:   lw   r1, 0(r1)
        addi r2, r2, 1
        slti r3, r2, 4096
        bne  r3, r0, loop
        halt
";

/// Streaming memset: the seeded pattern at word 0 over words 0..2048.
const MEMSET: &str = "\
; r1=index r2=pattern r3=flag
        lw   r2, 0(r0)
        addi r1, r0, 0
loop:   sw   r2, 0(r1)
        addi r1, r1, 1
        slti r3, r1, 2048
        bne  r3, r0, loop
        halt
";

/// Streaming memcpy: words 0..1024 copied to words 1024..2048.
const MEMCPY: &str = "\
; r1=index r2=word r3=flag
        addi r1, r0, 0
loop:   lw   r2, 0(r1)
        sw   r2, 1024(r1)
        addi r1, r1, 1
        slti r3, r1, 1024
        bne  r3, r0, loop
        halt
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn run(name: &str, seed: u64) -> Machine {
        let program = by_name(name).expect("known program");
        let mut machine = Machine::new(program.assemble(), program.data_image(seed));
        let stats = machine.run(&mut Vec::new(), 10_000_000);
        assert!(stats.halted, "{name} did not halt");
        machine
    }

    #[test]
    fn registry_is_consistent() {
        assert_eq!(PROGRAMS.len(), PROGRAM_NAMES.len());
        for (program, name) in PROGRAMS.iter().zip(PROGRAM_NAMES) {
            assert_eq!(program.name, name);
            assert!(name.starts_with("isa:"));
            assert!(!program.summary.is_empty());
        }
        assert!(by_name("isa:matmul").is_some());
        assert!(by_name("matmul").is_none());
    }

    #[test]
    fn every_program_assembles_and_halts() {
        for program in &PROGRAMS {
            assert!(!program.assemble().is_empty(), "{}", program.name);
            run(program.name, 7);
        }
    }

    #[test]
    fn matmul_matches_oracle() {
        let program = by_name("isa:matmul").unwrap();
        let image = program.data_image(42);
        let machine = run("isa:matmul", 42);
        for i in 0..8usize {
            for j in 0..8usize {
                let mut acc = 0u64;
                for k in 0..8usize {
                    acc = acc.wrapping_add(image[i * 8 + k].wrapping_mul(image[64 + k * 8 + j]));
                }
                assert_eq!(machine.data()[128 + i * 8 + j], acc, "C[{i}][{j}]");
            }
        }
    }

    #[test]
    fn sorts_sort() {
        for (name, len) in [("isa:isort", 64usize), ("isa:msort", 128)] {
            let program = by_name(name).unwrap();
            let mut expected: Vec<i64> = program
                .data_image(5)
                .iter()
                .take(len)
                .map(|&w| w as i64)
                .collect();
            expected.sort_unstable();
            let machine = run(name, 5);
            let got: Vec<i64> = machine.data()[..len].iter().map(|&w| w as i64).collect();
            assert_eq!(got, expected, "{name}");
        }
    }

    #[test]
    fn chase_walks_a_single_cycle() {
        let program = by_name("isa:chase").unwrap();
        let image = program.data_image(11);
        // Sattolo guarantees one cycle covering all words: following
        // the links from 0 returns to 0 after exactly DATA_WORDS steps.
        let mut cursor = 0usize;
        let mut seen = vec![false; DATA_WORDS];
        for _ in 0..DATA_WORDS {
            assert!(!seen[cursor], "link structure revisits {cursor} early");
            seen[cursor] = true;
            cursor = image[cursor] as usize;
        }
        assert_eq!(cursor, 0);
        // And the machine ends its 4096-step lap back at word 0.
        let machine = run("isa:chase", 11);
        assert_eq!(machine.reg(crate::instr::Reg::new(1).unwrap()), 0);
    }

    #[test]
    fn memset_and_memcpy_move_the_bytes() {
        let pattern = by_name("isa:memset").unwrap().data_image(3)[0];
        let machine = run("isa:memset", 3);
        assert!(machine.data()[..2048].iter().all(|&w| w == pattern));
        assert!(machine.data()[2048..].iter().all(|&w| w == 0));

        let image = by_name("isa:memcpy").unwrap().data_image(9);
        let machine = run("isa:memcpy", 9);
        assert_eq!(&machine.data()[1024..2048], &image[..1024]);
    }

    #[test]
    fn images_are_seed_deterministic() {
        for program in &PROGRAMS {
            assert_eq!(
                program.data_image(1),
                program.data_image(1),
                "{}",
                program.name
            );
            assert_ne!(
                program.data_image(1),
                program.data_image(2),
                "{} ignores its seed",
                program.name
            );
        }
    }
}
