//! Data access pattern generators.

use crate::SplitMix64;

/// One synthesized data operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataOp {
    /// The static instruction issuing the access (one per stream, so the
    /// stride prefetcher can train per-PC).
    pub pc: u64,
    /// Byte address accessed.
    pub addr: u64,
    /// Store rather than load.
    pub store: bool,
}

/// Declarative description of a data access pattern.
///
/// The four shapes cover the behaviours the paper's prefetchability
/// analysis distinguishes: sequential sweeps are next-line prefetchable,
/// strided walks are stride-prefetchable, and pointer chases and hot/cold
/// record accesses are neither.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamSpec {
    /// Sequential sweep over `bytes` from `base` in `stride`-byte steps,
    /// wrapping around (each wrap is one pass over the array).
    Seq {
        /// First byte of the array.
        base: u64,
        /// Array size in bytes.
        bytes: u64,
        /// Step between consecutive accesses, in bytes.
        stride: u64,
        /// Fraction of accesses that are stores.
        store_frac: f64,
    },
    /// Regular non-unit-stride walk (multidimensional array planes);
    /// `stride` should exceed the line size to exercise the stride
    /// prefetcher.
    Strided {
        /// First byte of the array.
        base: u64,
        /// Array size in bytes.
        bytes: u64,
        /// Step between consecutive accesses, in bytes.
        stride: u64,
    },
    /// Pointer chase over `nodes` records of `node_bytes` each, visiting
    /// nodes in a full-period pseudo-random permutation and reading
    /// `reads_per_node` consecutive words inside each record.
    Chase {
        /// First byte of the pool.
        base: u64,
        /// Number of records (rounded up to a power of two).
        nodes: u64,
        /// Record size in bytes.
        node_bytes: u64,
        /// Sequential 8-byte reads per visited record.
        reads_per_node: u32,
    },
    /// Skewed record accesses: with probability `p_hot` touch a random
    /// word of the hot region, otherwise of the cold region.
    HotCold {
        /// First byte of the region (hot bytes first, cold following).
        base: u64,
        /// Size of the hot region in bytes.
        hot_bytes: u64,
        /// Size of the cold region in bytes.
        cold_bytes: u64,
        /// Probability of touching the hot region.
        p_hot: f64,
    },
}

/// Runtime state of one [`StreamSpec`].
#[derive(Debug, Clone)]
pub struct DataStream {
    spec: StreamSpec,
    pc: u64,
    /// Seq/Strided: byte offset of next access. Chase: current node.
    pos: u64,
    /// Chase: reads already issued within the current node.
    node_read: u32,
    /// Chase: permutation modulus (nodes rounded to power of two).
    nodes_pow2: u64,
}

impl DataStream {
    /// Instantiates a stream; `pc` is the static instruction it issues
    /// accesses from.
    pub fn new(spec: StreamSpec, pc: u64) -> Self {
        let nodes_pow2 = match spec {
            StreamSpec::Chase { nodes, .. } => nodes.max(2).next_power_of_two(),
            _ => 0,
        };
        DataStream {
            spec,
            pc,
            pos: 0,
            node_read: 0,
            nodes_pow2,
        }
    }

    /// The static PC of this stream.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The declarative pattern.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// Produces the next access of the pattern.
    pub fn next_op(&mut self, rng: &mut SplitMix64) -> DataOp {
        match self.spec {
            StreamSpec::Seq {
                base,
                bytes,
                stride,
                store_frac,
            } => {
                let addr = base + self.pos;
                self.pos += stride;
                if self.pos >= bytes {
                    self.pos = 0;
                }
                DataOp {
                    pc: self.pc,
                    addr,
                    store: rng.chance(store_frac),
                }
            }
            StreamSpec::Strided {
                base,
                bytes,
                stride,
            } => {
                let addr = base + self.pos;
                self.pos += stride;
                if self.pos >= bytes {
                    // Restart the plane walk at a shifted origin so
                    // successive passes touch the interleaved columns.
                    self.pos = (self.pos - bytes + 8) % stride.max(8);
                }
                DataOp {
                    pc: self.pc,
                    addr,
                    store: false,
                }
            }
            StreamSpec::Chase {
                base,
                node_bytes,
                reads_per_node,
                ..
            } => {
                let addr = base + self.pos * node_bytes + u64::from(self.node_read) * 8;
                self.node_read += 1;
                if self.node_read >= reads_per_node.max(1) {
                    self.node_read = 0;
                    // Full-period LCG over a power-of-two node count:
                    // multiplier ≡ 1 (mod 4), odd increment.
                    self.pos = (self
                        .pos
                        .wrapping_mul(2_862_933_555_777_941_757)
                        .wrapping_add(3_037_000_493))
                        & (self.nodes_pow2 - 1);
                }
                DataOp {
                    pc: self.pc,
                    addr,
                    store: false,
                }
            }
            StreamSpec::HotCold {
                base,
                hot_bytes,
                cold_bytes,
                p_hot,
            } => {
                let (lo, span) = if rng.chance(p_hot) {
                    (base, hot_bytes)
                } else {
                    (base + hot_bytes, cold_bytes)
                };
                let addr = lo + rng.below(span / 8) * 8;
                DataOp {
                    pc: self.pc,
                    addr,
                    store: rng.chance(0.25),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(0xDEADBEEF)
    }

    #[test]
    fn seq_sweeps_and_wraps() {
        let mut s = DataStream::new(
            StreamSpec::Seq {
                base: 1000,
                bytes: 32,
                stride: 8,
                store_frac: 0.0,
            },
            4,
        );
        let mut r = rng();
        let addrs: Vec<u64> = (0..6).map(|_| s.next_op(&mut r).addr).collect();
        assert_eq!(addrs, vec![1000, 1008, 1016, 1024, 1000, 1008]);
    }

    #[test]
    fn strided_walk_covers_columns() {
        let mut s = DataStream::new(
            StreamSpec::Strided {
                base: 0,
                bytes: 1024,
                stride: 256,
            },
            4,
        );
        let mut r = rng();
        let addrs: Vec<u64> = (0..5).map(|_| s.next_op(&mut r).addr).collect();
        assert_eq!(&addrs[..4], &[0, 256, 512, 768]);
        // Second pass starts at a shifted column.
        assert_eq!(addrs[4], 8);
    }

    #[test]
    fn chase_visits_all_nodes() {
        let nodes = 64u64;
        let mut s = DataStream::new(
            StreamSpec::Chase {
                base: 0,
                nodes,
                node_bytes: 128,
                reads_per_node: 1,
            },
            4,
        );
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..nodes {
            let op = s.next_op(&mut r);
            seen.insert(op.addr / 128);
        }
        assert_eq!(seen.len() as u64, nodes, "LCG permutation is full-period");
    }

    #[test]
    fn chase_reads_within_node_are_sequential() {
        let mut s = DataStream::new(
            StreamSpec::Chase {
                base: 0,
                nodes: 8,
                node_bytes: 256,
                reads_per_node: 4,
            },
            4,
        );
        let mut r = rng();
        let addrs: Vec<u64> = (0..4).map(|_| s.next_op(&mut r).addr).collect();
        assert_eq!(addrs, vec![0, 8, 16, 24]);
    }

    #[test]
    fn hotcold_respects_regions() {
        let mut s = DataStream::new(
            StreamSpec::HotCold {
                base: 0,
                hot_bytes: 64,
                cold_bytes: 64 * 1024,
                p_hot: 0.9,
            },
            4,
        );
        let mut r = rng();
        let mut hot = 0;
        let n = 10_000;
        for _ in 0..n {
            let op = s.next_op(&mut r);
            assert!(op.addr < 64 + 64 * 1024);
            if op.addr < 64 {
                hot += 1;
            }
        }
        let frac = f64::from(hot) / f64::from(n);
        assert!((frac - 0.9).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn streams_carry_their_pc() {
        let mut s = DataStream::new(
            StreamSpec::Seq {
                base: 0,
                bytes: 64,
                stride: 8,
                store_frac: 1.0,
            },
            0x1234,
        );
        assert_eq!(s.pc(), 0x1234);
        let op = s.next_op(&mut rng());
        assert_eq!(op.pc, 0x1234);
        assert!(op.store);
    }
}
