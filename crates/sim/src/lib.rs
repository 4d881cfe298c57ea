//! Logic simulation, single-stuck-at fault simulation and switching-activity
//! power estimation for [`xsynth_net::Network`]s.
//!
//! The paper leans on simulation twice: the redundancy-removal pass of
//! Section 4 simulates the OC/AZ/AO/SA1 pattern sets to find reducible XOR
//! gates, and the evaluation reports SIS `power_estimate` numbers and
//! claims complete single-stuck-at test sets. This crate provides those
//! engines: 64-way bit-parallel simulation, fault enumeration/simulation,
//! and the zero-delay, uniform-input switching-activity power model.
//!
//! # Examples
//!
//! ```
//! use xsynth_net::{GateKind, Network};
//! use xsynth_sim::Simulator;
//!
//! let mut n = Network::new("and");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_gate(GateKind::And, vec![a, b]);
//! n.add_output("y", g);
//! let sim = Simulator::new(&n);
//! let outs = sim.outputs_for_patterns(&xsynth_sim::try_exhaustive_patterns(2)?);
//! assert_eq!(outs[3], vec![true]); // pattern 0b11
//! # Ok::<(), xsynth_sim::PatternSetTooLarge>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
mod power;

pub use fault::{enumerate_faults, fault_simulate, Fault, FaultReport, FaultSite};
pub use power::{power_estimate, signal_activity, PowerReport};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xsynth_net::{Network, NodeKind, SignalId};

/// A single input assignment: one value per primary input, in declaration
/// order.
pub type Pattern = Vec<bool>;

/// Error from [`try_exhaustive_patterns`]: the requested pattern set is
/// too large to materialise as `Vec<Pattern>`. Use the streaming
/// [`exhaustive_blocks`] form instead, whose peak memory is one 64-lane
/// block regardless of `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternSetTooLarge {
    /// The requested input count.
    pub inputs: usize,
    /// The largest input count this helper materialises.
    pub max_inputs: usize,
}

impl std::fmt::Display for PatternSetTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exhaustive pattern set too large for {} inputs (max {}); \
             use exhaustive_blocks for a streaming form",
            self.inputs, self.max_inputs
        )
    }
}

impl std::error::Error for PatternSetTooLarge {}

/// The largest input count [`try_exhaustive_patterns`] will materialise.
pub const EXHAUSTIVE_MATERIALIZE_LIMIT: usize = 24;

/// All `2^n` input patterns of an `n`-input network, in minterm order,
/// or [`PatternSetTooLarge`] past 24 inputs (16 M patterns).
///
/// This materialises `2^n` `Vec<bool>`s and is meant for small `n` only;
/// bulk consumers (redundancy removal, verification) should stream
/// [`exhaustive_blocks`] instead.
pub fn try_exhaustive_patterns(n: usize) -> Result<Vec<Pattern>, PatternSetTooLarge> {
    if n > EXHAUSTIVE_MATERIALIZE_LIMIT {
        return Err(PatternSetTooLarge {
            inputs: n,
            max_inputs: EXHAUSTIVE_MATERIALIZE_LIMIT,
        });
    }
    Ok((0..(1u64 << n))
        .map(|m| (0..n).map(|i| m & (1 << i) != 0).collect())
        .collect())
}

/// A word-packed block of up to 64 input patterns: `words[i]` holds the
/// values of primary input `i`, one pattern per bit lane.
///
/// This is the form the simulator consumes directly; packing once up
/// front (or streaming blocks from a generator) avoids materialising one
/// `Vec<bool>` per pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBlock {
    /// One word per primary input; bit `k` is the value in lane `k`.
    pub words: Vec<u64>,
    /// Number of valid lanes (1..=64).
    pub lanes: u32,
}

impl PatternBlock {
    /// Mask with one bit set per valid lane.
    pub fn lane_mask(&self) -> u64 {
        if self.lanes >= 64 {
            !0
        } else {
            (1u64 << self.lanes) - 1
        }
    }
}

/// Packs an explicit pattern list into 64-lane blocks.
///
/// # Panics
///
/// Panics if any pattern's length differs from `n`.
pub fn pack_patterns(n: usize, patterns: &[Pattern]) -> Vec<PatternBlock> {
    patterns
        .chunks(64)
        .map(|chunk| {
            let mut words = vec![0u64; n];
            for (k, p) in chunk.iter().enumerate() {
                assert_eq!(p.len(), n, "pattern arity mismatch");
                for (i, &b) in p.iter().enumerate() {
                    if b {
                        words[i] |= 1 << k;
                    }
                }
            }
            PatternBlock {
                words,
                lanes: chunk.len() as u32,
            }
        })
        .collect()
}

// Periodic lane masks for inputs 0..6 within a full 64-lane block: bit `k`
// of LANE_BITS[i] is bit `i` of the lane index `k`.
const LANE_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Streams the full `2^n` exhaustive pattern space as word-packed
/// 64-lane blocks in minterm order, with peak memory bounded at one
/// block regardless of `n`.
///
/// # Panics
///
/// Panics if `n > 32` (the iteration itself would never finish).
pub fn exhaustive_blocks(n: usize) -> ExhaustiveBlocks {
    assert!(n <= 32, "exhaustive simulation infeasible for {n} inputs");
    ExhaustiveBlocks { n, next: 0 }
}

/// Iterator returned by [`exhaustive_blocks`].
#[derive(Debug, Clone)]
pub struct ExhaustiveBlocks {
    n: usize,
    next: u64,
}

impl Iterator for ExhaustiveBlocks {
    type Item = PatternBlock;

    fn next(&mut self) -> Option<PatternBlock> {
        let total: u64 = 1u64 << self.n;
        if self.next >= total {
            return None;
        }
        let base = self.next;
        let lanes = 64u64.min(total - base) as u32;
        let mask = if lanes >= 64 { !0 } else { (1u64 << lanes) - 1 };
        // Minterm `base + k` sits in lane `k`: inputs below 6 cycle within
        // the block (fixed masks), inputs from 6 up are constant across it.
        let words = (0..self.n)
            .map(|i| {
                if i < 6 {
                    LANE_BITS[i] & mask
                } else if base >> i & 1 != 0 {
                    mask
                } else {
                    0u64
                }
            })
            .collect();
        self.next = base + 64;
        Some(PatternBlock { words, lanes })
    }
}

/// `count` uniformly random patterns from a fixed seed (reproducible).
pub fn random_patterns(n: usize, count: usize, seed: u64) -> Vec<Pattern> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..n).map(|_| rng.gen::<bool>()).collect())
        .collect()
}

/// A prepared bit-parallel simulator over a network.
///
/// Evaluates up to 64 patterns at once by packing one bit per pattern into
/// `u64` lanes.
#[derive(Debug)]
pub struct Simulator<'a> {
    net: &'a Network,
    order: Vec<SignalId>,
}

impl<'a> Simulator<'a> {
    /// Prepares a simulator (computes the topological order once).
    pub fn new(net: &'a Network) -> Self {
        Simulator {
            net,
            order: net.topo_order(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        self.net
    }

    /// Prepares a simulator whose evaluation order covers exactly the
    /// cone rooted at `root`, children before parents. Unlike [`new`],
    /// this works on a network still under construction that has no
    /// outputs yet — the use case is self-checking an emitted cone
    /// before it is registered as an output.
    ///
    /// [`new`]: Simulator::new
    pub fn for_cone(net: &'a Network, root: SignalId) -> Self {
        let mut seen = vec![false; net.num_nodes()];
        let mut order = Vec::new();
        let mut stack: Vec<(SignalId, usize)> = vec![(root, 0)];
        while let Some(&mut (id, ref mut next)) = stack.last_mut() {
            if seen[id.index()] {
                stack.pop();
                continue;
            }
            let fanins = net.fanins(id);
            if *next < fanins.len() {
                let child = fanins[*next];
                *next += 1;
                if !seen[child.index()] {
                    stack.push((child, 0));
                }
            } else {
                seen[id.index()] = true;
                order.push(id);
                stack.pop();
            }
        }
        Simulator { net, order }
    }

    /// Simulates one 64-pattern block. `input_words[i]` holds the 64 values
    /// of primary input `i` (pattern `k` in bit `k`). Returns one word per
    /// network node (indexed by `SignalId::index`); unreachable nodes stay
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the input count.
    pub fn simulate_block(&self, input_words: &[u64]) -> Vec<u64> {
        xsynth_trace::fail_point!("sim.block");
        assert_eq!(
            input_words.len(),
            self.net.inputs().len(),
            "input arity mismatch"
        );
        let mut val = vec![0u64; self.net.num_nodes()];
        for (i, &id) in self.net.inputs().iter().enumerate() {
            val[id.index()] = input_words[i];
        }
        for &id in &self.order {
            if let NodeKind::Gate(k) = self.net.kind(id) {
                val[id.index()] = eval_gate_words(*k, self.net.fanins(id), &val);
            }
        }
        val
    }

    /// Output values for one packed block: one word per primary output,
    /// with lanes outside the block's `lane_mask` forced to zero.
    pub fn output_words(&self, block: &PatternBlock) -> Vec<u64> {
        let val = self.simulate_block(&block.words);
        let mask = block.lane_mask();
        self.net
            .outputs()
            .iter()
            .map(|&(_, s)| val[s.index()] & mask)
            .collect()
    }

    /// Simulates an arbitrary pattern list, returning the output values for
    /// each pattern.
    pub fn outputs_for_patterns(&self, patterns: &[Pattern]) -> Vec<Vec<bool>> {
        let n = self.net.inputs().len();
        let mut results = Vec::with_capacity(patterns.len());
        for block in pack_patterns(n, patterns) {
            let val = self.simulate_block(&block.words);
            for k in 0..block.lanes as usize {
                results.push(
                    self.net
                        .outputs()
                        .iter()
                        .map(|&(_, s)| val[s.index()] & (1 << k) != 0)
                        .collect(),
                );
            }
        }
        results
    }

    /// Per-node one-counts over a pattern list: returns `(counts, total)`
    /// where `counts[node]` is how many patterns set that node to 1.
    pub fn node_one_counts(&self, patterns: &[Pattern]) -> (Vec<u64>, u64) {
        let n = self.net.inputs().len();
        let mut counts = vec![0u64; self.net.num_nodes()];
        for block in pack_patterns(n, patterns) {
            let mask = block.lane_mask();
            let val = self.simulate_block(&block.words);
            for (c, w) in counts.iter_mut().zip(val.iter()) {
                *c += (w & mask).count_ones() as u64;
            }
        }
        (counts, patterns.len() as u64)
    }
}

/// Evaluates one gate over packed 64-pattern words.
pub(crate) fn eval_gate_words(kind: xsynth_net::GateKind, fanins: &[SignalId], val: &[u64]) -> u64 {
    use xsynth_net::GateKind::*;
    let mut it = fanins.iter().map(|f| val[f.index()]);
    match kind {
        Const0 => 0,
        Const1 => !0,
        Buf => it.next().expect("buf fanin"),
        Not => !it.next().expect("not fanin"),
        And => it.fold(!0u64, |a, b| a & b),
        Nand => !it.fold(!0u64, |a, b| a & b),
        Or => it.fold(0u64, |a, b| a | b),
        Nor => !it.fold(0u64, |a, b| a | b),
        Xor => it.fold(0u64, |a, b| a ^ b),
        Xnor => !it.fold(0u64, |a, b| a ^ b),
    }
}

/// Checks functional equivalence of two networks on an explicit pattern
/// list (both must have the same input/output counts). This is the
/// workhorse behind the `verify`-style checks in the benchmark harness;
/// for complete certainty on small circuits pass
/// [`try_exhaustive_patterns`].
pub fn equivalent_on(a: &Network, b: &Network, patterns: &[Pattern]) -> bool {
    equivalent_on_blocks(a, b, pack_patterns(a.inputs().len(), patterns))
}

/// Streaming form of [`equivalent_on`] over word-packed blocks: each block
/// is simulated and compared as it arrives, so a generator like
/// [`exhaustive_blocks`] keeps peak memory at one block.
pub fn equivalent_on_blocks<I>(a: &Network, b: &Network, blocks: I) -> bool
where
    I: IntoIterator<Item = PatternBlock>,
{
    let (sa, sb) = (Simulator::new(a), Simulator::new(b));
    blocks
        .into_iter()
        .all(|blk| sa.output_words(&blk) == sb.output_words(&blk))
}

/// Complete equivalence check over the full input space, streaming
/// [`exhaustive_blocks`] so no pattern list is ever materialised.
///
/// # Panics
///
/// Panics if the networks' input count exceeds 32.
pub fn equivalent_exhaustive(a: &Network, b: &Network) -> bool {
    equivalent_on_blocks(a, b, exhaustive_blocks(a.inputs().len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_net::GateKind;

    fn adder2() -> Network {
        // 2-bit adder: inputs a0 a1 b0 b1, outputs s0 s1 c
        let mut n = Network::new("adder2");
        let a0 = n.add_input("a0");
        let a1 = n.add_input("a1");
        let b0 = n.add_input("b0");
        let b1 = n.add_input("b1");
        let s0 = n.add_gate(GateKind::Xor, vec![a0, b0]);
        let c0 = n.add_gate(GateKind::And, vec![a0, b0]);
        let s1 = n.add_gate(GateKind::Xor, vec![a1, b1, c0]);
        let ab = n.add_gate(GateKind::And, vec![a1, b1]);
        let ac = n.add_gate(GateKind::And, vec![a1, c0]);
        let bc = n.add_gate(GateKind::And, vec![b1, c0]);
        let c1 = n.add_gate(GateKind::Or, vec![ab, ac, bc]);
        n.add_output("s0", s0);
        n.add_output("s1", s1);
        n.add_output("c", c1);
        n
    }

    #[test]
    fn block_simulation_matches_scalar_eval() {
        let n = adder2();
        let sim = Simulator::new(&n);
        let pats = try_exhaustive_patterns(4).unwrap();
        let outs = sim.outputs_for_patterns(&pats);
        for (m, out) in outs.iter().enumerate() {
            assert_eq!(*out, n.eval_u64(m as u64), "pattern {m}");
        }
    }

    #[test]
    fn adder_adds() {
        let n = adder2();
        let sim = Simulator::new(&n);
        let outs = sim.outputs_for_patterns(&try_exhaustive_patterns(4).unwrap());
        for m in 0..16u64 {
            let a = m & 0b11;
            let b = (m >> 2) & 0b11;
            let s = a + b;
            let o = &outs[m as usize];
            let got = (o[0] as u64) | ((o[1] as u64) << 1) | ((o[2] as u64) << 2);
            assert_eq!(got, s, "{a}+{b}");
        }
    }

    #[test]
    fn one_counts_of_and2() {
        let mut n = Network::new("and2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, vec![a, b]);
        n.add_output("y", g);
        let sim = Simulator::new(&n);
        let (counts, total) = sim.node_one_counts(&try_exhaustive_patterns(2).unwrap());
        assert_eq!(total, 4);
        assert_eq!(counts[g.index()], 1);
        assert_eq!(counts[a.index()], 2);
    }

    #[test]
    fn cone_simulation_works_without_outputs() {
        // a net still under construction: gates exist, no outputs yet
        let mut n = Network::new("partial");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, vec![a, b]);
        let root = n.add_gate(GateKind::Xor, vec![ab, c]);
        let stray = n.add_gate(GateKind::Or, vec![a, c]);
        let sim = Simulator::for_cone(&n, root);
        let pats = try_exhaustive_patterns(3).unwrap();
        for block in pack_patterns(3, &pats) {
            let val = sim.simulate_block(&block.words);
            for (k, p) in pats.iter().enumerate().take(block.lanes as usize) {
                let (av, bv, cv) = (p[0], p[1], p[2]);
                let want = (av && bv) ^ cv;
                assert_eq!(val[root.index()] & (1 << k) != 0, want, "pattern {k}");
            }
            // nodes outside the cone are untouched
            assert_eq!(val[stray.index()], 0);
        }
    }

    #[test]
    fn random_patterns_reproducible() {
        let p1 = random_patterns(8, 100, 42);
        let p2 = random_patterns(8, 100, 42);
        assert_eq!(p1, p2);
        let p3 = random_patterns(8, 100, 43);
        assert_ne!(p1, p3);
    }

    #[test]
    fn more_than_64_patterns() {
        let n = adder2();
        let sim = Simulator::new(&n);
        let mut pats = try_exhaustive_patterns(4).unwrap();
        // repeat to cross the 64-pattern block boundary
        let reps = pats.clone();
        for _ in 0..8 {
            pats.extend(reps.iter().cloned());
        }
        let outs = sim.outputs_for_patterns(&pats);
        for (i, p) in pats.iter().enumerate() {
            let m: u64 = p.iter().enumerate().map(|(b, &v)| (v as u64) << b).sum();
            assert_eq!(outs[i], n.eval_u64(m));
        }
    }

    #[test]
    fn exhaustive_blocks_match_materialised_patterns() {
        for n in [0usize, 1, 3, 5, 6, 7, 9] {
            let pats = try_exhaustive_patterns(n).unwrap();
            let packed = pack_patterns(n, &pats);
            let streamed: Vec<PatternBlock> = exhaustive_blocks(n).collect();
            assert_eq!(packed, streamed, "n={n}");
        }
    }

    #[test]
    fn try_exhaustive_patterns_rejects_large_n() {
        let err = try_exhaustive_patterns(25).unwrap_err();
        assert_eq!(err.inputs, 25);
        assert_eq!(err.max_inputs, EXHAUSTIVE_MATERIALIZE_LIMIT);
        assert!(try_exhaustive_patterns(8).is_ok());
    }

    #[test]
    fn streaming_equivalence_matches_pattern_equivalence() {
        let n1 = adder2();
        let n2 = adder2().sweep();
        assert!(equivalent_exhaustive(&n1, &n2));
        let mut broken = adder2();
        let out = broken.outputs()[0].1;
        broken.replace_gate(out, GateKind::Xnor, broken.fanins(out).to_vec());
        assert!(!equivalent_exhaustive(&n1, &broken));
    }

    #[test]
    fn output_words_agree_with_scalar_outputs() {
        let n = adder2();
        let sim = Simulator::new(&n);
        for block in exhaustive_blocks(4) {
            let words = sim.output_words(&block);
            assert_eq!(words.len(), n.outputs().len());
            for k in 0..block.lanes as u64 {
                let expect = n.eval_u64(k);
                for (o, w) in words.iter().enumerate() {
                    assert_eq!(w >> k & 1 != 0, expect[o]);
                }
            }
        }
    }

    #[test]
    fn equivalence_checking() {
        let n1 = adder2();
        let mut n2 = adder2().sweep();
        assert!(equivalent_on(
            &n1,
            &n2,
            &try_exhaustive_patterns(4).unwrap()
        ));
        // break it
        let out = n2.outputs()[0].1;
        if n2.gate_kind(out).is_some() {
            n2.replace_gate(out, GateKind::Xnor, n2.fanins(out).to_vec());
            assert!(!equivalent_on(
                &n1,
                &n2,
                &try_exhaustive_patterns(4).unwrap()
            ));
        }
    }
}
