//! Single-stuck-at fault enumeration and simulation.
//!
//! The paper claims its synthesized networks are irredundant and come with
//! a complete single-stuck-at test set derived from the FPRM cubes (the OC
//! and SA1 pattern sets) with no conventional ATPG. This module provides
//! the machinery to check that claim: enumerate the fault universe of a
//! network and measure which faults a pattern set detects.

use crate::{eval_gate_words, Pattern, Simulator};
use std::fmt;
use xsynth_net::{Network, NodeKind, SignalId};

/// A location where a stuck-at fault can occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The output wire of a node (also models primary-input faults).
    Output(SignalId),
    /// The `k`-th fanin wire of a gate (a fanout branch fault).
    Fanin(SignalId, usize),
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Where the wire is stuck.
    pub site: FaultSite,
    /// The stuck value (`true` = stuck-at-1).
    pub stuck_at: bool,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = if self.stuck_at { 1 } else { 0 };
        match self.site {
            FaultSite::Output(s) => write!(f, "n{}/sa{}", s.index(), v),
            FaultSite::Fanin(s, k) => write!(f, "n{}.in{}/sa{}", s.index(), k, v),
        }
    }
}

/// Enumerates the full (uncollapsed) single-stuck-at fault universe of the
/// reachable subnetwork: both polarities on every node output and every
/// gate fanin wire.
pub fn enumerate_faults(net: &Network) -> Vec<Fault> {
    let mut faults = Vec::new();
    for id in net.topo_order() {
        for stuck in [false, true] {
            faults.push(Fault {
                site: FaultSite::Output(id),
                stuck_at: stuck,
            });
        }
        if matches!(net.kind(id), NodeKind::Gate(_)) {
            for k in 0..net.fanins(id).len() {
                for stuck in [false, true] {
                    faults.push(Fault {
                        site: FaultSite::Fanin(id, k),
                        stuck_at: stuck,
                    });
                }
            }
        }
    }
    faults
}

/// The outcome of fault-simulating a pattern set.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// All faults that were simulated.
    pub total: usize,
    /// Faults no pattern detected.
    pub undetected: Vec<Fault>,
}

impl FaultReport {
    /// Number of detected faults.
    pub fn detected(&self) -> usize {
        self.total - self.undetected.len()
    }

    /// Fault coverage in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected() as f64 / self.total as f64
        }
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} faults detected ({:.1}% coverage)",
            self.detected(),
            self.total,
            100.0 * self.coverage()
        )
    }
}

/// Simulates every fault in `faults` against every pattern (bit-parallel,
/// 64 patterns at a time) and reports which faults stay undetected.
///
/// A fault is detected by a pattern when some primary output differs from
/// the fault-free value.
pub fn fault_simulate(net: &Network, patterns: &[Pattern], faults: &[Fault]) -> FaultReport {
    let sim = Simulator::new(net);
    let order = net.topo_order();
    let n_in = net.inputs().len();
    let mut undetected: Vec<bool> = vec![true; faults.len()];

    for chunk in patterns.chunks(64) {
        let mut words = vec![0u64; n_in];
        for (k, p) in chunk.iter().enumerate() {
            assert_eq!(p.len(), n_in, "pattern arity mismatch");
            for (i, &b) in p.iter().enumerate() {
                if b {
                    words[i] |= 1 << k;
                }
            }
        }
        let mask = if chunk.len() == 64 {
            !0u64
        } else {
            (1u64 << chunk.len()) - 1
        };
        let good = sim.simulate_block(&words);
        for (fi, fault) in faults.iter().enumerate() {
            if !undetected[fi] {
                continue;
            }
            if differs_under_fault(net, &order, &words, &good, *fault, mask) {
                undetected[fi] = false;
            }
        }
    }

    FaultReport {
        total: faults.len(),
        undetected: faults
            .iter()
            .zip(undetected)
            .filter_map(|(f, u)| u.then_some(*f))
            .collect(),
    }
}

/// Re-simulates one 64-pattern block with `fault` injected and reports
/// whether any primary output differs from the fault-free values in any of
/// the `mask`ed lanes.
fn differs_under_fault(
    net: &Network,
    order: &[SignalId],
    input_words: &[u64],
    good: &[u64],
    fault: Fault,
    mask: u64,
) -> bool {
    let stuck_word = if fault.stuck_at { !0u64 } else { 0u64 };
    let mut val = vec![0u64; net.num_nodes()];
    for (i, &id) in net.inputs().iter().enumerate() {
        val[id.index()] = input_words[i];
    }
    if let FaultSite::Output(s) = fault.site {
        if matches!(net.kind(s), NodeKind::Input) {
            val[s.index()] = stuck_word;
        }
    }
    for &id in order {
        if let NodeKind::Gate(k) = net.kind(id) {
            let v = match fault.site {
                FaultSite::Fanin(g, idx) if g == id => {
                    // evaluate with the idx-th fanin wire overridden
                    let fanins = net.fanins(id);
                    let mut vals: Vec<u64> = fanins.iter().map(|f| val[f.index()]).collect();
                    vals[idx] = stuck_word;
                    eval_gate_words_direct(*k, &vals)
                }
                _ => eval_gate_words(*k, net.fanins(id), &val),
            };
            val[id.index()] = if fault.site == FaultSite::Output(id) {
                stuck_word
            } else {
                v
            };
        }
    }
    net.outputs()
        .iter()
        .any(|&(_, s)| (val[s.index()] ^ good[s.index()]) & mask != 0)
}

fn eval_gate_words_direct(kind: xsynth_net::GateKind, vals: &[u64]) -> u64 {
    use xsynth_net::GateKind::*;
    let mut it = vals.iter().copied();
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

/// Whether a wire is redundant: no input pattern in `patterns` detects
/// either stuck-at fault... for a *proof* of redundancy pass the
/// exhaustive pattern set; for the paper's criterion pass the OC/SA1 sets.
pub fn is_undetected(net: &Network, patterns: &[Pattern], fault: Fault) -> bool {
    fault_simulate(net, patterns, &[fault]).undetected.len() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::try_exhaustive_patterns;
    use xsynth_net::GateKind;

    fn xor_as_aoi() -> Network {
        // a⊕b built from AND/OR/NOT — Hayes: all 4 patterns needed.
        let mut n = Network::new("xor_aoi");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.add_gate(GateKind::Not, vec![a]);
        let nb = n.add_gate(GateKind::Not, vec![b]);
        let l = n.add_gate(GateKind::And, vec![a, nb]);
        let r = n.add_gate(GateKind::And, vec![na, b]);
        let o = n.add_gate(GateKind::Or, vec![l, r]);
        n.add_output("y", o);
        n
    }

    #[test]
    fn xor_aoi_is_fully_testable_exhaustively() {
        let n = xor_as_aoi();
        let faults = enumerate_faults(&n);
        let rep = fault_simulate(&n, &try_exhaustive_patterns(2).unwrap(), &faults);
        assert_eq!(rep.undetected, vec![], "irredundant circuit: {rep}");
        assert_eq!(rep.coverage(), 1.0);
    }

    #[test]
    fn xor_aoi_needs_all_four_patterns() {
        // Hayes' result (paper Section 4): dropping any one of the four
        // patterns leaves some internal fault undetected.
        let n = xor_as_aoi();
        let faults = enumerate_faults(&n);
        let all = try_exhaustive_patterns(2).unwrap();
        for skip in 0..4 {
            let subset: Vec<_> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, p)| p.clone())
                .collect();
            let rep = fault_simulate(&n, &subset, &faults);
            assert!(
                !rep.undetected.is_empty(),
                "dropping pattern {skip} should lose coverage"
            );
        }
    }

    #[test]
    fn redundant_wire_is_undetectable() {
        // y = a·b + a·b  (duplicate cube): faults in the duplicate are
        // undetectable by any pattern.
        let mut n = Network::new("red");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, vec![a, b]);
        let g2 = n.add_gate(GateKind::And, vec![a, b]);
        let o = n.add_gate(GateKind::Or, vec![g1, g2]);
        n.add_output("y", o);
        let rep = fault_simulate(
            &n,
            &try_exhaustive_patterns(2).unwrap(),
            &enumerate_faults(&n),
        );
        assert!(
            !rep.undetected.is_empty(),
            "duplicated cube must create untestable faults"
        );
        // specifically, g2's output stuck-at-0 changes nothing
        let f = Fault {
            site: FaultSite::Fanin(o, 1),
            stuck_at: false,
        };
        assert!(is_undetected(&n, &try_exhaustive_patterns(2).unwrap(), f));
    }

    #[test]
    fn pi_fault_detection() {
        let mut n = Network::new("buf");
        let a = n.add_input("a");
        n.add_output("y", a);
        let f0 = Fault {
            site: FaultSite::Output(a),
            stuck_at: false,
        };
        // only the pattern a=1 detects stuck-at-0
        assert!(is_undetected(&n, &[vec![false]], f0));
        assert!(!is_undetected(&n, &[vec![true]], f0));
    }

    #[test]
    fn report_formatting() {
        let n = xor_as_aoi();
        let rep = fault_simulate(
            &n,
            &try_exhaustive_patterns(2).unwrap(),
            &enumerate_faults(&n),
        );
        let s = rep.to_string();
        assert!(s.contains("100.0%"), "{s}");
    }
}
