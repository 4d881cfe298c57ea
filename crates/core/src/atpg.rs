//! Deterministic single-stuck-at test generation (the "conventional test
//! generation" the paper's flow makes unnecessary).
//!
//! The paper claims its networks come with a complete test set read off
//! the FPRM cubes, with no ATPG run. To *quantify* that claim we need an
//! actual ATPG to compare against; this module provides a complete one
//! built on the workspace's ROBDD package: a fault is testable iff the
//! XOR of the good and faulty output functions is satisfiable, and any
//! satisfying assignment is a test. Unsatisfiability is a proof of
//! redundancy — exact, no aborts (within the BDD size limits of the
//! benchmark family).

use crate::verify::{gate_bdd, try_network_bdds, UNCAPPED};
use xsynth_bdd::{Bdd, BddManager};
use xsynth_net::{Network, NodeKind};
use xsynth_sim::fault::{Fault, FaultSite};
use xsynth_sim::{fault_simulate, Pattern};

/// The outcome of a test-generation run.
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// A compacted test set detecting every testable target fault.
    pub tests: Vec<Pattern>,
    /// Faults proven untestable (redundant wires).
    pub redundant: Vec<Fault>,
}

impl AtpgResult {
    /// Fault coverage over the targeted faults.
    pub fn coverage(&self, total: usize) -> f64 {
        if total == 0 {
            1.0
        } else {
            (total - self.redundant.len()) as f64 / total as f64
        }
    }
}

/// Builds the output BDDs of `net` with `fault` injected.
fn faulty_bdds(net: &Network, bm: &mut BddManager, fault: Fault) -> Vec<Bdd> {
    let stuck = bm.constant(fault.stuck_at);
    let mut val: Vec<Option<Bdd>> = vec![None; net.num_nodes()];
    for (i, &id) in net.inputs().iter().enumerate() {
        val[id.index()] = Some(bm.try_var(i).expect(UNCAPPED));
    }
    if let FaultSite::Output(s) = fault.site {
        if matches!(net.kind(s), NodeKind::Input) {
            val[s.index()] = Some(stuck);
        }
    }
    for id in net.topo_order() {
        let NodeKind::Gate(kind) = net.kind(id) else {
            continue;
        };
        let fan: Vec<Bdd> = net
            .fanins(id)
            .iter()
            .enumerate()
            .map(|(k, f)| {
                if fault.site == FaultSite::Fanin(id, k) {
                    stuck
                } else {
                    val[f.index()].expect("topological order")
                }
            })
            .collect();
        let b = gate_bdd(bm, *kind, &fan).expect(UNCAPPED);
        val[id.index()] = Some(if fault.site == FaultSite::Output(id) {
            stuck
        } else {
            b
        });
    }
    net.outputs()
        .iter()
        .map(|&(_, s)| val[s.index()].expect("outputs reachable"))
        .collect()
}

/// Generates a test for one fault: any input assignment on which some
/// output of the faulty network differs from the good one, or `None` when
/// the fault is provably redundant.
pub fn generate_test(net: &Network, fault: Fault) -> Option<Pattern> {
    let n = net.inputs().len();
    let mut bm = BddManager::new(n);
    let good = try_network_bdds(net, &mut bm).unwrap_or_else(|e| panic!("{e}"));
    let bad = faulty_bdds(net, &mut bm, fault);
    let mut diff = Bdd::ZERO;
    for (&g, &b) in good.iter().zip(bad.iter()) {
        let x = bm.try_xor(g, b).expect(UNCAPPED);
        diff = bm.try_or(diff, x).expect(UNCAPPED);
    }
    bm.any_sat(diff)
}

/// Complete test generation for a fault list: fault-simulates the
/// accumulated test set first (so easy faults ride along for free), runs
/// the BDD ATPG on the survivors, and returns the compacted set plus the
/// proven-redundant faults.
pub fn generate_tests(net: &Network, faults: &[Fault]) -> AtpgResult {
    let mut tests: Vec<Pattern> = Vec::new();
    let mut redundant = Vec::new();
    let mut remaining: Vec<Fault> = faults.to_vec();
    while !remaining.is_empty() {
        // drop everything the current set already detects
        if !tests.is_empty() {
            let rep = fault_simulate(net, &tests, &remaining);
            remaining = rep.undetected;
        }
        let Some(&target) = remaining.first() else {
            break;
        };
        match generate_test(net, target) {
            Some(p) => tests.push(p),
            None => {
                redundant.push(target);
                remaining.remove(0);
            }
        }
    }
    AtpgResult { tests, redundant }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_net::GateKind;
    use xsynth_sim::{enumerate_faults, try_exhaustive_patterns};

    fn xor_as_aoi() -> Network {
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
    fn complete_set_for_irredundant_circuit() {
        let net = xor_as_aoi();
        let faults = enumerate_faults(&net);
        let result = generate_tests(&net, &faults);
        assert!(result.redundant.is_empty(), "{:?}", result.redundant);
        // the generated set must detect every fault
        let rep = fault_simulate(&net, &result.tests, &faults);
        assert_eq!(rep.undetected, vec![]);
        // Hayes: a two-input XOR needs all four patterns
        assert_eq!(result.tests.len(), 4);
    }

    #[test]
    fn redundancy_is_proven() {
        // y = a·b + a·b: the duplicate's wire is untestable
        let mut net = Network::new("red");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(GateKind::And, vec![a, b]);
        let g2 = net.add_gate(GateKind::And, vec![a, b]);
        let o = net.add_gate(GateKind::Or, vec![g1, g2]);
        net.add_output("y", o);
        let f = Fault {
            site: FaultSite::Fanin(o, 1),
            stuck_at: false,
        };
        assert_eq!(generate_test(&net, f), None, "provably redundant");
        // but the OR output itself is testable
        let f2 = Fault {
            site: FaultSite::Output(o),
            stuck_at: false,
        };
        let p = generate_test(&net, f2).expect("testable");
        assert_eq!(p, vec![true, true]);
        let _ = g2;
    }

    #[test]
    fn atpg_matches_exhaustive_verdicts() {
        // every fault ATPG calls testable must be detected exhaustively,
        // and vice versa
        let net = xor_as_aoi();
        let faults = enumerate_faults(&net);
        let exhaustive = fault_simulate(&net, &try_exhaustive_patterns(2).unwrap(), &faults);
        for &f in &faults {
            let atpg_testable = generate_test(&net, f).is_some();
            let sim_testable = !exhaustive.undetected.contains(&f);
            assert_eq!(atpg_testable, sim_testable, "{f}");
        }
    }

    #[test]
    fn input_stuck_faults_handled() {
        let mut net = Network::new("w");
        let a = net.add_input("a");
        net.add_output("y", a);
        let f = Fault {
            site: FaultSite::Output(a),
            stuck_at: true,
        };
        let p = generate_test(&net, f).expect("input stuck-at-1 testable");
        assert_eq!(p, vec![false]);
    }

    #[test]
    fn synthesized_benchmark_gets_compact_complete_set() {
        let spec = xsynth_circuits_stub();
        let out = crate::Engine::new().try_synthesize(&spec).unwrap().network;
        let faults = enumerate_faults(&out);
        let result = generate_tests(&out, &faults);
        let rep = fault_simulate(&out, &result.tests, &faults);
        assert_eq!(
            rep.undetected.len(),
            result.redundant.len(),
            "exactly the proven-redundant faults stay undetected"
        );
        assert!(result.tests.len() <= faults.len() / 2, "compaction works");
    }

    /// A small arithmetic spec without depending on the circuits crate
    /// (cycle avoidance): a 2-bit adder.
    fn xsynth_circuits_stub() -> Network {
        let mut net = Network::new("add2");
        let a0 = net.add_input("a0");
        let b0 = net.add_input("b0");
        let a1 = net.add_input("a1");
        let b1 = net.add_input("b1");
        let s0 = net.add_gate(GateKind::Xor, vec![a0, b0]);
        let c0 = net.add_gate(GateKind::And, vec![a0, b0]);
        let s1 = net.add_gate(GateKind::Xor, vec![a1, b1, c0]);
        let t1 = net.add_gate(GateKind::And, vec![a1, b1]);
        let x1 = net.add_gate(GateKind::Xor, vec![a1, b1]);
        let t2 = net.add_gate(GateKind::And, vec![x1, c0]);
        let c1 = net.add_gate(GateKind::Or, vec![t1, t2]);
        net.add_output("s0", s0);
        net.add_output("s1", s1);
        net.add_output("cout", c1);
        net
    }
}
