//! Exact switching-activity power estimation via ROBDDs.
//!
//! [`xsynth_sim::power_estimate`] measures signal probabilities by
//! simulation (exhaustive up to 16 inputs, Monte-Carlo beyond); this
//! module computes them *exactly* for any input count whose BDDs fit, by
//! building the global function of every node and reading the
//! satisfying fraction off the diagram — the textbook zero-delay power
//! model at full precision, useful for the paper's `improve%power` column
//! on the wide circuits.

use crate::verify::{gate_bdd, UNCAPPED};
use std::collections::HashMap;
use xsynth_bdd::{Bdd, BddManager};
use xsynth_net::{GateKind, Network, NodeKind, SignalId};

/// Exact per-node switching power, same model and units as
/// [`xsynth_sim::power_estimate`]: activity `2·p·(1−p)` weighted by fanout
/// load (plus one per primary output driven); constants are free.
pub fn power_estimate_exact(net: &Network) -> f64 {
    let n = net.inputs().len();
    let mut bm = BddManager::new(n);
    let mut val: HashMap<SignalId, Bdd> = HashMap::new();
    for (i, &id) in net.inputs().iter().enumerate() {
        val.insert(id, bm.try_var(i).expect(UNCAPPED));
    }
    for id in net.topo_order() {
        let NodeKind::Gate(kind) = net.kind(id) else {
            continue;
        };
        let fan: Vec<Bdd> = net.fanins(id).iter().map(|f| val[f]).collect();
        val.insert(id, gate_bdd(&mut bm, *kind, &fan).expect(UNCAPPED));
    }

    let fanouts = net.fanouts();
    let mut drives_po = vec![0usize; net.num_nodes()];
    for (_, s) in net.outputs() {
        drives_po[s.index()] += 1;
    }
    let mut total = 0.0;
    for id in net.topo_order() {
        let load = fanouts[id.index()].len() + drives_po[id.index()];
        if load == 0 {
            continue;
        }
        if matches!(
            net.kind(id),
            NodeKind::Gate(GateKind::Const0) | NodeKind::Gate(GateKind::Const1)
        ) {
            continue;
        }
        let p = bm.sat_fraction(val[&id]);
        total += 2.0 * p * (1.0 - p) * load as f64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_sim::power_estimate;

    #[test]
    fn exact_matches_exhaustive_simulation() {
        // the simulation path is exhaustive ≤ 16 inputs, so both must agree
        // to float precision on a small network
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let ab = net.add_gate(GateKind::And, vec![a, b]);
        let x = net.add_gate(GateKind::Xor, vec![ab, c]);
        let o = net.add_gate(GateKind::Nor, vec![x, a]);
        net.add_output("y", o);
        let exact = power_estimate_exact(&net);
        let sim = power_estimate(&net).total;
        assert!((exact - sim).abs() < 1e-9, "exact {exact} vs sim {sim}");
    }

    #[test]
    fn wide_network_exact_value() {
        // 40-input AND chain: p of stage k is 2^-(k+1); the Monte-Carlo
        // simulator can only approximate this, the BDD version is exact
        let mut net = Network::new("wide");
        let ins: Vec<_> = (0..40).map(|i| net.add_input(format!("x{i}"))).collect();
        let mut s = ins[0];
        let mut expected = 40.0 * 0.5; // each input, activity .5, load 1
        let mut p = 0.5;
        for &i in &ins[1..] {
            s = net.add_gate(GateKind::And, vec![s, i]);
            p *= 0.5;
            expected += 2.0 * p * (1.0 - p);
        }
        net.add_output("y", s);
        let exact = power_estimate_exact(&net);
        assert!((exact - expected).abs() < 1e-9, "{exact} vs {expected}");
    }
}
