//! Switching-activity power estimation.
//!
//! Reimplements the model behind SIS `power_estimate` with default options
//! as used in the paper's Table 2 power column: zero-delay, spatially and
//! temporally independent primary inputs with signal probability 0.5, and
//! per-node switching activity `E = 2·p·(1−p)` weighted by the node's
//! capacitive load (its fanout count, plus one if it drives a primary
//! output). The absolute scale is arbitrary; only ratios between circuits
//! are meaningful, which is all the paper's `improve%power` column uses.

use crate::{random_patterns, try_exhaustive_patterns, Pattern, Simulator};
use std::fmt;
use xsynth_net::{Network, NodeKind};

/// The result of a power estimation run.
#[derive(Debug, Clone)]
pub struct PowerReport {
    /// Total weighted switching activity (arbitrary units).
    pub total: f64,
    /// Per-node activity (indexed by `SignalId::index`).
    pub per_node: Vec<f64>,
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "power ≈ {:.3} (normalized switching)", self.total)
    }
}

/// Per-node switching activity `2·p·(1−p)` measured over a pattern set.
pub fn signal_activity(net: &Network, patterns: &[Pattern]) -> Vec<f64> {
    let sim = Simulator::new(net);
    let (counts, total) = sim.node_one_counts(patterns);
    counts
        .iter()
        .map(|&c| {
            let p = c as f64 / total as f64;
            2.0 * p * (1.0 - p)
        })
        .collect()
}

/// Estimates power with the SIS `power_estimate` default model.
///
/// Signal probabilities are exact (exhaustive simulation) for up to 16
/// inputs and Monte-Carlo (4096 fixed-seed random patterns) beyond that.
pub fn power_estimate(net: &Network) -> PowerReport {
    let n = net.inputs().len();
    let patterns = if n <= 16 {
        try_exhaustive_patterns(n).expect("16 inputs are within the materialise limit")
    } else {
        random_patterns(n, 4096, 0x5eed)
    };
    let activity = signal_activity(net, &patterns);
    let fanouts = net.fanouts();
    let mut per_node = vec![0.0; net.num_nodes()];
    let mut total = 0.0;
    let mut drives_po = vec![0usize; net.num_nodes()];
    for (_, s) in net.outputs() {
        drives_po[s.index()] += 1;
    }
    for id in net.topo_order() {
        // primary inputs also switch and drive load
        let load = fanouts[id.index()].len() + drives_po[id.index()];
        if load == 0 {
            continue;
        }
        let is_free = matches!(
            net.kind(id),
            NodeKind::Gate(xsynth_net::GateKind::Const0)
                | NodeKind::Gate(xsynth_net::GateKind::Const1)
        );
        if is_free {
            continue;
        }
        let p = activity[id.index()] * load as f64;
        per_node[id.index()] = p;
        total += p;
    }
    PowerReport { total, per_node }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_net::{GateKind, Network};

    #[test]
    fn inverter_chain_power_scales_with_length() {
        let build = |k: usize| {
            let mut n = Network::new("chain");
            let mut s = n.add_input("a");
            for _ in 0..k {
                s = n.add_gate(GateKind::Not, vec![s]);
            }
            n.add_output("y", s);
            n
        };
        let p2 = power_estimate(&build(2)).total;
        let p8 = power_estimate(&build(8)).total;
        assert!(p8 > p2, "longer chain must burn more power");
        // every node in a NOT chain has p = 0.5, activity 0.5, load 1
        assert!((p2 - 1.5).abs() < 1e-9, "got {p2}");
    }

    #[test]
    fn and_gate_activity_is_biased() {
        let mut n = Network::new("and");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, vec![a, b]);
        n.add_output("y", g);
        let act = signal_activity(&n, &try_exhaustive_patterns(2).unwrap());
        // p(and)=0.25, activity = 2·0.25·0.75 = 0.375
        assert!((act[g.index()] - 0.375).abs() < 1e-9);
        assert!((act[a.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn constant_nodes_are_free() {
        let mut n = Network::new("c");
        let a = n.add_input("a");
        let one = n.add_gate(GateKind::Const1, vec![]);
        let g = n.add_gate(GateKind::And, vec![a, one]);
        n.add_output("y", g);
        let rep = power_estimate(&n);
        assert_eq!(rep.per_node[one.index()], 0.0);
    }

    #[test]
    fn monte_carlo_close_to_exact() {
        // 18-input parity triggers the Monte-Carlo path; its activity per
        // node is exactly 0.5, so the estimate should land close.
        let mut n = Network::new("p18");
        let ins: Vec<_> = (0..18).map(|i| n.add_input(format!("x{i}"))).collect();
        let mut s = ins[0];
        for &i in &ins[1..] {
            s = n.add_gate(GateKind::Xor, vec![s, i]);
        }
        n.add_output("y", s);
        let rep = power_estimate(&n);
        // 18 inputs (load 1 each) + 17 xors (16 with load 1, root load 1)
        // all with activity 0.5 → exact total 17.5
        assert!((rep.total - 17.5).abs() < 0.8, "got {}", rep.total);
    }
}
