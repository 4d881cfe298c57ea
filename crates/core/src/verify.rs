//! Combinational equivalence checking (the role `verify` plays in the
//! paper's experimental procedure).

use crate::budget::{Budget, BudgetExceeded, Resource};
use crate::error::Error;
use std::collections::HashMap;
use xsynth_bdd::{Bdd, BddManager, NodeLimitExceeded};
use xsynth_net::{GateKind, Network, NodeKind, SignalId};
use xsynth_sim::{equivalent_on_blocks, pack_patterns, random_patterns, PatternBlock};
use xsynth_trace::TraceBuffer;

/// Input count above which the checker switches from exact BDD comparison
/// to high-confidence random simulation.
const BDD_INPUT_LIMIT: usize = 40;

/// Fixed-seed pattern budget of the simulation backend (before any
/// [`Budget::max_patterns`] cap).
const SIM_PATTERNS: usize = 4096;

/// Seed of the simulation backend's fixed random pattern set.
const SIM_SEED: u64 = 0xec;

/// An equivalence checker pinned to a reference network.
///
/// Comparison is exact (canonical ROBDD equality) up to 40 primary
/// inputs and falls back to fixed-seed random
/// simulation beyond that. Under a [`Budget`] with a BDD node cap, a
/// checker that trips the cap mid-check downgrades itself to the
/// simulation backend instead of failing — [`EquivChecker::downgraded`]
/// reports when that happened. Candidate networks must have the same
/// primary inputs (same names, same order) and the same outputs.
///
/// # Examples
///
/// ```
/// use xsynth_core::EquivChecker;
/// use xsynth_net::{GateKind, Network};
///
/// let mut a = Network::new("a");
/// let x = a.add_input("x");
/// let y = a.add_input("y");
/// let g = a.add_gate(GateKind::Xor, vec![x, y]);
/// a.add_output("f", g);
/// let mut checker = EquivChecker::new(&a);
/// assert!(checker.try_check(&a)?);
/// # Ok::<(), xsynth_core::Error>(())
/// ```
#[derive(Debug)]
pub struct EquivChecker {
    reference: Network,
    reference_outputs: Vec<Bdd>,
    manager: Option<BddManager>,
    input_names: Vec<String>,
    sim_patterns: Option<Vec<PatternBlock>>,
    n_sim_patterns: usize,
    budget: Budget,
    downgraded: bool,
}

impl EquivChecker {
    /// Builds the checker, computing the reference output BDDs (or the
    /// simulation signature for very wide networks), with no resource
    /// budget.
    pub fn new(reference: &Network) -> Self {
        Self::with_budget(reference, &Budget::default())
    }

    /// Builds the checker under a resource budget: the BDD backend runs in
    /// a node-capped manager (falling back to simulation if even the
    /// reference trips the cap), and the simulation backend's pattern set
    /// respects [`Budget::max_patterns`].
    pub fn with_budget(reference: &Network, budget: &Budget) -> Self {
        let input_names: Vec<String> = reference
            .inputs()
            .iter()
            .map(|&i| reference.node_name(i).unwrap_or("in").to_string())
            .collect();
        let n = input_names.len();
        let mut checker = EquivChecker {
            reference: reference.clone(),
            reference_outputs: Vec::new(),
            manager: None,
            input_names,
            sim_patterns: None,
            n_sim_patterns: 0,
            budget: budget.clone(),
            downgraded: false,
        };
        if n <= BDD_INPUT_LIMIT {
            let mut bm = match budget.bdd_node_cap {
                Some(cap) => BddManager::with_node_limit(n, cap),
                None => BddManager::new(n),
            };
            match try_network_bdds_compact(reference, &mut bm) {
                Ok(outs) => {
                    checker.reference_outputs = outs;
                    checker.manager = Some(bm);
                    return checker;
                }
                Err(_) => checker.downgraded = true,
            }
        }
        checker.build_sim_backend();
        checker
    }

    fn build_sim_backend(&mut self) {
        let n = self.input_names.len();
        let count = self.budget.cap_patterns(SIM_PATTERNS);
        let patterns = random_patterns(n, count, SIM_SEED);
        self.n_sim_patterns = patterns.len();
        self.sim_patterns = Some(pack_patterns(n, &patterns));
    }

    /// Whether the checker is exact (BDD) or statistical (simulation).
    pub fn is_exact(&self) -> bool {
        self.manager.is_some()
    }

    /// Whether a budget trip forced this checker down from exact BDD
    /// comparison to fixed-seed simulation.
    pub fn downgraded(&self) -> bool {
        self.downgraded
    }

    /// Checks a candidate network against the reference, reporting input
    /// mismatches as [`Error::InputMismatch`] instead of panicking.
    ///
    /// On the BDD backend, tripping the node cap does not fail the check:
    /// the checker downgrades itself to fixed-seed simulation (recorded by
    /// [`EquivChecker::downgraded`]) and re-runs the comparison there.
    pub fn try_check(&mut self, candidate: &Network) -> Result<bool, Error> {
        xsynth_trace::fail_point!(
            "core.verify",
            Err(Error::Verify("injected fault: core.verify tripped".into()))
        );
        let cand_names: Vec<&str> = candidate
            .inputs()
            .iter()
            .map(|&i| candidate.node_name(i).unwrap_or("in"))
            .collect();
        if cand_names != self.input_names {
            return Err(Error::InputMismatch {
                expected: self.input_names.clone(),
                found: cand_names.iter().map(|s| s.to_string()).collect(),
            });
        }
        if self.manager.is_some() {
            let result = {
                let bm = self.manager.as_mut().expect("checked above");
                // Compact build: an equivalent candidate hash-conses onto
                // the reference cones and interns zero new nodes, so the
                // checker's manager stays near live-reference size across
                // arbitrarily many redundancy-removal checks.
                try_network_bdds_compact(candidate, bm)
            };
            match result {
                Ok(outs) => return Ok(outs == self.reference_outputs),
                Err(Error::Budget(_)) => {
                    // The candidate's BDD blew the node cap; keep going
                    // with the statistical backend rather than rejecting a
                    // possibly fine network.
                    self.manager = None;
                    self.reference_outputs.clear();
                    self.downgraded = true;
                    self.build_sim_backend();
                }
                Err(e) => return Err(e),
            }
        }
        let blocks = self
            .sim_patterns
            .as_ref()
            .expect("checker always has one backend");
        Ok(equivalent_on_blocks(
            &self.reference,
            candidate,
            blocks.iter().cloned(),
        ))
    }

    /// [`EquivChecker::try_check`] recording into a trace buffer: runs
    /// inside a `check` span, counts `verify.checks`, and (on the
    /// simulation backend) counts the patterns simulated as
    /// `verify.sim_patterns`. The span is closed on every path, including
    /// errors; a mid-check downgrade is counted as `verify.downgraded`.
    pub(crate) fn try_check_traced(
        &mut self,
        candidate: &Network,
        buf: &mut TraceBuffer,
    ) -> Result<bool, Error> {
        buf.begin("check");
        buf.count("verify.checks", 1);
        let was_downgraded = self.downgraded;
        let result = self.try_check(candidate);
        if self.downgraded && !was_downgraded {
            buf.count("verify.downgraded", 1);
        }
        if let Some(bm) = &self.manager {
            buf.gauge("bdd.peak_nodes", bm.num_nodes() as f64);
        }
        if self.sim_patterns.is_some() {
            buf.count("verify.sim_patterns", self.n_sim_patterns as u64);
        }
        buf.end();
        result
    }
}

/// Garbage-collected form of [`try_network_bdds`]: builds every gate's
/// BDD in a throwaway scratch manager (inheriting `bm`'s node cap), then
/// copies only the DAGs reachable from the output roots into `bm`.
///
/// A structural traversal allocates a node for every internal gate, most
/// of which are dead the moment their fanouts are folded — but a plain
/// build leaves them in `bm`'s unique tables forever (the substrate has
/// no reference counts). Routing the build through a scratch manager
/// means `bm` — which may be a long-lived pooled or shared substrate —
/// only ever holds live cones. The copy is a sequential DFS in output
/// order, so the set of nodes it interns is schedule-independent and the
/// parallel≡sequential `bdd.nodes` contract is preserved.
pub(crate) fn try_network_bdds_compact(
    net: &Network,
    bm: &mut BddManager,
) -> Result<Vec<Bdd>, Error> {
    let n = net.inputs().len();
    check_arity(net, bm)?;
    let mut scratch = match bm.node_limit() {
        Some(cap) => BddManager::with_node_limit(n, cap),
        None => BddManager::new(n),
    };
    let outs = try_network_bdds(net, &mut scratch)?;
    scratch
        .try_copy_roots(&outs, bm)
        .map_err(|_| node_cap_error(bm))
}

/// Builds the BDD of every output of `net` in `bm` (whose arity must match
/// the input count), by structural traversal. Arity mismatches and
/// combinational cycles are errors, and the manager's node cap maps to
/// [`Error::Budget`] so governed callers can degrade instead of dying.
pub fn try_network_bdds(net: &Network, bm: &mut BddManager) -> Result<Vec<Bdd>, Error> {
    check_arity(net, bm)?;
    let mut val: HashMap<SignalId, Bdd> = HashMap::new();
    for (i, &id) in net.inputs().iter().enumerate() {
        let v = bm.try_var(i).map_err(|_| node_cap_error(bm))?;
        val.insert(id, v);
    }
    for id in net.try_topo_order()? {
        let NodeKind::Gate(kind) = net.kind(id) else {
            continue;
        };
        let fan: Vec<Bdd> = net.fanins(id).iter().map(|f| val[f]).collect();
        let b = gate_bdd(bm, *kind, &fan).map_err(|_| node_cap_error(bm))?;
        val.insert(id, b);
    }
    Ok(net.outputs().iter().map(|&(_, s)| val[&s]).collect())
}

/// Why a BDD operation on a manager built without a node cap cannot fail.
pub(crate) const UNCAPPED: &str = "an uncapped BDD manager has no node cap to trip";

/// The BDD of one gate over its fanins' BDDs, folding multi-input gates
/// left to right from the operation's identity.
pub(crate) fn gate_bdd(
    bm: &mut BddManager,
    kind: GateKind,
    fan: &[Bdd],
) -> Result<Bdd, NodeLimitExceeded> {
    use GateKind::*;
    type Apply = fn(&mut BddManager, Bdd, Bdd) -> Result<Bdd, NodeLimitExceeded>;
    let (identity, op, negate): (Bdd, Apply, bool) = match kind {
        Const0 => return Ok(Bdd::ZERO),
        Const1 => return Ok(Bdd::ONE),
        Buf => return Ok(fan[0]),
        Not => return Ok(bm.not(fan[0])),
        And => (Bdd::ONE, BddManager::try_and, false),
        Nand => (Bdd::ONE, BddManager::try_and, true),
        Or => (Bdd::ZERO, BddManager::try_or, false),
        Nor => (Bdd::ZERO, BddManager::try_or, true),
        Xor => (Bdd::ZERO, BddManager::try_xor, false),
        Xnor => (Bdd::ZERO, BddManager::try_xor, true),
    };
    let f = fan.iter().try_fold(identity, |a, &x| op(bm, a, x))?;
    Ok(if negate { bm.not(f) } else { f })
}

fn check_arity(net: &Network, bm: &BddManager) -> Result<(), Error> {
    if bm.num_vars() != net.inputs().len() {
        return Err(Error::msg(format!(
            "BDD arity mismatch: manager has {} vars, network has {} inputs",
            bm.num_vars(),
            net.inputs().len()
        )));
    }
    Ok(())
}

fn node_cap_error(bm: &BddManager) -> Error {
    Error::Budget(BudgetExceeded::new(
        "bdd",
        Resource::BddNodes,
        bm.node_limit().unwrap_or(0) as u64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_trace::TraceSink;

    fn xor_net(style: u8) -> Network {
        let mut n = Network::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let o = match style {
            0 => n.add_gate(GateKind::Xor, vec![a, b]),
            _ => {
                let na = n.add_gate(GateKind::Not, vec![a]);
                let nb = n.add_gate(GateKind::Not, vec![b]);
                let l = n.add_gate(GateKind::And, vec![a, nb]);
                let r = n.add_gate(GateKind::And, vec![na, b]);
                n.add_gate(GateKind::Or, vec![l, r])
            }
        };
        n.add_output("f", o);
        n
    }

    #[test]
    fn structurally_different_equivalent_networks_pass() {
        let mut c = EquivChecker::new(&xor_net(0));
        assert!(c.is_exact());
        assert!(!c.downgraded());
        assert!(c.try_check(&xor_net(1)).unwrap());
    }

    #[test]
    fn inequivalent_networks_fail() {
        let mut c = EquivChecker::new(&xor_net(0));
        let mut bad = Network::new("x");
        let a = bad.add_input("a");
        let b = bad.add_input("b");
        let o = bad.add_gate(GateKind::Or, vec![a, b]);
        bad.add_output("f", o);
        assert!(!c.try_check(&bad).unwrap());
    }

    #[test]
    fn wide_networks_use_simulation() {
        let build = |kind: GateKind| {
            let mut n = Network::new("wide");
            let ins: Vec<_> = (0..48).map(|i| n.add_input(format!("x{i}"))).collect();
            let g = n.add_gate(kind, ins);
            n.add_output("f", g);
            n
        };
        let mut c = EquivChecker::new(&build(GateKind::And));
        assert!(!c.is_exact());
        assert!(c.try_check(&build(GateKind::And)).unwrap());
        // AND vs NAND of 48 inputs differ almost everywhere under random
        // patterns? they differ only where all inputs are 1, which random
        // patterns will never hit — use OR vs AND instead, which differ on
        // nearly every pattern.
        assert!(!c.try_check(&build(GateKind::Or)).unwrap());
    }

    #[test]
    fn multi_output_order_matters() {
        let mut a = Network::new("a");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let g1 = a.add_gate(GateKind::And, vec![x, y]);
        let g2 = a.add_gate(GateKind::Or, vec![x, y]);
        a.add_output("p", g1);
        a.add_output("q", g2);
        let mut b = Network::new("b");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let g1 = b.add_gate(GateKind::Or, vec![x, y]);
        let g2 = b.add_gate(GateKind::And, vec![x, y]);
        b.add_output("p", g1);
        b.add_output("q", g2);
        let mut c = EquivChecker::new(&a);
        assert!(
            !c.try_check(&b).unwrap(),
            "swapped outputs are not equivalent"
        );
    }

    #[test]
    fn input_mismatch_is_an_error_not_a_panic() {
        let mut c = EquivChecker::new(&xor_net(0));
        let mut other = Network::new("y");
        let p = other.add_input("p");
        let q = other.add_input("q");
        let o = other.add_gate(GateKind::Xor, vec![p, q]);
        other.add_output("f", o);
        let err = c.try_check(&other).unwrap_err();
        match &err {
            Error::InputMismatch { expected, found } => {
                assert_eq!(expected, &["a", "b"]);
                assert_eq!(found, &["p", "q"]);
            }
            other => panic!("expected InputMismatch, got {other:?}"),
        }
        assert_eq!(err.exit_code(), 6);
    }

    #[test]
    fn traced_error_path_closes_the_span() {
        let mut c = EquivChecker::new(&xor_net(0));
        let mut other = Network::new("y");
        let p = other.add_input("p");
        other.add_output("f", p);
        let sink = TraceSink::new();
        {
            let mut buf = sink.buffer(0, "main");
            assert!(c.try_check_traced(&other, &mut buf).is_err());
            assert!(c.try_check_traced(&xor_net(1), &mut buf).unwrap());
        }
        let t = sink.take();
        assert_eq!(t.counter_totals()["verify.checks"], 2);
        // The error path closed its span: both checks are siblings at the
        // top level, not the second nested inside a dangling first.
        let roots = t.forest();
        assert_eq!(roots.len(), 2);
        assert!(roots
            .iter()
            .all(|r| r.name == "check" && r.children.is_empty()));
    }

    #[test]
    fn capped_checker_downgrades_to_simulation_and_still_verifies() {
        // A 12-input XOR chain needs well over 16 BDD nodes; the capped
        // checker must fall back to simulation at construction time and
        // still distinguish equivalent from inequivalent candidates.
        let build = |flip: bool| {
            let mut n = Network::new("chain");
            let ins: Vec<_> = (0..12).map(|i| n.add_input(format!("x{i}"))).collect();
            let mut acc = ins[0];
            for &i in &ins[1..] {
                acc = n.add_gate(GateKind::Xor, vec![acc, i]);
            }
            if flip {
                acc = n.add_gate(GateKind::Not, vec![acc]);
            }
            n.add_output("f", acc);
            n
        };
        let budget = Budget::default().bdd_node_cap(Some(16));
        let mut c = EquivChecker::with_budget(&build(false), &budget);
        assert!(!c.is_exact());
        assert!(c.downgraded());
        assert!(c.try_check(&build(false)).unwrap());
        assert!(!c.try_check(&build(true)).unwrap());
    }

    #[test]
    fn mid_check_downgrade_keeps_checking() {
        // The reference (a single AND) fits in a tight manager, but a
        // candidate with a wide XOR layer blows the cap mid-check. The
        // checker must downgrade and still return a verdict.
        let mut reference = Network::new("r");
        let ins: Vec<_> = (0..10)
            .map(|i| reference.add_input(format!("x{i}")))
            .collect();
        let g = reference.add_gate(GateKind::And, ins.clone());
        reference.add_output("f", g);

        let mut candidate = Network::new("c");
        let cins: Vec<_> = (0..10)
            .map(|i| candidate.add_input(format!("x{i}")))
            .collect();
        let mut acc = candidate.add_gate(GateKind::Xor, cins.clone());
        for &i in &cins {
            acc = candidate.add_gate(GateKind::Xor, vec![acc, i]);
        }
        let h = candidate.add_gate(GateKind::And, cins);
        let o = candidate.add_gate(GateKind::Or, vec![acc, h]);
        candidate.add_output("f", o);

        let budget = Budget::default().bdd_node_cap(Some(80));
        let mut c = EquivChecker::with_budget(&reference, &budget);
        assert!(c.is_exact(), "reference fits under the cap");
        let sink = TraceSink::new();
        {
            let mut buf = sink.buffer(0, "main");
            // XOR-of-everything XORed again with each input cancels to 0,
            // so the candidate reduces to the same AND — equivalent.
            assert!(c.try_check_traced(&candidate, &mut buf).unwrap());
        }
        assert!(c.downgraded());
        assert!(!c.is_exact());
        let t = sink.take();
        assert_eq!(t.counter_totals()["verify.downgraded"], 1);
    }

    #[test]
    fn try_network_bdds_reports_arity_and_budget() {
        let net = xor_net(0);
        let mut wrong = BddManager::new(3);
        assert!(matches!(
            try_network_bdds(&net, &mut wrong),
            Err(Error::Msg(_))
        ));
        let mut capped = BddManager::with_node_limit(2, 2);
        match try_network_bdds(&net, &mut capped) {
            Err(Error::Budget(b)) => assert_eq!(b.resource, Resource::BddNodes),
            other => panic!("expected budget error, got {other:?}"),
        }
    }
}
