//! Algebraic factorization of FPRM forms (Section 3 of the paper).
//!
//! Two methods are provided, exactly as in the paper:
//!
//! * **Method 1 — the cube method** ([`factor_cubes`]): takes the FPRM cube
//!   list, divides it into groups with disjoint support (step 2), divides
//!   each group into subgroups with maximal common support by recursively
//!   factoring on the most frequent variable (steps 3–4, rule (d)), applies
//!   the Reduction rules, and joins group subnetworks by a balanced binary
//!   XOR tree (step 5).
//! * **Method 2 — the OFDD method** ([`ofdd_to_network`]): translates each
//!   OFDD node into one AND and one XOR gate implementing its Davio
//!   expansion, sharing common subgraphs, in a single traversal.

use crate::expr::Gexpr;
use std::collections::HashMap;
use xsynth_boolean::{Polarity, VarSet};
use xsynth_net::{GateKind, Network, SignalId};
use xsynth_ofdd::{Ofdd, OfddManager};

/// Factors an FPRM cube list into a [`Gexpr`] (the cube method).
///
/// When `apply_rules` is set, the paper's Reduction rules (a)–(c) rewrite
/// reducible XOR operators into AND/OR during factorization; otherwise the
/// expression keeps every XOR (assumption (3) of Section 4, which the
/// redundancy-removal pass expects).
pub fn factor_cubes(cubes: &[VarSet], apply_rules: bool) -> Gexpr {
    xsynth_trace::fail_point!("core.factor");
    // Assumption (2): the constant-one cube becomes an inverter at the
    // primary output (f = g ⊕ 1 = ¬g).
    let constant_parity = cubes.iter().filter(|c| c.is_empty()).count() % 2 == 1;
    let proper: Vec<VarSet> = cubes.iter().filter(|c| !c.is_empty()).cloned().collect();
    let body = factor_set(&proper);
    let body = if apply_rules {
        body.apply_rules()
    } else {
        body.normalize()
    };
    if constant_parity {
        Gexpr::Not(Box::new(body)).normalize()
    } else {
        body
    }
}

/// Step 2: partitions cubes into groups with pairwise-disjoint support.
#[allow(clippy::needless_range_loop)]
pub fn disjoint_groups(cubes: &[VarSet]) -> Vec<Vec<VarSet>> {
    let n = cubes.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if !cubes[i].is_disjoint(&cubes[j]) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut groups: HashMap<usize, Vec<VarSet>> = HashMap::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(cubes[i].clone());
    }
    let mut out: Vec<Vec<VarSet>> = groups.into_values().collect();
    out.sort_by_key(|g| g.iter().map(VarSet::min_var).min().flatten());
    out
}

/// Factors a cube set: groups disjointly, factors each group and joins the
/// results with a balanced XOR tree.
fn factor_set(cubes: &[VarSet]) -> Gexpr {
    if cubes.is_empty() {
        return Gexpr::Zero;
    }
    let groups = disjoint_groups(cubes);
    let exprs: Vec<Gexpr> = groups.iter().map(|g| factor_group(g)).collect();
    match exprs.len() {
        1 => exprs.into_iter().next().expect("one"),
        _ => Gexpr::Xor(exprs),
    }
}

/// Steps 3–4 on a connected group: factor out the most frequent variable
/// (Factorization rule (d)), recursing into both halves.
fn factor_group(cubes: &[VarSet]) -> Gexpr {
    if cubes.is_empty() {
        return Gexpr::Zero;
    }
    if cubes.len() == 1 {
        return Gexpr::cube(cubes[0].iter());
    }
    // most frequent variable
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for c in cubes {
        for v in c.iter() {
            *counts.entry(v).or_default() += 1;
        }
    }
    let (&best_var, &best_count) = counts
        .iter()
        .max_by_key(|&(v, c)| (*c, std::cmp::Reverse(*v)))
        .expect("non-empty cubes");
    if best_count < 2 {
        // no shareable variable: plain XOR of cube terms
        return Gexpr::Xor(cubes.iter().map(|c| Gexpr::cube(c.iter())).collect());
    }
    let mut with_v: Vec<VarSet> = Vec::new();
    let mut without: Vec<VarSet> = Vec::new();
    for c in cubes {
        if c.contains(best_var) {
            let mut c2 = c.clone();
            c2.remove(best_var);
            with_v.push(c2);
        } else {
            without.push(c.clone());
        }
    }
    // the inner part may contain the empty cube (the factored literal
    // alone); empty cubes XOR-accumulate into a parity bit
    let inner_parity = with_v.iter().filter(|c| c.is_empty()).count() % 2 == 1;
    let proper: Vec<VarSet> = with_v.into_iter().filter(|c| !c.is_empty()).collect();
    let inner = if proper.is_empty() {
        if inner_parity {
            Gexpr::One
        } else {
            Gexpr::Zero
        }
    } else {
        let e = factor_set(&proper);
        if inner_parity {
            Gexpr::Xor(vec![e, Gexpr::One])
        } else {
            e
        }
    };
    let term = Gexpr::And(vec![Gexpr::Lit(best_var), inner]);
    if without.is_empty() {
        term
    } else {
        let rest = factor_set(&without);
        Gexpr::Xor(vec![term, rest])
    }
}

/// Lowers an OFDD into gates (the paper's Method 2): each internal node
/// becomes `lo ⊕ λ·hi` (one AND + one two-input XOR), with DAG sharing
/// preserved, in one topological traversal. Returns the signal of the
/// root.
///
/// `literal_sig` supplies the polarity-adjusted literal signal of a
/// variable (as in [`Gexpr::emit`]).
pub fn ofdd_to_network(
    om: &OfddManager,
    root: Ofdd,
    net: &mut Network,
    literal_sig: &mut dyn FnMut(&mut Network, usize) -> SignalId,
) -> SignalId {
    if root == Ofdd::ZERO {
        return net.add_gate(GateKind::Const0, vec![]);
    }
    if root == Ofdd::ONE {
        return net.add_gate(GateKind::Const1, vec![]);
    }
    let mut map: HashMap<Ofdd, SignalId> = HashMap::new();
    for (h, var, lo, hi) in om.topo_nodes(root) {
        let lit = literal_sig(net, var);
        // hi is never ZERO in a reduced OFDD
        let and_part = if hi == Ofdd::ONE {
            lit
        } else {
            net.add_gate(GateKind::And, vec![lit, map[&hi]])
        };
        let sig = match lo {
            Ofdd::ZERO => and_part,
            Ofdd::ONE => net.add_gate(GateKind::Not, vec![and_part]),
            _ => net.add_gate(GateKind::Xor, vec![map[&lo], and_part]),
        };
        map.insert(h, sig);
    }
    map[&root]
}

/// Builds a literal-signal supplier for a polarity over a fixed input
/// list: positive literals are the inputs themselves, negative literals
/// get one shared NOT gate per variable.
pub fn literal_supplier(
    polarity: &Polarity,
    inputs: &[SignalId],
) -> impl FnMut(&mut Network, usize) -> SignalId {
    let polarity = polarity.clone();
    let inputs = inputs.to_vec();
    let mut not_cache: HashMap<usize, SignalId> = HashMap::new();
    move |net: &mut Network, v: usize| {
        if polarity.is_positive(v) {
            inputs[v]
        } else {
            *not_cache
                .entry(v)
                .or_insert_with(|| net.add_gate(GateKind::Not, vec![inputs[v]]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_boolean::{Fprm, TruthTable};

    fn check_expr_matches_fprm(cubes: &[VarSet], n: usize, apply_rules: bool) {
        let f = Fprm::new(Polarity::all_positive(n), cubes.to_vec());
        let e = factor_cubes(cubes, apply_rules);
        for m in 0..(1u64 << n) {
            let env = |v: usize| m & (1 << v) != 0;
            assert_eq!(e.eval(&env), f.eval(m), "mismatch at {m} for {e}");
        }
    }

    #[test]
    fn disjoint_grouping() {
        let cubes = vec![
            VarSet::from_vars([0, 1]),
            VarSet::from_vars([2]),
            VarSet::from_vars([1, 3]),
            VarSet::from_vars([4, 5]),
        ];
        let groups = disjoint_groups(&cubes);
        assert_eq!(groups.len(), 3);
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert!(sizes.contains(&2), "cubes sharing x1 group together");
    }

    #[test]
    fn factoring_preserves_function() {
        let cubes = vec![
            VarSet::from_vars([0, 1]),
            VarSet::from_vars([0, 2]),
            VarSet::from_vars([3]),
            VarSet::from_vars([1, 2, 3]),
        ];
        check_expr_matches_fprm(&cubes, 4, false);
        check_expr_matches_fprm(&cubes, 4, true);
    }

    #[test]
    fn factoring_shares_common_variable() {
        // x0x1 ⊕ x0x2 ⊕ x0x3 = x0(x1 ⊕ x2 ⊕ x3): 4 literals
        let cubes = vec![
            VarSet::from_vars([0, 1]),
            VarSet::from_vars([0, 2]),
            VarSet::from_vars([0, 3]),
        ];
        let e = factor_cubes(&cubes, false);
        assert_eq!(e.num_literals(), 4, "{e}");
        check_expr_matches_fprm(&cubes, 4, false);
    }

    #[test]
    fn constant_cube_becomes_top_inverter() {
        // 1 ⊕ x0x1
        let cubes = vec![VarSet::new(), VarSet::from_vars([0, 1])];
        let e = factor_cubes(&cubes, false);
        assert!(matches!(e, Gexpr::Not(_)), "{e}");
        check_expr_matches_fprm(&cubes, 2, false);
    }

    #[test]
    fn adder_sum_factors_well() {
        // z4ml's x26 (paper): x3 ⊕ x6 ⊕ x1x4 ⊕ x1x7 ⊕ x4x7 — renumbered to
        // 0..5: a ⊕ b ⊕ cd ⊕ ce ⊕ de
        let cubes = vec![
            VarSet::from_vars([0]),
            VarSet::from_vars([1]),
            VarSet::from_vars([2, 3]),
            VarSet::from_vars([2, 4]),
            VarSet::from_vars([3, 4]),
        ];
        check_expr_matches_fprm(&cubes, 5, false);
        check_expr_matches_fprm(&cubes, 5, true);
        let e = factor_cubes(&cubes, false);
        // factoring shares one variable: ≤ 7 literals vs 8 flat
        assert!(e.num_literals() <= 7, "{e}");
    }

    #[test]
    fn random_cube_sets_roundtrip() {
        let mut seed = 77u64;
        let mut rand = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(99991);
            (seed >> 33) as usize
        };
        for _ in 0..40 {
            let n = 5;
            let m = 1 + rand() % 6;
            let mut cubes = Vec::new();
            for _ in 0..m {
                let mut c = VarSet::new();
                for v in 0..n {
                    if rand() % 3 == 0 {
                        c.insert(v);
                    }
                }
                cubes.push(c);
            }
            // XOR algebra: duplicate cubes cancel; keep as-is, the factored
            // expression must match the Fprm evaluation which also xors.
            check_expr_matches_fprm(&cubes, n, false);
            check_expr_matches_fprm(&cubes, n, true);
        }
    }

    #[test]
    fn ofdd_method_matches_function() {
        let t = TruthTable::from_fn(6, |m| (m * 11 + 2) % 7 < 3);
        for pol_idx in [0u64, 0b101010, 0b111111] {
            let pol = Polarity::from_index(6, pol_idx);
            let mut om = OfddManager::new(pol.clone());
            let o = om.from_table(&t);
            let mut net = Network::new("m2");
            let inputs: Vec<SignalId> = (0..6).map(|i| net.add_input(format!("x{i}"))).collect();
            let mut lits = literal_supplier(&pol, &inputs);
            let s = ofdd_to_network(&om, o, &mut net, &mut lits);
            net.add_output("f", s);
            for m in 0..64u64 {
                assert_eq!(net.eval_u64(m)[0], t.eval(m), "pol {pol_idx} m {m}");
            }
        }
    }

    #[test]
    fn ofdd_method_xor_gates_are_binary() {
        let t = TruthTable::from_fn(5, |m| m.count_ones() >= 3);
        let pol = Polarity::all_positive(5);
        let mut om = OfddManager::new(pol.clone());
        let o = om.from_table(&t);
        let mut net = Network::new("m2b");
        let inputs: Vec<SignalId> = (0..5).map(|i| net.add_input(format!("x{i}"))).collect();
        let mut lits = literal_supplier(&pol, &inputs);
        let s = ofdd_to_network(&om, o, &mut net, &mut lits);
        net.add_output("f", s);
        for id in net.topo_order() {
            if net.gate_kind(id) == Some(GateKind::Xor) {
                assert_eq!(net.fanins(id).len(), 2);
            }
        }
    }

    #[test]
    fn ofdd_method_constants() {
        let pol = Polarity::all_positive(3);
        let mut om = OfddManager::new(pol.clone());
        let zero = om.from_table(&TruthTable::zero(3));
        let mut net = Network::new("c");
        let inputs: Vec<SignalId> = (0..3).map(|i| net.add_input(format!("x{i}"))).collect();
        let mut lits = literal_supplier(&pol, &inputs);
        let s = ofdd_to_network(&om, zero, &mut net, &mut lits);
        net.add_output("z", s);
        assert_eq!(net.eval_u64(5), vec![false]);
    }

    #[test]
    fn parity_balanced_tree_depth() {
        // 8-var parity through the cube method: the balanced XOR join
        // should give depth ~log2(8) in XOR gates
        let cubes: Vec<VarSet> = (0..8).map(VarSet::singleton).collect();
        let e = factor_cubes(&cubes, false);
        assert_eq!(e.num_xor_ops(), 7);
        let mut net = Network::new("p");
        let inputs: Vec<SignalId> = (0..8).map(|i| net.add_input(format!("x{i}"))).collect();
        let pol = Polarity::all_positive(8);
        let mut lits = literal_supplier(&pol, &inputs);
        let s = e.emit(&mut net, &mut lits);
        net.add_output("p", s);
        // depth check
        let mut depth: HashMap<SignalId, usize> = HashMap::new();
        let mut max_depth = 0;
        for id in net.topo_order() {
            let d = net
                .fanins(id)
                .iter()
                .map(|f| depth[f] + 1)
                .max()
                .unwrap_or(0);
            depth.insert(id, d);
            max_depth = max_depth.max(d);
        }
        assert!(max_depth <= 4, "balanced tree expected, depth {max_depth}");
    }
}
