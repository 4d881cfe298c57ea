//! A network of SOP nodes — the SIS/MIS working representation.

use crate::algebra::{self, covers_same, Factored};
use std::collections::{BTreeSet, HashMap};
use xsynth_boolean::{Cube, Sop};
use xsynth_net::{GateKind, Network, NodeKind, SignalId};

/// A multilevel network in which every internal node carries a
/// sum-of-products cover over *signals* (primary inputs and other nodes),
/// mirroring the SIS network data structure.
///
/// Signal numbering: signals `0..num_pis` are the primary inputs; signal
/// `num_pis + i` is the output of node `i`.
#[derive(Debug, Clone)]
pub struct SopNet {
    name: String,
    pi_names: Vec<String>,
    nodes: Vec<Option<Sop>>,
    outputs: Vec<(String, usize)>,
}

impl SopNet {
    /// Creates an empty SOP network.
    pub fn new(name: impl Into<String>) -> Self {
        SopNet {
            name: name.into(),
            pi_names: Vec::new(),
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.pi_names.len()
    }

    /// Adds a primary input; returns its signal index.
    pub fn add_pi(&mut self, name: impl Into<String>) -> usize {
        self.pi_names.push(name.into());
        self.pi_names.len() - 1
    }

    /// Adds a node with the given cover; returns its *signal* index.
    pub fn add_node(&mut self, cover: Sop) -> usize {
        self.nodes.push(Some(cover));
        self.num_pis() + self.nodes.len() - 1
    }

    /// Marks a signal as a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, signal: usize) {
        self.outputs.push((name.into(), signal));
    }

    /// The outputs as `(name, signal)` pairs.
    pub fn outputs(&self) -> &[(String, usize)] {
        &self.outputs
    }

    /// The cover of the node driving `signal`, if it is a live node.
    pub fn cover(&self, signal: usize) -> Option<&Sop> {
        signal
            .checked_sub(self.num_pis())
            .and_then(|i| self.nodes.get(i))
            .and_then(Option::as_ref)
    }

    fn cover_mut(&mut self, signal: usize) -> Option<&mut Sop> {
        let np = self.num_pis();
        signal
            .checked_sub(np)
            .and_then(|i| self.nodes.get_mut(i))
            .and_then(Option::as_mut)
    }

    /// Indices of all live node signals.
    pub fn live_signals(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_some())
            .map(|i| i + self.num_pis())
            .collect()
    }

    /// Total SOP literal count over live nodes (the SIS `lits(sop)`
    /// metric).
    pub fn num_sop_literals(&self) -> usize {
        self.nodes.iter().flatten().map(Sop::num_literals).sum()
    }

    /// Total factored-form literal count over live nodes (the SIS
    /// `lits(fac)` metric).
    pub fn num_factored_literals(&self) -> usize {
        self.nodes
            .iter()
            .flatten()
            .map(|s| algebra::factor(s).num_literals())
            .sum()
    }

    /// Builds a SOP network from a gate network: every gate becomes a node
    /// with its local cover (wide XORs are folded into chains of two-input
    /// XOR nodes, since XOR has no compact SOP).
    pub fn from_network(net: &Network) -> SopNet {
        let mut s = SopNet::new(net.name().to_string());
        let mut map: HashMap<SignalId, usize> = HashMap::new();
        for &i in net.inputs() {
            let sig = s.add_pi(net.node_name(i).unwrap_or("in"));
            map.insert(i, sig);
        }
        for id in net.topo_order() {
            let NodeKind::Gate(kind) = net.kind(id) else {
                continue;
            };
            let fan: Vec<usize> = net.fanins(id).iter().map(|f| map[f]).collect();
            let sig = s.build_gate(*kind, &fan);
            map.insert(id, sig);
        }
        for (name, sigid) in net.outputs() {
            s.add_output(name.clone(), map[sigid]);
        }
        s
    }

    fn build_gate(&mut self, kind: GateKind, fan: &[usize]) -> usize {
        use GateKind::*;
        match kind {
            Const0 => self.add_node(Sop::zero()),
            Const1 => self.add_node(Sop::one()),
            Buf => self.add_node(Sop::from_cubes([Cube::literal(fan[0], true)])),
            Not => self.add_node(Sop::from_cubes([Cube::literal(fan[0], false)])),
            And => self.add_node(Sop::from_cubes([
                Cube::new(fan.iter().copied(), []).expect("distinct signals")
            ])),
            Nand => self.add_node(Sop::from_cubes(
                fan.iter()
                    .map(|&f| Cube::literal(f, false))
                    .collect::<Vec<_>>(),
            )),
            Or => self.add_node(Sop::from_cubes(
                fan.iter()
                    .map(|&f| Cube::literal(f, true))
                    .collect::<Vec<_>>(),
            )),
            Nor => self.add_node(Sop::from_cubes([
                Cube::new([], fan.iter().copied()).expect("distinct signals")
            ])),
            Xor | Xnor => {
                // fold into binary xor nodes: ab' + a'b
                let mut acc = fan[0];
                for (k, &f) in fan.iter().enumerate().skip(1) {
                    let last = k + 1 == fan.len();
                    let invert = last && kind == Xnor;
                    let cover = if invert {
                        Sop::from_cubes([
                            Cube::new([acc, f], []).expect("distinct"),
                            Cube::new([], [acc, f]).expect("distinct"),
                        ])
                    } else {
                        Sop::from_cubes([
                            Cube::new([acc], [f]).expect("distinct"),
                            Cube::new([f], [acc]).expect("distinct"),
                        ])
                    };
                    acc = self.add_node(cover);
                }
                // single-fanin xor degenerates to buf / not
                if fan.len() == 1 {
                    let cover = if kind == Xnor {
                        Sop::from_cubes([Cube::literal(fan[0], false)])
                    } else {
                        Sop::from_cubes([Cube::literal(fan[0], true)])
                    };
                    acc = self.add_node(cover);
                }
                acc
            }
        }
    }

    /// Live node signals in dependency order (fanins before fanouts).
    ///
    /// # Panics
    ///
    /// Panics on a cyclic node definition.
    pub fn topo_signals(&self) -> Vec<usize> {
        let np = self.num_pis();
        let mut state = vec![0u8; self.nodes.len()]; // 0 white 1 grey 2 black
        let mut order = Vec::new();
        fn visit(s: &SopNet, node: usize, state: &mut [u8], order: &mut Vec<usize>, np: usize) {
            match state[node] {
                2 => return,
                1 => panic!("cyclic SOP network at node {node}"),
                _ => {}
            }
            state[node] = 1;
            if let Some(cover) = &s.nodes[node] {
                for v in cover.support().iter() {
                    if v >= np {
                        visit(s, v - np, state, order, np);
                    }
                }
            }
            state[node] = 2;
            order.push(node + np);
        }
        for i in 0..self.nodes.len() {
            if self.nodes[i].is_some() {
                visit(self, i, &mut state, &mut order, np);
            }
        }
        order
    }

    /// Evaluates every output for the PI assignment in `minterm`.
    pub fn eval_u64(&self, minterm: u64) -> Vec<bool> {
        let np = self.num_pis();
        let mut val: HashMap<usize, bool> = HashMap::new();
        for i in 0..np {
            val.insert(i, minterm & (1 << i) != 0);
        }
        for sig in self.topo_signals() {
            let cover = self.cover(sig).expect("topo yields live nodes");
            let v = cover.cubes().iter().any(|c| {
                c.positive().iter().all(|p| val[&p]) && c.negative().iter().all(|n| !val[&n])
            });
            val.insert(sig, v);
        }
        self.outputs.iter().map(|&(_, s)| val[&s]).collect()
    }

    /// Per-node two-level cleanup: nodes with at most 12 support signals
    /// are re-minimized exactly with the Minato-Morreale ISOP (the role
    /// `simplify`/espresso plays in the SIS scripts); wider nodes get
    /// contained-cube removal and distance-1 merging.
    pub fn simplify(&mut self) {
        for n in self.nodes.iter_mut().flatten() {
            let support: Vec<usize> = n.support().iter().collect();
            if support.len() <= 12 && n.num_cubes() <= 512 {
                let k = support.len();
                let cover = n.clone();
                let t = xsynth_boolean::TruthTable::from_fn(k, |m| {
                    cover.cubes().iter().any(|c| {
                        support.iter().enumerate().all(|(b, &v)| match c.phase(v) {
                            None => true,
                            Some(ph) => ph == (m & (1 << b) != 0),
                        })
                    })
                });
                let local = Sop::isop(&t);
                let mut cubes = Vec::new();
                for c in local.cubes() {
                    let mut mapped = Cube::universe();
                    for b in c.positive().iter() {
                        mapped.add_literal(support[b], true);
                    }
                    for b in c.negative().iter() {
                        mapped.add_literal(support[b], false);
                    }
                    cubes.push(mapped);
                }
                let candidate = Sop::from_cubes(cubes);
                if candidate.num_literals() <= n.num_literals() {
                    *n = candidate;
                }
            } else {
                n.remove_contained();
                n.merge_distance1();
                n.remove_contained();
            }
        }
    }

    /// The signal→fanout-node index of the live covers: entry `v` lists
    /// every live node signal whose cover references signal `v`.
    fn fanout_index(&self) -> Vec<Vec<usize>> {
        let mut fanouts = vec![Vec::new(); self.num_pis() + self.nodes.len()];
        for sig in self.live_signals() {
            for v in self.cover(sig).expect("live").support().iter() {
                fanouts[v].push(sig);
            }
        }
        fanouts
    }

    /// The `eliminate` key of node `signal`: `i64::MIN` for a dead node,
    /// otherwise the exact SOP-literal change that collapsing it into its
    /// fanouts would cause (negative = shrink). `None` when the node is not
    /// a candidate: it drives an output, is not live, exceeds `max_cover`,
    /// or needs an oversized complement.
    fn collapse_delta(
        &self,
        fanouts: &[Vec<usize>],
        drives_output: &[bool],
        signal: usize,
        max_cover: usize,
    ) -> Option<i64> {
        if drives_output[signal] {
            return None;
        }
        let cover = self.cover(signal)?;
        if fanouts[signal].is_empty() {
            return Some(i64::MIN);
        }
        if cover.num_cubes() > max_cover {
            return None;
        }
        let refs = || {
            fanouts[signal].iter().flat_map(move |&f| {
                let cubes = self.cover(f).expect("fanouts are live").cubes();
                cubes
                    .iter()
                    .filter_map(move |c| Some((c, c.phase(signal)?)))
            })
        };
        let complement = if refs().any(|(_, ph)| !ph) {
            if cover.num_cubes() > 24 {
                return None; // complement could blow up
            }
            Some(cover.complement())
        } else {
            None
        };
        let mut delta: i64 = -(cover.num_literals() as i64);
        for (c, ph) in refs() {
            let sub = if ph {
                cover
            } else {
                complement.as_ref().expect("computed when needed")
            };
            let mut rest = c.clone();
            rest.remove_var(signal);
            let new: i64 = sub
                .cubes()
                .iter()
                .filter_map(|sc| rest.intersect(sc))
                .map(|m| m.num_literals() as i64)
                .sum();
            delta += new - c.num_literals() as i64;
        }
        Some(delta)
    }

    /// Deletes node `signal`, first substituting its cover into every
    /// fanout (negative references use the Shannon complement), and keeps
    /// `fanouts` exact. Returns every signal whose `eliminate` key may have
    /// changed: the node's fanins, its fanouts, and the fanins those
    /// fanouts had before and after the rewrite.
    fn collapse(&mut self, fanouts: &mut [Vec<usize>], signal: usize) -> Vec<usize> {
        let np = self.num_pis();
        let cover = self.nodes[signal - np]
            .take()
            .expect("collapsing a live node");
        let mut touched: Vec<usize> = cover.support().iter().collect();
        for &v in &touched {
            unlink(&mut fanouts[v], signal);
        }
        let mut cover_neg = None;
        for f in std::mem::take(&mut fanouts[signal]) {
            let old = self.cover(f).expect("fanouts are live");
            let old_support = old.support();
            let mut new_cubes: Vec<Cube> = Vec::new();
            for c in old.cubes() {
                match c.phase(signal) {
                    None => new_cubes.push(c.clone()),
                    Some(ph) => {
                        let mut rest = c.clone();
                        rest.remove_var(signal);
                        let sub = if ph {
                            &cover
                        } else {
                            cover_neg.get_or_insert_with(|| cover.complement())
                        };
                        new_cubes.extend(sub.cubes().iter().filter_map(|sc| rest.intersect(sc)));
                    }
                }
            }
            let mut ns = Sop::from_cubes(new_cubes);
            ns.remove_contained();
            let new_support = ns.support();
            for v in old_support.iter() {
                if !new_support.contains(v) {
                    unlink(&mut fanouts[v], f);
                }
            }
            for v in new_support.iter() {
                if !old_support.contains(v) {
                    fanouts[v].push(f);
                }
            }
            touched.push(f);
            touched.extend(old_support.union(&new_support).iter());
            self.nodes[f - np] = Some(ns);
        }
        touched
    }

    /// SIS-style `eliminate`: repeatedly collapses the node whose exact
    /// literal delta is smallest (ties: lowest signal), as long as it is
    /// at most `threshold`. Dead nodes always go first, lowest signal
    /// first; `max_cover` guards against cube blowup.
    ///
    /// Incremental: a signal→fanout-node index is built once, every
    /// candidate's key sits in an ordered set, and a collapse recomputes
    /// only the keys it can change, so one round costs the work local to
    /// the collapsed node instead of a scan of every cover.
    pub fn eliminate(&mut self, threshold: i64, max_cover: usize) {
        let np = self.num_pis();
        let mut fanouts = self.fanout_index();
        let mut drives_output = vec![false; fanouts.len()];
        for &(_, s) in &self.outputs {
            drives_output[s] = true;
        }
        let key = |s: &SopNet, fanouts: &[Vec<usize>], sig| {
            s.collapse_delta(fanouts, &drives_output, sig, max_cover)
                .filter(|&d| d <= threshold)
        };
        let mut queue = KeyQueue::new(fanouts.len());
        for sig in self.live_signals() {
            queue.set(sig, key(self, &fanouts, sig));
        }
        while let Some(sig) = queue.first() {
            let mut touched = self.collapse(&mut fanouts, sig);
            touched.push(sig);
            touched.sort_unstable();
            touched.dedup();
            for t in touched.into_iter().filter(|&t| t >= np) {
                queue.set(t, key(self, &fanouts, t));
            }
        }
    }

    /// Greedy common-divisor extraction: collects kernels and common cubes
    /// from every node, evaluates each candidate's exact literal saving by
    /// trial division against all nodes, and extracts the best until no
    /// candidate saves literals. Returns the number of divisors extracted.
    pub fn extract(&mut self, max_new_nodes: usize) -> usize {
        let mut created = 0;
        while created < max_new_nodes {
            let Some((divisor, gain)) = self.best_divisor() else {
                break;
            };
            if gain <= 0 {
                break;
            }
            let y = self.add_node(divisor.clone());
            for sig in self.live_signals() {
                if sig == y {
                    continue;
                }
                let f = self.cover(sig).expect("live").clone();
                if let Some(nf) = rewrite_with_divisor(&f, &divisor, y) {
                    *self.cover_mut(sig).expect("live") = nf;
                }
            }
            created += 1;
        }
        created
    }

    /// The candidate divisor with the best total literal saving, if any.
    fn best_divisor(&self) -> Option<(Sop, i64)> {
        let mut candidates: Vec<Sop> = Vec::new();
        let push = |s: Sop, candidates: &mut Vec<Sop>| {
            if s.num_cubes() >= 1 && !candidates.iter().any(|c| covers_same(c, &s)) {
                candidates.push(s);
            }
        };
        for sig in self.live_signals() {
            let f = self.cover(sig).expect("live");
            if f.num_cubes() < 2 {
                continue;
            }
            for k in algebra::kernels(f, 30) {
                if k.kernel.num_cubes() >= 2 && !covers_same(&k.kernel, f) {
                    push(k.kernel, &mut candidates);
                }
            }
            // common cubes of pairs
            for (i, a) in f.cubes().iter().enumerate() {
                for b in f.cubes().iter().skip(i + 1) {
                    let pos = a.positive().intersection(b.positive());
                    let neg = a.negative().intersection(b.negative());
                    if pos.len() + neg.len() >= 2 {
                        let c = Cube::from_sets(pos, neg).expect("intersections disjoint");
                        push(Sop::from_cubes([c]), &mut candidates);
                    }
                }
            }
            if candidates.len() > 500 {
                break;
            }
        }
        let mut best: Option<(Sop, i64)> = None;
        for cand in candidates {
            let mut gain: i64 = -(cand.num_literals() as i64); // cost of the new node
            for sig in self.live_signals() {
                let f = self.cover(sig).expect("live");
                gain += rewrite_gain(f, &cand);
            }
            if best.as_ref().is_none_or(|(_, g)| gain > *g) && gain > 0 {
                best = Some((cand, gain));
            }
        }
        best
    }

    /// Algebraic resubstitution: for every ordered node pair, try dividing
    /// one node by another existing node (positive phase) and rewrite when
    /// it saves literals and keeps the network acyclic. Returns rewrites
    /// applied.
    pub fn resubstitute(&mut self) -> usize {
        let mut applied = 0;
        let sigs = self.live_signals();
        for &target in &sigs {
            for &divisor_sig in &sigs {
                if target == divisor_sig {
                    continue;
                }
                let Some(d) = self.cover(divisor_sig) else {
                    continue;
                };
                if d.num_cubes() < 2 {
                    continue;
                }
                let Some(f) = self.cover(target) else {
                    continue;
                };
                if f.support().contains(divisor_sig) {
                    continue; // already expressed through it
                }
                if rewrite_gain(f, d) <= 1 {
                    continue; // the new literal references an existing node,
                              // so require a real gain
                }
                // acyclic check: divisor must not depend on target
                if self.depends_on(divisor_sig, target) {
                    continue;
                }
                let f = f.clone();
                let d = d.clone();
                if let Some(nf) = rewrite_with_divisor(&f, &d, divisor_sig) {
                    *self.cover_mut(target).expect("live") = nf;
                    applied += 1;
                }
            }
        }
        applied
    }

    /// Whether the cone of `signal` (transitively) references `other`.
    pub fn depends_on(&self, signal: usize, other: usize) -> bool {
        if signal == other {
            return true;
        }
        let Some(cover) = self.cover(signal) else {
            return false;
        };
        cover
            .support()
            .iter()
            .any(|v| v == other || (v >= self.num_pis() && self.depends_on(v, other)))
    }

    /// Lowers the SOP network to a gate [`Network`], factoring every node
    /// cover into AND/OR/NOT gates with good-factor.
    pub fn to_network(&self) -> Network {
        let mut net = Network::new(self.name.clone());
        let mut map: HashMap<usize, SignalId> = HashMap::new();
        let mut not_cache: HashMap<SignalId, SignalId> = HashMap::new();
        for (i, name) in self.pi_names.iter().enumerate() {
            let s = net.add_input(name.clone());
            map.insert(i, s);
        }
        for sig in self.topo_signals() {
            let cover = self.cover(sig).expect("live");
            // keep two-cube XOR/XNOR covers as native XOR gates so the
            // FPRM flow's redundancy analysis still sees them after a
            // resubstitution round-trip
            let s = match detect_xor2(cover) {
                Some((a, b, inverted)) => {
                    let kind = if inverted {
                        GateKind::Xnor
                    } else {
                        GateKind::Xor
                    };
                    net.add_gate(kind, vec![map[&a], map[&b]])
                }
                None => {
                    let fac = algebra::factor(cover);
                    emit_factored(&fac, &mut net, &map, &mut not_cache)
                }
            };
            map.insert(sig, s);
        }
        for (name, sig) in &self.outputs {
            net.add_output(name.clone(), map[sig]);
        }
        net
    }
}

/// The `eliminate` candidates ordered by `(key, signal)`, with each
/// signal's current key so it can be re-keyed in place.
struct KeyQueue {
    keys: Vec<Option<i64>>,
    order: BTreeSet<(i64, usize)>,
}

impl KeyQueue {
    fn new(signals: usize) -> Self {
        KeyQueue {
            keys: vec![None; signals],
            order: BTreeSet::new(),
        }
    }

    /// The candidate with the smallest key, ties to the lowest signal.
    fn first(&self) -> Option<usize> {
        self.order.first().map(|&(_, sig)| sig)
    }

    fn set(&mut self, sig: usize, key: Option<i64>) {
        if let Some(old) = std::mem::replace(&mut self.keys[sig], key) {
            self.order.remove(&(old, sig));
        }
        if let Some(k) = key {
            self.order.insert((k, sig));
        }
    }
}

/// Removes `node` from one fanout list.
fn unlink(fanouts: &mut Vec<usize>, node: usize) {
    if let Some(i) = fanouts.iter().position(|&n| n == node) {
        fanouts.swap_remove(i);
    }
}

/// The literal saving from rewriting `f = q·y + r` with divisor `d` (the
/// new literal `y` counted), or 0 when `d` does not divide `f`.
fn rewrite_gain(f: &Sop, d: &Sop) -> i64 {
    let (q, r) = algebra::divide(f, d);
    if q.is_zero() {
        return 0;
    }
    let old = f.num_literals() as i64;
    let new = q.num_literals() as i64 + q.num_cubes() as i64 + r.num_literals() as i64;
    (old - new).max(0)
}

/// Rewrites `f` as `q·y + r` when that saves literals; `None` otherwise.
fn rewrite_with_divisor(f: &Sop, d: &Sop, y: usize) -> Option<Sop> {
    let (q, r) = algebra::divide(f, d);
    if q.is_zero() {
        return None;
    }
    let old = f.num_literals();
    let new = q.num_literals() + q.num_cubes() + r.num_literals();
    if new >= old {
        return None;
    }
    let mut cubes: Vec<Cube> = Vec::new();
    for qc in q.cubes() {
        let mut c = qc.clone();
        if !c.add_literal(y, true) {
            return None; // y clashed (cannot happen: y is fresh/absent)
        }
        cubes.push(c);
    }
    cubes.extend(r.cubes().iter().cloned());
    Some(Sop::from_cubes(cubes))
}

/// Recognizes `a·¬b + ¬a·b` (XOR) and `a·b + ¬a·¬b` (XNOR) covers;
/// returns `(a, b, is_xnor)`.
fn detect_xor2(cover: &Sop) -> Option<(usize, usize, bool)> {
    if cover.num_cubes() != 2 || cover.num_literals() != 4 {
        return None;
    }
    let (c0, c1) = (&cover.cubes()[0], &cover.cubes()[1]);
    let sup = c0.support();
    if sup != c1.support() || sup.len() != 2 {
        return None;
    }
    let mut vars = sup.iter();
    let (a, b) = (vars.next()?, vars.next()?);
    let p0: Option<(bool, bool)> = c0.phase(a).zip(c0.phase(b));
    let p1: Option<(bool, bool)> = c1.phase(a).zip(c1.phase(b));
    match (p0?, p1?) {
        ((true, false), (false, true)) | ((false, true), (true, false)) => Some((a, b, false)),
        ((true, true), (false, false)) | ((false, false), (true, true)) => Some((a, b, true)),
        _ => None,
    }
}

fn emit_factored(
    fac: &Factored,
    net: &mut Network,
    map: &HashMap<usize, SignalId>,
    not_cache: &mut HashMap<SignalId, SignalId>,
) -> SignalId {
    match fac {
        Factored::Zero => net.add_gate(GateKind::Const0, vec![]),
        Factored::One => net.add_gate(GateKind::Const1, vec![]),
        Factored::Literal(v, ph) => {
            let s = map[v];
            if *ph {
                s
            } else {
                *not_cache
                    .entry(s)
                    .or_insert_with(|| net.add_gate(GateKind::Not, vec![s]))
            }
        }
        Factored::And(xs) => {
            let fan: Vec<SignalId> = xs
                .iter()
                .map(|x| emit_factored(x, net, map, not_cache))
                .collect();
            net.add_gate(GateKind::And, fan)
        }
        Factored::Or(xs) => {
            let fan: Vec<SignalId> = xs
                .iter()
                .map(|x| emit_factored(x, net, map, not_cache))
                .collect();
            net.add_gate(GateKind::Or, fan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_net::GateKind;

    fn sample_network() -> Network {
        // two outputs sharing structure: o1 = ab + ac, o2 = ab + d
        let mut n = Network::new("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let ab = n.add_gate(GateKind::And, vec![a, b]);
        let ac = n.add_gate(GateKind::And, vec![a, c]);
        let o1 = n.add_gate(GateKind::Or, vec![ab, ac]);
        let o2 = n.add_gate(GateKind::Or, vec![ab, d]);
        n.add_output("o1", o1);
        n.add_output("o2", o2);
        n
    }

    fn check_equiv(s: &SopNet, net: &Network) {
        let n = net.inputs().len();
        for m in 0..(1u64 << n) {
            assert_eq!(s.eval_u64(m), net.eval_u64(m), "minterm {m}");
        }
    }

    #[test]
    fn from_network_preserves_function() {
        let net = sample_network();
        let s = SopNet::from_network(&net);
        check_equiv(&s, &net);
    }

    #[test]
    fn from_network_handles_xor_chain() {
        let mut net = Network::new("x");
        let ins: Vec<_> = (0..5).map(|i| net.add_input(format!("i{i}"))).collect();
        let x = net.add_gate(GateKind::Xor, ins.clone());
        let nx = net.add_gate(GateKind::Xnor, ins);
        net.add_output("x", x);
        net.add_output("nx", nx);
        let s = SopNet::from_network(&net);
        check_equiv(&s, &net);
    }

    #[test]
    fn eliminate_collapses_small_nodes() {
        let net = sample_network();
        let mut s = SopNet::from_network(&net);
        s.eliminate(10, 64);
        // the and/or structure should fold into two SOP nodes (the outputs)
        assert_eq!(s.live_signals().len(), 2);
        check_equiv(&s, &net);
    }

    #[test]
    fn collapse_respects_negative_references() {
        let mut s = SopNet::new("neg");
        let a = s.add_pi("a");
        let b = s.add_pi("b");
        let t = s.add_node(Sop::from_cubes([Cube::new([a, b], []).unwrap()]));
        // f = ¬t
        let f = s.add_node(Sop::from_cubes([Cube::literal(t, false)]));
        s.add_output("f", f);
        s.eliminate(0, 64);
        assert!(s.cover(t).is_none(), "t collapses into f");
        // f must now be ¬a + ¬b
        for m in 0..4u64 {
            let expect = !(m & 1 != 0 && m & 2 != 0);
            assert_eq!(s.eval_u64(m), vec![expect], "at {m}");
        }
    }

    #[test]
    fn eliminate_keeps_output_nodes() {
        let net = sample_network();
        let mut s = SopNet::from_network(&net);
        s.eliminate(i64::MAX, usize::MAX);
        for &(_, sig) in s.outputs() {
            assert!(s.cover(sig).is_some(), "output node {sig} survives");
        }
        assert_eq!(s.live_signals().len(), 2);
        check_equiv(&s, &net);
    }

    #[test]
    fn extract_shares_common_kernel() {
        // f1 = ac + bc, f2 = ad + bd share kernel (a+b)
        let mut s = SopNet::new("e");
        let a = s.add_pi("a");
        let b = s.add_pi("b");
        let c = s.add_pi("c");
        let d = s.add_pi("d");
        let f1 = s.add_node(Sop::from_cubes([
            Cube::new([a, c], []).unwrap(),
            Cube::new([b, c], []).unwrap(),
        ]));
        let f2 = s.add_node(Sop::from_cubes([
            Cube::new([a, d], []).unwrap(),
            Cube::new([b, d], []).unwrap(),
        ]));
        s.add_output("f1", f1);
        s.add_output("f2", f2);
        let before = s.num_sop_literals();
        let made = s.extract(10);
        assert!(made >= 1, "kernel a+b should be extracted");
        assert!(s.num_sop_literals() < before);
        for m in 0..16u64 {
            let (av, bv, cv, dv) = (m & 1 != 0, m & 2 != 0, m & 4 != 0, m & 8 != 0);
            assert_eq!(
                s.eval_u64(m),
                vec![(av || bv) && cv, (av || bv) && dv],
                "at {m}"
            );
        }
    }

    #[test]
    fn to_network_roundtrip() {
        let net = sample_network();
        let mut s = SopNet::from_network(&net);
        s.eliminate(5, 64);
        s.extract(10);
        let back = s.to_network();
        for m in 0..16u64 {
            assert_eq!(back.eval_u64(m), net.eval_u64(m), "at {m}");
        }
    }

    #[test]
    fn resubstitute_uses_existing_node() {
        // f1 = a + b (node), f2 = ac + bc → f2 = f1·c
        let mut s = SopNet::new("r");
        let a = s.add_pi("a");
        let b = s.add_pi("b");
        let c = s.add_pi("c");
        let f1 = s.add_node(Sop::from_cubes([
            Cube::literal(a, true),
            Cube::literal(b, true),
        ]));
        let f2 = s.add_node(Sop::from_cubes([
            Cube::new([a, c], []).unwrap(),
            Cube::new([b, c], []).unwrap(),
        ]));
        s.add_output("f1", f1);
        s.add_output("f2", f2);
        let n = s.resubstitute();
        assert_eq!(n, 1);
        assert_eq!(s.cover(f2).unwrap().num_literals(), 2, "f2 = f1·c");
        for m in 0..8u64 {
            let (av, bv, cv) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
            assert_eq!(s.eval_u64(m), vec![av || bv, (av || bv) && cv]);
        }
    }

    #[test]
    fn dead_node_elimination() {
        let mut s = SopNet::new("d");
        let a = s.add_pi("a");
        let _dead = s.add_node(Sop::from_cubes([Cube::literal(a, true)]));
        let live = s.add_node(Sop::from_cubes([Cube::literal(a, false)]));
        s.add_output("o", live);
        s.eliminate(-100, 64);
        assert_eq!(s.live_signals().len(), 1);
    }

    /// The quadratic `eliminate` the incremental one replaced: every round
    /// rescans every cover for every node. Kept as the oracle whose picks,
    /// and so whose covers, the incremental version must reproduce.
    mod reference {
        use super::*;

        fn drives_output(s: &SopNet, signal: usize) -> bool {
            s.outputs.iter().any(|&(_, o)| o == signal)
        }

        fn num_uses(s: &SopNet, signal: usize) -> usize {
            let refs = s.nodes.iter().flatten().flat_map(Sop::cubes);
            let uses = refs.filter(|c| c.phase(signal).is_some()).count();
            uses + s.outputs.iter().filter(|&&(_, o)| o == signal).count()
        }

        fn collapse_delta(s: &SopNet, signal: usize, max_cover: usize) -> Option<i64> {
            if signal < s.num_pis() || drives_output(s, signal) {
                return None;
            }
            let cover = s.cover(signal)?;
            if cover.num_cubes() > max_cover {
                return None;
            }
            if num_uses(s, signal) == 0 {
                return Some(-(cover.num_literals() as i64));
            }
            let refs = s.nodes.iter().flatten().flat_map(Sop::cubes);
            let complement = if refs.clone().any(|c| c.phase(signal) == Some(false)) {
                if cover.num_cubes() > 24 {
                    return None;
                }
                Some(cover.complement())
            } else {
                None
            };
            let mut delta: i64 = -(cover.num_literals() as i64);
            for c in refs {
                let Some(ph) = c.phase(signal) else { continue };
                let sub = if ph {
                    cover
                } else {
                    complement.as_ref().unwrap()
                };
                let mut rest = c.clone();
                rest.remove_var(signal);
                let new: i64 = sub
                    .cubes()
                    .iter()
                    .filter_map(|sc| rest.intersect(sc))
                    .map(|m| m.num_literals() as i64)
                    .sum();
                delta += new - c.num_literals() as i64;
            }
            Some(delta)
        }

        fn collapse(s: &mut SopNet, signal: usize) {
            let np = s.num_pis();
            let cover = s.cover(signal).unwrap().clone();
            let cover_neg = cover.complement();
            for i in 0..s.nodes.len() {
                let Some(f) = &s.nodes[i] else { continue };
                if i + np == signal || !f.support().contains(signal) {
                    continue;
                }
                let mut new_cubes: Vec<Cube> = Vec::new();
                for c in f.cubes() {
                    match c.phase(signal) {
                        None => new_cubes.push(c.clone()),
                        Some(ph) => {
                            let mut rest = c.clone();
                            rest.remove_var(signal);
                            let sub = if ph { &cover } else { &cover_neg };
                            new_cubes
                                .extend(sub.cubes().iter().filter_map(|sc| rest.intersect(sc)));
                        }
                    }
                }
                let mut ns = Sop::from_cubes(new_cubes);
                ns.remove_contained();
                s.nodes[i] = Some(ns);
            }
            s.nodes[signal - np] = None;
        }

        pub fn eliminate(s: &mut SopNet, threshold: i64, max_cover: usize) {
            loop {
                let mut best: Option<(usize, i64)> = None;
                for sig in s.live_signals() {
                    if num_uses(s, sig) == 0 && !drives_output(s, sig) {
                        best = Some((sig, i64::MIN));
                        break;
                    }
                    if let Some(delta) = collapse_delta(s, sig, max_cover) {
                        if delta <= threshold && best.is_none_or(|(_, v)| delta < v) {
                            best = Some((sig, delta));
                        }
                    }
                }
                let Some((sig, _)) = best else { break };
                if num_uses(s, sig) == 0 {
                    let np = s.num_pis();
                    s.nodes[sig - np] = None;
                } else {
                    collapse(s, sig);
                }
            }
        }
    }

    /// Runs `eliminate` and the reference on copies of `s`, asserts they
    /// leave identical covers, and keeps the result in `s`.
    fn eliminate_like_reference(s: &mut SopNet, threshold: i64, max_cover: usize, what: &str) {
        let mut expect = s.clone();
        reference::eliminate(&mut expect, threshold, max_cover);
        s.eliminate(threshold, max_cover);
        assert!(
            s.nodes == expect.nodes,
            "{what}: eliminate({threshold}, {max_cover}) diverged from the reference"
        );
    }

    /// Every registry row, at the parameter sets of `eliminate`'s callers:
    /// both eliminates of `script_algebraic` (the second one after
    /// extraction and resubstitution), `synthesize_blocks` and the FPRM
    /// flow's sharing pass.
    fn registry_oracle(caller: fn(&str, Network)) {
        let rows = xsynth_circuits::registry();
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(row) = rows.get(i) else { break };
                    caller(row.name, xsynth_circuits::build(row.name).unwrap());
                });
            }
        });
    }

    #[test]
    fn eliminate_matches_reference_in_the_sop_script() {
        registry_oracle(|name, net| {
            let mut s = SopNet::from_network(&net.sweep());
            eliminate_like_reference(&mut s, 4, 256, name);
            s.simplify();
            s.extract(400);
            s.resubstitute();
            s.simplify();
            eliminate_like_reference(&mut s, 0, 256, name);
        });
    }

    #[test]
    fn eliminate_matches_reference_in_the_fprm_flow() {
        registry_oracle(|name, net| {
            eliminate_like_reference(&mut SopNet::from_network(&net), 8, 64, name);
            let mut s = SopNet::from_network(&net);
            eliminate_like_reference(&mut s, 0, 16, name);
            s.resubstitute();
            s.extract(128);
            eliminate_like_reference(&mut s, 0, 16, name);
        });
    }

    /// A random SOP network: every node covers random cubes over the
    /// primary inputs and earlier nodes, in both phases, and the outputs
    /// are a random mix of inputs and internal nodes.
    fn random_sopnet(seed: u64, pis: usize, nodes: usize) -> SopNet {
        let mut rng = seed | 1;
        let mut next = move |m: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % m
        };
        let mut s = SopNet::new("rand");
        for i in 0..pis {
            s.add_pi(format!("x{i}"));
        }
        for _ in 0..nodes {
            let signals = s.num_pis() + s.nodes.len();
            let cubes: Vec<Cube> = (0..1 + next(4))
                .filter_map(|_| {
                    let mut c = Cube::universe();
                    for _ in 0..1 + next(3) {
                        c.add_literal(next(signals as u64) as usize, next(3) != 0);
                    }
                    (!c.is_universe()).then_some(c)
                })
                .collect();
            s.add_node(Sop::from_cubes(cubes));
        }
        let signals = s.num_pis() + s.nodes.len();
        for o in 0..1 + next(3) {
            let sig = if next(4) == 0 {
                next(pis as u64) as usize
            } else {
                pis + next(nodes as u64) as usize
            };
            s.add_output(format!("o{o}"), sig);
        }
        assert!(signals > pis);
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn eliminate_matches_reference_on_random_networks(
            seed in proptest::prelude::any::<u64>(),
            pis in 1usize..6,
            nodes in 1usize..12,
            threshold in 0u64..13,
            max_cover in 1usize..6,
        ) {
            let threshold = threshold as i64 - 3;
            let mut s = random_sopnet(seed, pis, nodes);
            let before: Vec<Vec<bool>> = (0..1u64 << pis).map(|m| s.eval_u64(m)).collect();
            eliminate_like_reference(&mut s, threshold, max_cover, "random");
            for (m, want) in before.iter().enumerate() {
                proptest::prop_assert_eq!(&s.eval_u64(m as u64), want, "minterm {}", m);
            }
        }
    }
}
