//! The flat node storage behind `Network`: fanin lists rewritten in place
//! or appended, input names kept apart from gates, and rebuilds (`sweep`,
//! `strash`) that keep every output function of every registry circuit.

use xsynth_net::{GateKind, Network, SignalId};

/// `(a, b, c, g = and(a, b, c), h = or(g, a))` with `h` as the output.
fn and3_or() -> (Network, [SignalId; 5]) {
    let mut n = Network::new("r");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let g = n.add_gate(GateKind::And, vec![a, b, c]);
    let h = n.add_gate(GateKind::Or, vec![g, a]);
    n.add_output("h", h);
    (n, [a, b, c, g, h])
}

#[test]
fn replace_gate_with_a_shorter_fanin_list() {
    let (mut n, [a, b, _, g, h]) = and3_or();
    n.replace_gate(g, GateKind::Xor, vec![b, a]);
    assert_eq!(n.fanins(g), &[b, a]);
    assert_eq!(n.fanins(h), &[g, a], "the neighbouring list is untouched");
    assert_eq!(n.gate_kind(g), Some(GateKind::Xor));
    for m in 0..8u64 {
        let (av, bv) = (m & 1 != 0, m & 2 != 0);
        assert_eq!(n.eval_u64(m), vec![(av ^ bv) || av], "at {m}");
    }
}

#[test]
fn replace_gate_with_a_longer_fanin_list() {
    let (mut n, [a, b, c, g, h]) = and3_or();
    n.replace_gate(h, GateKind::Xor, vec![g, a, b, c]);
    assert_eq!(n.fanins(h), &[g, a, b, c]);
    assert_eq!(
        n.fanins(g),
        &[a, b, c],
        "the neighbouring list is untouched"
    );
    n.replace_gate(g, GateKind::Nor, vec![c]);
    assert_eq!(n.fanins(g), &[c]);
    assert_eq!(n.fanins(h), &[g, a, b, c]);
    for m in 0..8u64 {
        let (av, bv, cv) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
        assert_eq!(n.eval_u64(m), vec![!cv ^ av ^ bv ^ cv], "at {m}");
    }
}

#[test]
fn inputs_added_after_gates_keep_their_names() {
    let mut n = Network::new("late");
    let a = n.add_input("alpha");
    let na = n.add_gate(GateKind::Not, vec![a]);
    let b = n.add_input("β-input");
    let g = n.add_gate(GateKind::And, vec![na, b]);
    let c = n.add_input("");
    n.add_output("o", g);
    assert_eq!(n.node_name(a), Some("alpha"));
    assert_eq!(n.node_name(b), Some("β-input"));
    assert_eq!(n.node_name(c), Some(""), "an empty name is still a name");
    assert_eq!(n.node_name(na), None, "gates have no name");
    assert_eq!(n.node_name(g), None);
    assert!(n.fanins(b).is_empty(), "inputs have no fanins");
    assert_eq!(n.inputs(), &[a, b, c]);
    let s = n.sweep();
    let names: Vec<_> = s.inputs().iter().map(|&i| s.node_name(i)).collect();
    assert_eq!(names, [Some("alpha"), Some("β-input"), Some("")]);
}

/// Input assignments for `n` inputs: all of them up to 12 inputs, else 512
/// seeded pseudo-random ones.
fn assignments(n: usize) -> Vec<Vec<bool>> {
    if n <= 12 {
        return (0..1u64 << n)
            .map(|m| (0..n).map(|i| m & (1 << i) != 0).collect())
            .collect();
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..512)
        .map(|_| {
            (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & 1 != 0
                })
                .collect()
        })
        .collect()
}

#[test]
fn sweep_and_strash_preserve_every_registry_row() {
    for row in xsynth_circuits::registry() {
        let net = xsynth_circuits::build(row.name).expect("registered");
        let rebuilt = [("sweep", net.sweep()), ("strash", net.strash())];
        for (what, r) in &rebuilt {
            let names = |n: &Network| -> Vec<String> {
                n.inputs()
                    .iter()
                    .map(|&i| n.node_name(i).expect("inputs are named").to_string())
                    .collect()
            };
            assert_eq!(names(r), names(&net), "{}: {what} input names", row.name);
        }
        let n = net.inputs().len();
        for v in assignments(n) {
            let want = if n <= 64 {
                let m = v.iter().rev().fold(0u64, |m, &b| m << 1 | b as u64);
                net.eval_u64(m)
            } else {
                net.eval(&v)
            };
            for (what, r) in &rebuilt {
                let got = if n <= 64 {
                    let m = v.iter().rev().fold(0u64, |m, &b| m << 1 | b as u64);
                    r.eval_u64(m)
                } else {
                    r.eval(&v)
                };
                assert_eq!(got, want, "{}: {what} changed an output", row.name);
            }
        }
    }
}
