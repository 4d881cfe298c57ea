//! The benchmark's own correctness check.
//!
//! It compares a result network with its specification by plain
//! `Network::eval`, matching inputs and outputs by name: on every input
//! vector up to [`EXHAUSTIVE_INPUTS`] inputs, and on seeded random vectors
//! above that. It shares no code with synthesis or with `EquivChecker`.

use crate::gen::Rng;
use xsynth_net::Network;

/// Widest input count checked exhaustively.
pub const EXHAUSTIVE_INPUTS: usize = 16;

/// Random vectors checked above [`EXHAUSTIVE_INPUTS`] inputs.
pub const RANDOM_VECTORS: usize = 2048;

/// Checks that `got` computes the outputs of `spec` it names.
///
/// # Errors
///
/// A message naming the first missing signal or the first differing output.
pub fn check(spec: &Network, got: &Network, seed: u64) -> Result<(), String> {
    let spec_inputs: Vec<&str> = spec
        .inputs()
        .iter()
        .map(|&i| spec.node_name(i).unwrap_or(""))
        .collect();
    // got input k takes the value of spec input perm[k]
    let mut perm = Vec::with_capacity(got.inputs().len());
    for &i in got.inputs() {
        let label = got.node_name(i).unwrap_or("");
        let at = spec_inputs
            .iter()
            .position(|s| *s == label)
            .ok_or_else(|| format!("result input `{label}` is not a specification input"))?;
        perm.push(at);
    }
    // result output k must equal spec output want[k]
    let mut want = Vec::with_capacity(got.outputs().len());
    for (label, _) in got.outputs() {
        let at = spec
            .outputs()
            .iter()
            .position(|(s, _)| s == label)
            .ok_or_else(|| format!("result output `{label}` is not a specification output"))?;
        want.push(at);
    }
    if want.len() != spec.outputs().len() {
        return Err(format!(
            "result has {} outputs, specification {}",
            want.len(),
            spec.outputs().len()
        ));
    }

    let n = spec_inputs.len();
    let mut rng = Rng::new(seed);
    let vectors = if n <= EXHAUSTIVE_INPUTS {
        1usize << n
    } else {
        RANDOM_VECTORS
    };
    let mut v = vec![false; n];
    let mut w = vec![false; perm.len()];
    for m in 0..vectors {
        if n <= EXHAUSTIVE_INPUTS {
            for (i, b) in v.iter_mut().enumerate() {
                *b = m >> i & 1 == 1;
            }
        } else {
            for b in v.iter_mut() {
                *b = rng.next_u64() & 1 == 1;
            }
        }
        for (k, &at) in perm.iter().enumerate() {
            w[k] = v[at];
        }
        let expect = spec.eval(&v);
        let actual = got.eval(&w);
        for (k, &at) in want.iter().enumerate() {
            if actual[k] != expect[at] {
                return Err(format!(
                    "output `{}` differs from the specification on vector {m}",
                    got.outputs()[k].0
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_net::GateKind;

    fn xor_net(swap_inputs: bool, kind: GateKind) -> Network {
        let mut net = Network::new("f");
        let (a, b) = if swap_inputs {
            let b = net.add_input("b");
            (net.add_input("a"), b)
        } else {
            let a = net.add_input("a");
            (a, net.add_input("b"))
        };
        let g = net.add_gate(kind, vec![a, b]);
        let n = net.add_gate(GateKind::Not, vec![a]);
        net.add_output("y", g);
        net.add_output("na", n);
        net
    }

    #[test]
    fn accepts_the_same_function_under_another_input_order() {
        let spec = xor_net(false, GateKind::Xor);
        assert_eq!(check(&spec, &xor_net(true, GateKind::Xor), 1), Ok(()));
    }

    #[test]
    fn rejects_a_different_function() {
        let spec = xor_net(false, GateKind::Xor);
        assert!(check(&spec, &xor_net(false, GateKind::Or), 1).is_err());
    }
}
