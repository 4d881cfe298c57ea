//! Deterministic input generation.
//!
//! Every circuit list and job stream is a pure function of the workload
//! and the seed: the same seed gives byte-identical BLIF, a different seed
//! gives different inputs. The seed draws only what does not change the
//! amount of work: the order of circuits and jobs. The parametric circuits
//! themselves are fixed, because their synthesis cost moves with every
//! constant by more than the run-to-run noise, and the job quantiles sit
//! on a handful of them. The SOP script takes twice as long on an 8-bit
//! `x + k` for some odd k as for others, and even complementing a drawn
//! subset of the inputs moves its time by a third.

use std::collections::HashMap;
use xsynth_blif::write_blif;
use xsynth_circuits::builders::{interleaved_buses, ripple_adder, two_level, word_function};
use xsynth_circuits::suite::c_rdnn;
use xsynth_net::{Network, NodeKind, SignalId};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's FPRM flow, cold, one fresh engine per circuit.
    FprmBatch,
    /// The SIS-style SOP script, then the same mapping, power and check.
    SopBaseline,
    /// Cold, warm and partial jobs through the `xsynth serve` daemon.
    ServeMixed,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fprm-batch" => Some(Workload::FprmBatch),
            "sop-baseline" => Some(Workload::SopBaseline),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FprmBatch => "fprm-batch",
            Workload::SopBaseline => "sop-baseline",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::FprmBatch => 0x6670_726d,
            Workload::SopBaseline => 0x736f_7062,
            Workload::ServeMixed => 0x7365_7276,
        }
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One circuit of a batch workload.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Row label.
    pub name: String,
    /// The specification.
    pub spec: Network,
    /// For parametric circuits: a renamed copy and an output subset,
    /// resubmitted to the same synthesizer right after the cold run.
    pub resubmit: Option<Resubmit>,
}

/// The two resubmissions of a parametric batch circuit.
#[derive(Debug, Clone)]
pub struct Resubmit {
    /// Same function, every input and output renamed.
    pub renamed: Network,
    /// Every other output, names kept.
    pub subset: Network,
}

/// Job classes of the daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A function the daemon has not seen before.
    Cold,
    /// A renamed resubmission of an earlier cold job.
    Warm,
    /// A subset of an earlier cold job's outputs.
    Partial,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 3] = [Class::Cold, Class::Warm, Class::Partial];

    /// Lower-case label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::Warm => "warm",
            Class::Partial => "partial",
        }
    }
}

/// One job of the daemon workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// Row label.
    pub name: String,
    /// Which reuse the job can get from the daemon.
    pub class: Class,
    /// Stream position of the cold job this one repeats (itself when cold).
    pub origin: usize,
    /// The specification, as the check compares against it.
    pub spec: Network,
    /// The BLIF text sent to the daemon.
    pub blif: String,
    /// How long `write_blif` took on `spec`.
    pub write_ns: u64,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// The circuit list of a batch workload.
    Batch(Vec<Circuit>),
    /// The job stream of the daemon workload.
    Serve(Vec<Job>),
}

/// Registry rows of the FPRM batch: the heavy rows of Table 2.
const FPRM_ROWS: [&str; 13] = [
    "shift", "addm4", "mlp4", "cmb", "my_adder", "m181", "co14", "i4", "i5", "sym10", "9sym",
    "rd84", "5xp1",
];

/// Registry rows of the SOP baseline.
const SOP_ROWS: [&str; 9] = [
    "addm4", "9sym", "rd73", "mlp4", "5xp1", "f51m", "z4ml", "adr4", "sqr6",
];

/// Registry row used as the untimed warm-up; in no workload's list.
pub const WARMUP_ROW: &str = "cm82a";

/// Jobs per class in one daemon pass.
pub const JOBS_PER_CLASS: usize = 40;

/// Cold jobs per stream block; a block's warm and partial jobs repeat the
/// cold jobs of the block two places earlier.
const BLOCK: usize = 4;

/// Generates the inputs of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ workload.salt().wrapping_mul(0x2545_f491_4f6c_dd1d));
    match workload {
        Workload::FprmBatch => Inputs::Batch(fprm_batch(&mut rng)),
        Workload::SopBaseline => Inputs::Batch(sop_baseline(&mut rng)),
        Workload::ServeMixed => Inputs::Serve(serve_stream(&mut rng)),
    }
}

/// FNV-1a over every generated name and BLIF text, in order.
pub fn digest(inputs: &Inputs) -> u64 {
    let mut h = Fnv::new();
    match inputs {
        Inputs::Batch(circuits) => {
            for c in circuits {
                h.text(&c.name);
                h.text(&write_blif(&c.spec));
                if let Some(r) = &c.resubmit {
                    h.text(&write_blif(&r.renamed));
                    h.text(&write_blif(&r.subset));
                }
            }
        }
        Inputs::Serve(jobs) => {
            for j in jobs {
                h.text(&j.name);
                h.text(j.class.label());
                h.text(&j.origin.to_string());
                h.text(&j.blif);
            }
        }
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes().chain(std::iter::once(0)) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn registry_row(name: &str) -> Circuit {
    Circuit {
        name: name.to_string(),
        spec: xsynth_circuits::build(name).expect("registered benchmark"),
        resubmit: None,
    }
}

fn parametric(spec: Network) -> Circuit {
    let name = spec.name().to_string();
    Circuit {
        resubmit: Some(Resubmit {
            renamed: copy_network(&spec, &format!("{name}_r"), "r_", &all_outputs(&spec)),
            subset: copy_network(&spec, &format!("{name}_p"), "", &even_outputs(&spec)),
        }),
        name,
        spec,
    }
}

fn all_outputs(net: &Network) -> Vec<usize> {
    (0..net.outputs().len()).collect()
}

/// The partial resubmission keeps outputs 0, 2, 4, …: low and high bits
/// alike, the same share of the work for every member of a family.
fn even_outputs(net: &Network) -> Vec<usize> {
    (0..net.outputs().len()).step_by(2).collect()
}

fn word(name: String, n: usize, out_bits: usize, f: impl Fn(u64) -> u64) -> Network {
    two_level(&name, &word_function(n, out_bits, f))
}

/// Bits needed to hold values up to `max`.
fn bits(max: u64) -> usize {
    (64 - max.leading_zeros()).max(1) as usize
}

fn adder(width: usize) -> Network {
    let mut net = Network::new(format!("add{width}"));
    let (a, b) = interleaved_buses(&mut net, "a", "b", width);
    let (sums, cout) = ripple_adder(&mut net, &a, &b, None);
    for (i, &s) in sums.iter().enumerate() {
        net.add_output(format!("s{i}"), s);
    }
    net.add_output("cout", cout);
    net
}

fn rd_counter(n: usize) -> Network {
    c_rdnn(n, bits(n as u64))
}

fn squarer(n: usize) -> Network {
    word(format!("sqr{n}"), n, 2 * n, |x| x * x)
}

fn multiplier(n: usize) -> Network {
    let mask = (1u64 << n) - 1;
    word(format!("mul{n}"), 2 * n, 2 * n, move |m| {
        (m & mask) * (m >> n)
    })
}

fn offset_adder(n: usize, k: u64) -> Network {
    word(format!("add{n}k{k}"), n, n + 1, move |x| x + k)
}

fn modulo(n: usize, p: u64) -> Network {
    word(format!("mod{n}p{p}"), n, bits(p - 1), move |x| x % p)
}

fn const_mul(n: usize, k: u64) -> Network {
    word(format!("mul{n}k{k}"), n, n + bits(k), move |x| x * k)
}

fn masked_counter(mask: u64) -> Network {
    let n = 64 - mask.leading_zeros() as usize;
    let out = bits(u64::from(mask.count_ones()));
    word(format!("cnt{n}m{mask:03x}"), n, out, move |x| {
        u64::from((x & mask).count_ones())
    })
}

fn fprm_batch(rng: &mut Rng) -> Vec<Circuit> {
    // the adder band's two ends: adder cost grows faster than its width,
    // so a drawn width would move the pass time with the seed
    let mut specs = vec![
        adder(16),
        adder(48),
        rd_counter(9),
        rd_counter(10),
        rd_counter(11),
        squarer(6),
        squarer(7),
        multiplier(4),
    ];
    specs.extend([85, 171].map(|k| offset_adder(8, k)));
    specs.extend([7, 17].map(|p| modulo(8, p)));
    let mut circuits: Vec<Circuit> = FPRM_ROWS.iter().map(|r| registry_row(r)).collect();
    circuits.extend(specs.into_iter().map(parametric));
    rng.shuffle(&mut circuits);
    circuits
}

fn sop_baseline(rng: &mut Rng) -> Vec<Circuit> {
    let mut specs = vec![multiplier(3)];
    specs.extend([85, 171].map(|k| offset_adder(8, k)));
    specs.extend([7, 13].map(|p| modulo(6, p)));
    specs.extend([9, 15].map(|k| const_mul(5, k)));
    let mut circuits: Vec<Circuit> = SOP_ROWS.iter().map(|r| registry_row(r)).collect();
    circuits.extend(specs.into_iter().map(parametric));
    rng.shuffle(&mut circuits);
    circuits
}

fn serve_stream(rng: &mut Rng) -> Vec<Job> {
    let mut cold: Vec<Network> = Vec::with_capacity(JOBS_PER_CLASS);
    cold.extend([109, 187, 335, 351, 377, 497, 667, 711, 745, 867].map(|k| offset_adder(10, k)));
    cold.extend([3, 5, 6, 7, 9, 10, 12, 17, 29, 31].map(|p| modulo(7, p)));
    cold.extend([3, 5, 7, 9, 11, 13, 19, 23, 29, 31].map(|k| const_mul(6, k)));
    // 8 of 10 bits with the top bit set, so every counter has 10 inputs
    cold.extend(
        [
            0x2df, 0x2f7, 0x2fe, 0x39f, 0x3b7, 0x3bd, 0x3cf, 0x3f3, 0x3f9, 0x3fa,
        ]
        .map(masked_counter),
    );
    rng.shuffle(&mut cold);

    // Stream positions: block b holds cold jobs b*BLOCK.., plus the warm
    // and partial repeats of block b-2, shuffled within the block.
    let blocks = JOBS_PER_CLASS / BLOCK + 2;
    let mut order: Vec<(Class, usize)> = Vec::with_capacity(3 * JOBS_PER_CLASS);
    for b in 0..blocks {
        let mut block: Vec<(Class, usize)> = Vec::new();
        if b * BLOCK < JOBS_PER_CLASS {
            block.extend((b * BLOCK..(b + 1) * BLOCK).map(|i| (Class::Cold, i)));
        }
        if b >= 2 {
            for i in (b - 2) * BLOCK..(b - 1) * BLOCK {
                block.push((Class::Warm, i));
                block.push((Class::Partial, i));
            }
        }
        rng.shuffle(&mut block);
        order.extend(block);
    }

    let mut position = vec![0usize; JOBS_PER_CLASS];
    let mut jobs = Vec::with_capacity(order.len());
    for (pos, (class, i)) in order.into_iter().enumerate() {
        let base = &cold[i];
        let spec = match class {
            Class::Cold => {
                position[i] = pos;
                copy_network(base, base.name(), "", &all_outputs(base))
            }
            Class::Warm => copy_network(
                base,
                &format!("{}_r", base.name()),
                "r_",
                &all_outputs(base),
            ),
            Class::Partial => {
                copy_network(base, &format!("{}_p", base.name()), "", &even_outputs(base))
            }
        };
        let t = std::time::Instant::now();
        let blif = write_blif(&spec);
        let write_ns = t.elapsed().as_nanos() as u64;
        jobs.push(Job {
            name: format!("{}-{}", spec.name(), class.label()),
            class,
            origin: position[i],
            spec,
            blif,
            write_ns,
        });
    }
    jobs
}

/// Copies `net` under a new name, prefixing every input and output name
/// with `prefix` and keeping only the outputs at indices `keep`. Gates
/// that only fed dropped outputs stay in the copy; synthesis ignores them.
pub fn copy_network(net: &Network, name: &str, prefix: &str, keep: &[usize]) -> Network {
    let mut out = Network::new(name);
    let mut map: HashMap<SignalId, SignalId> = HashMap::new();
    for &i in net.inputs() {
        let label = net.node_name(i).unwrap_or("in");
        map.insert(i, out.add_input(format!("{prefix}{label}")));
    }
    for id in net.topo_order() {
        if let NodeKind::Gate(kind) = net.kind(id) {
            let fanins = net.fanins(id).iter().map(|f| map[f]).collect();
            map.insert(id, out.add_gate(*kind, fanins));
        }
    }
    for &k in keep {
        let (label, sig) = &net.outputs()[k];
        out.add_output(format!("{prefix}{label}"), map[sig]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [
        Workload::FprmBatch,
        Workload::SopBaseline,
        Workload::ServeMixed,
    ];

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in ALL {
            assert_eq!(digest(&generate(w, 7)), digest(&generate(w, 7)), "{w:?}");
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in ALL {
            assert_ne!(digest(&generate(w, 7)), digest(&generate(w, 8)), "{w:?}");
        }
    }

    #[test]
    fn resubmissions_keep_the_function() {
        let Inputs::Batch(circuits) = generate(Workload::SopBaseline, 1) else {
            panic!("batch workload");
        };
        for c in circuits.iter().filter(|c| c.resubmit.is_some()) {
            let r = c.resubmit.as_ref().expect("filtered");
            let n = c.spec.inputs().len();
            for m in 0..(1u64 << n) {
                let want = c.spec.eval_u64(m);
                assert_eq!(r.renamed.eval_u64(m), want, "{}", c.name);
                let sub = r.subset.eval_u64(m);
                assert!(!sub.is_empty() && sub.len() <= want.len(), "{}", c.name);
            }
        }
    }

    #[test]
    fn warm_and_partial_jobs_follow_their_cold_job() {
        let Inputs::Serve(jobs) = generate(Workload::ServeMixed, 3) else {
            panic!("serve workload");
        };
        assert_eq!(jobs.len(), 3 * JOBS_PER_CLASS);
        for class in Class::ALL {
            let count = jobs.iter().filter(|j| j.class == class).count();
            assert_eq!(count, JOBS_PER_CLASS, "{class:?}");
        }
        for (pos, j) in jobs.iter().enumerate() {
            match j.class {
                Class::Cold => assert_eq!(j.origin, pos),
                _ => {
                    assert!(j.origin < pos);
                    assert_eq!(jobs[j.origin].class, Class::Cold);
                }
            }
        }
    }
}
