//! Criterion benchmark over the Table 2 flows: the FPRM synthesis flow vs
//! the SIS-style SOP baseline on representative benchmark circuits.
//!
//! This is the timing half of the Table 2 reproduction (the quality half
//! is the `table2` binary); the paper's claim is that the FPRM flow runs
//! at least 2× faster than the SOP scripts on arithmetic circuits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xsynth_core::Engine;
use xsynth_sop::{script_algebraic, ScriptOptions};

fn bench_flows(c: &mut Criterion) {
    let circuits = ["z4ml", "adr4", "rd73", "t481", "f51m", "cm82a"];
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    for name in circuits {
        let spec = xsynth_circuits::build(name).expect("registered");
        group.bench_with_input(BenchmarkId::new("fprm", name), &spec, |b, spec| {
            b.iter(|| Engine::new().try_synthesize(spec).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("sop", name), &spec, |b, spec| {
            b.iter(|| script_algebraic(spec, &ScriptOptions::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flows);
criterion_main!(benches);
