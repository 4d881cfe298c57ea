//! The batch workloads: each pass takes every circuit of the list cold
//! from its specification to a verified, mapped, power-estimated netlist.
//!
//! `fprm-batch` synthesizes with a fresh `Engine` per circuit, as
//! `xsynth synth` and `table2` pay for it; `sop-baseline` runs the SIS-style
//! script. After a parametric circuit's cold run, its renamed copy and its
//! output subset are resubmitted to the same synthesizer. That time is kept
//! out of the pass: it only feeds the `job_warm_*` and `job_partial_*`
//! metrics and the cache layer.

use crate::check::check;
use crate::gen::{Circuit, Class};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{geomean, median, ratio};
use std::hint::black_box;
use std::time::{Duration, Instant};
use xsynth_blif::write_blif;
use xsynth_core::{Budget, Engine, EquivChecker, SynthReport};
use xsynth_map::{map_network, Library};
use xsynth_net::Network;
use xsynth_sim::power_estimate;
use xsynth_sop::{script_algebraic, ScriptOptions};

/// BDD node cap of the in-pass `EquivChecker` run, the value the
/// repository's own bench harness uses.
const VERIFY_NODE_CAP: usize = 4_000_000;

/// Which synthesis flow a batch workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// `Engine::try_synthesize` on a fresh engine.
    Fprm,
    /// `script_algebraic`.
    Sop,
}

impl Flow {
    fn label(self) -> &'static str {
        match self {
            Flow::Fprm => "fprm",
            Flow::Sop => "sop",
        }
    }

    /// Resubmissions of each kind per parametric circuit and pass. The SOP
    /// script keeps nothing between calls, so its repeats are independent
    /// samples; an engine would answer a second repeat from its cache.
    fn repeats(self) -> usize {
        match self {
            Flow::Fprm => 1,
            Flow::Sop => 8,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Flow::Fprm => "core.synth",
            Flow::Sop => "sop.script",
        }
    }
}

type Synthesized = Result<(Network, Option<SynthReport>), String>;

fn synthesize(flow: Flow, engine: Option<&Engine>, spec: &Network) -> Synthesized {
    match (flow, engine) {
        (Flow::Fprm, Some(engine)) => engine
            .try_synthesize(spec)
            .map(|o| (o.network, Some(o.report)))
            .map_err(|e| e.to_string()),
        (Flow::Fprm, None) => Err("the FPRM flow needs an engine".into()),
        (Flow::Sop, _) => Ok((script_algebraic(spec, &ScriptOptions::default()), None)),
    }
}

/// One cold run of one circuit.
struct Cold {
    synth: Duration,
    map: Duration,
    power: Duration,
    check: Duration,
    total: Duration,
    premap_lits: usize,
    map_lits: usize,
    cells: usize,
    /// `Ok(downgraded)` when `EquivChecker` accepted the result.
    verdict: Result<bool, String>,
    network: Option<Network>,
    report: Option<SynthReport>,
}

/// One resubmission of a parametric circuit.
struct Resub {
    circuit: usize,
    class: Class,
    latency: Duration,
    result: Synthesized,
}

struct Pass {
    traced: bool,
    /// Wall time without the resubmissions.
    wall: Duration,
    cold: Vec<Cold>,
    resub: Vec<Resub>,
    /// Result-cache evictions and peak bytes over the pass's engines.
    cache_evictions: u64,
    cache_bytes: u64,
}

fn phase_span(name: &str) -> &'static str {
    match name {
        "fprm" => "core.fprm",
        "factoring" => "core.factoring",
        "sharing" => "core.sharing",
        "redundancy" => "core.redundancy",
        "verify" => "core.verify",
        _ => "core.other",
    }
}

fn run_cold(
    flow: Flow,
    c: &Circuit,
    lib: &Library,
    budget: &Budget,
    tracer: &mut Tracer,
    pass: Option<usize>,
) -> (Cold, Option<Engine>) {
    let t0 = Instant::now();
    let engine = (flow == Flow::Fprm).then(Engine::new);
    let out = synthesize(flow, engine.as_ref(), &c.spec);
    let t1 = Instant::now();
    let circuit = tracer.span("circuit", &c.name, pass, t0, Duration::ZERO);
    let synth_span = tracer.span(flow.span(), &c.name, circuit, t0, t1 - t0);
    let (network, report) = match out {
        Ok(r) => r,
        Err(e) => {
            tracer.finish(circuit, t1 - t0);
            let cold = Cold {
                synth: t1 - t0,
                map: Duration::ZERO,
                power: Duration::ZERO,
                check: Duration::ZERO,
                total: t1 - t0,
                premap_lits: 0,
                map_lits: 0,
                cells: 0,
                verdict: Err(e),
                network: None,
                report: None,
            };
            return (cold, engine);
        }
    };
    if let Some(r) = &report {
        let parts: Vec<(&'static str, Duration)> = r
            .profile
            .phases
            .iter()
            .map(|p| (phase_span(&p.name), p.duration))
            .collect();
        tracer.reported(synth_span, &parts);
    }
    let (_, premap_lits) = network.two_input_cost();
    let t2 = Instant::now();
    let mapping = map_network(&network, lib);
    let mapped = mapping.to_network(lib);
    let t3 = Instant::now();
    black_box(power_estimate(&mapped).total);
    let t4 = Instant::now();
    let mut checker = EquivChecker::with_budget(&c.spec, budget);
    let verdict = match checker.try_check(&network) {
        Ok(true) => Ok(checker.downgraded()),
        Ok(false) => Err("EquivChecker rejected the result".to_string()),
        Err(e) => Err(format!("EquivChecker: {e}")),
    };
    let t5 = Instant::now();
    tracer.span("map", &c.name, circuit, t2, t3 - t2);
    tracer.span("sim.power", &c.name, circuit, t3, t4 - t3);
    tracer.span("core.check", &c.name, circuit, t4, t5 - t4);
    tracer.finish(circuit, t5 - t0);
    let cold = Cold {
        synth: t1 - t0,
        map: t3 - t2,
        power: t4 - t3,
        check: t5 - t4,
        total: t5 - t0,
        premap_lits,
        map_lits: mapping.num_literals(),
        cells: mapping.num_gates(),
        verdict,
        network: Some(network),
        report,
    };
    (cold, engine)
}

fn run_pass(
    flow: Flow,
    circuits: &[Circuit],
    lib: &Library,
    budget: &Budget,
    tracer: &mut Tracer,
) -> Pass {
    let start = Instant::now();
    let pass = tracer.span("pass", "pass", None, start, Duration::ZERO);
    let mut out = Pass {
        traced: tracer.on,
        wall: Duration::ZERO,
        cold: Vec::with_capacity(circuits.len()),
        resub: Vec::new(),
        cache_evictions: 0,
        cache_bytes: 0,
    };
    let mut paused = Duration::ZERO;
    for (i, c) in circuits.iter().enumerate() {
        let (cold, engine) = run_cold(flow, c, lib, budget, tracer, pass);
        out.cold.push(cold);
        // resubmissions and engine teardown stay out of the pass
        let t = Instant::now();
        if let Some(r) = &c.resubmit {
            let kinds = [(Class::Warm, &r.renamed), (Class::Partial, &r.subset)];
            for (class, spec) in kinds.into_iter().cycle().take(2 * flow.repeats()) {
                let s = Instant::now();
                let result = synthesize(flow, engine.as_ref(), spec);
                out.resub.push(Resub {
                    circuit: i,
                    class,
                    latency: s.elapsed(),
                    result,
                });
            }
        }
        if let Some(engine) = engine {
            let stats = engine.cache_stats();
            out.cache_evictions += stats.evictions;
            out.cache_bytes = out.cache_bytes.max(stats.bytes);
        }
        let held = t.elapsed();
        tracer.span("resubmit", &c.name, pass, t, held);
        paused += held;
    }
    let wall = start.elapsed();
    tracer.finish(pass, wall);
    out.wall = wall - paused;
    out
}

/// Runs one circuit through the whole pipeline, untimed, before measuring.
pub fn warm_up(flow: Flow, spec: &Network) -> Result<(), String> {
    let engine = (flow == Flow::Fprm).then(Engine::new);
    let (network, _) = synthesize(flow, engine.as_ref(), spec)?;
    let lib = Library::mcnc();
    let mapped = map_network(&network, &lib).to_network(&lib);
    black_box(power_estimate(&mapped).total);
    check(spec, &network, 0)
}

/// Verdicts of the independent check, one per result, memoized on the
/// result's BLIF text (passes produce identical results).
struct Verdicts<'a> {
    seed: u64,
    seen: std::collections::HashMap<(usize, &'static str, String), Result<(), String>>,
    circuits: &'a [Circuit],
}

impl Verdicts<'_> {
    fn of(&mut self, circuit: usize, role: &'static str, net: &Network) -> Result<(), String> {
        let circuits = self.circuits;
        let c = &circuits[circuit];
        let spec = match (role, &c.resubmit) {
            ("warm", Some(r)) => &r.renamed,
            ("partial", Some(r)) => &r.subset,
            _ => &c.spec,
        };
        let seed = self.seed;
        self.seen
            .entry((circuit, role, write_blif(net)))
            .or_insert_with(|| check(spec, net, seed))
            .clone()
    }
}

/// Measures `circuits` for about `seconds` and fills `report`.
pub fn run(flow: Flow, circuits: &[Circuit], seconds: f64, seed: u64, report: &mut Report) {
    let trace = report.traced();
    let lib = Library::mcnc();
    let budget = Budget::default().bdd_node_cap(Some(VERIFY_NODE_CAP));
    let mut tracer = Tracer::new();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        // a traced run alternates untraced and traced passes
        tracer.on = trace && passes.len() % 2 == 1;
        let t = Instant::now();
        passes.push(run_pass(flow, circuits, &lib, &budget, &mut tracer));
        // another pass only if it would end less than half a pass late
        let took = t.elapsed().as_secs_f64();
        if passes.len() >= 2 && start.elapsed().as_secs_f64() + took / 2.0 > seconds {
            break;
        }
    }
    let peak_rss_kb = xsynth_trace::mem::peak_rss_kb().unwrap_or(0);

    // independent check and cross-pass exactness, outside every timing
    let mut verdicts = Verdicts {
        seed,
        seen: Default::default(),
        circuits,
    };
    let n = circuits.len();
    let mut fail_note: Vec<Option<String>> = vec![None; n];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fail = |i: usize, msg: String| {
        failed += 1;
        fail_note[i].get_or_insert(msg);
    };
    let check_start = Instant::now();
    for p in &passes {
        for (i, cold) in p.cold.iter().enumerate() {
            attempted += 1;
            let first = &passes[0].cold[i];
            let verdict = match (&cold.verdict, &cold.network) {
                (Err(e), _) => Err(e.clone()),
                (Ok(_), Some(net)) => verdicts.of(i, "cold", net),
                (Ok(_), None) => Err("no network".to_string()),
            };
            let salvaged = cold.report.as_ref().map_or(0, |r| r.salvaged.len());
            if let Err(e) = verdict {
                fail(i, e);
            } else if salvaged > 0 {
                fail(i, format!("{salvaged} salvaged outputs"));
            } else if (cold.premap_lits, cold.map_lits) != (first.premap_lits, first.map_lits) {
                fail(i, "literal counts differ between passes".into());
            }
        }
        for r in &p.resub {
            attempted += 1;
            let verdict = match &r.result {
                Err(e) => Err(e.clone()),
                Ok((net, rep)) => match rep.as_ref().map_or(0, |r| r.salvaged.len()) {
                    0 => verdicts.of(r.circuit, r.class.label(), net),
                    s => Err(format!("{s} salvaged outputs")),
                },
            };
            if let Err(e) = verdict {
                fail(r.circuit, format!("{}: {e}", r.class.label()));
            }
        }
    }
    let check_s = check_start.elapsed().as_secs_f64();
    report.attempted += attempted;
    report.failed += failed;

    // per-circuit rows: medians over the untraced passes
    let timed: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let walls_ms: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", p.wall.as_secs_f64() * 1e3))
        .collect();
    report.note(&format!("pass wall ms: {}", walls_ms.join(" ")));
    let med = |i: usize, f: &dyn Fn(&Cold) -> Duration| {
        median(
            &timed
                .iter()
                .map(|p| f(&p.cold[i]).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    // one sample list per circuit: its cold synthesis, or its
    // resubmissions of one class
    let latencies = |class: Class| -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                timed
                    .iter()
                    .flat_map(|p| match class {
                        Class::Cold => vec![p.cold[i].synth],
                        _ => p
                            .resub
                            .iter()
                            .filter(|r| r.circuit == i && r.class == class)
                            .map(|r| r.latency)
                            .collect(),
                    })
                    .map(|d| d.as_secs_f64() * 1e3)
                    .collect()
            })
            .collect()
    };
    let (warm_ms, partial_ms) = (latencies(Class::Warm), latencies(Class::Partial));
    let resub_med = |xs: &[f64]| {
        if xs.is_empty() {
            "-".to_string()
        } else {
            format!("{:.2}", median(xs))
        }
    };
    report.row(&format!(
        "{:<13} {:<12} {:<5} {:>10} {:>9} {:>9} {:>9} {:>7} {:>7} {:>8} {:>10}  verdict",
        "workload",
        "circuit",
        "flow",
        "synth_ms",
        "map_ms",
        "power_ms",
        "check_ms",
        "premap",
        "mapped",
        "warm_ms",
        "partial_ms"
    ));
    let workload = match flow {
        Flow::Fprm => "fprm-batch",
        Flow::Sop => "sop-baseline",
    };
    let mut per_circuit_ms = Vec::with_capacity(n);
    for (i, c) in circuits.iter().enumerate() {
        per_circuit_ms.push(med(i, &|r| r.total));
        let first = &passes[0].cold[i];
        let verdict = match (&fail_note[i], &first.verdict) {
            (Some(e), _) => format!("FAIL {e}"),
            (None, Ok(true)) => "ok (EquivChecker downgraded)".to_string(),
            (None, _) => "ok".to_string(),
        };
        report.row(&format!(
            "{workload:<13} {:<12} {:<5} {:>10.2} {:>9.2} {:>9.2} {:>9.2} {:>7} {:>7} {:>8} {:>10}  {verdict}",
            c.name,
            flow.label(),
            med(i, &|r| r.synth),
            med(i, &|r| r.map),
            med(i, &|r| r.power),
            med(i, &|r| r.check),
            first.premap_lits,
            first.map_lits,
            resub_med(&warm_ms[i]),
            resub_med(&partial_ms[i]),
        ));
    }
    report.note(&format!(
        "{} passes ({} traced), independent check {:.2} s, {} ops, {} failed",
        passes.len(),
        passes.len() - timed.len(),
        check_s,
        attempted,
        failed
    ));

    if !trace {
        let walls: Vec<f64> = timed.iter().map(|p| p.wall.as_secs_f64()).collect();
        let synth: Vec<f64> = timed
            .iter()
            .map(|p| p.cold.iter().map(|c| c.synth.as_secs_f64()).sum())
            .collect();
        let rate: Vec<f64> = timed
            .iter()
            .map(|p| {
                let ok = p.cold.iter().filter(|c| c.verdict.is_ok()).count();
                ok as f64 / p.wall.as_secs_f64()
            })
            .collect();
        report.metric("pass_s", median(&walls), "s");
        report.metric("synth_pass_s", median(&synth), "s");
        report.metric("circuit_geomean_ms", geomean(&per_circuit_ms), "ms");
        let first = &passes[0].cold;
        report.metric(
            "map_lits_total",
            first.iter().map(|c| c.map_lits).sum::<usize>() as f64,
            "literals",
        );
        report.metric(
            "premap_lits_total",
            first.iter().map(|c| c.premap_lits).sum::<usize>() as f64,
            "literals",
        );
        report.metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MiB");
        report.latency(Class::Cold, &latencies(Class::Cold));
        report.latency(Class::Warm, &warm_ms);
        report.latency(Class::Partial, &partial_ms);
        report.metric("jobs_per_s", median(&rate), "jobs/s");
        return;
    }

    // traced run: per-layer numbers from the traced passes only
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let tp = traced.len() as f64;
    let per = |name: &str| tracer.total_ms(name) / tp;
    report.layer("core.synth_ms", per("core.synth"), "ms");
    for (phase, metric) in [
        ("core.fprm", "core.fprm_ms"),
        ("core.factoring", "core.factoring_ms"),
        ("core.sharing", "core.sharing_ms"),
        ("core.redundancy", "core.redundancy_ms"),
        ("core.verify", "core.verify_ms"),
    ] {
        report.layer(metric, per(phase), "ms");
    }
    report.layer(
        "core.unattributed_ms",
        tracer.self_ms("core.synth") / tp,
        "ms",
    );
    let reports: Vec<&SynthReport> = traced
        .iter()
        .flat_map(|p| p.cold.iter().filter_map(|c| c.report.as_ref()))
        .collect();
    let sum = |f: &dyn Fn(&SynthReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    report.layer(
        "core.salvaged",
        sum(&|r| r.salvaged.len() as f64) / tp,
        "count",
    );
    let candidates = sum(&|r| r.polarity_search.candidates_evaluated as f64);
    let memo = sum(&|r| r.polarity_search.memo_hits as f64);
    report.layer("ofdd.candidates", candidates / tp, "count");
    report.layer(
        "ofdd.memo_hit_ratio",
        ratio(memo, memo + candidates),
        "ratio",
    );
    report.layer(
        "ofdd.fprm_cubes",
        sum(&|r| r.outputs.iter().map(|o| o.1 as f64).sum()) / tp,
        "count",
    );
    let gauge = |r: &SynthReport, g: &str| r.trace.gauge_max(g).unwrap_or(0.0);
    report.layer(
        "bdd.peak_nodes",
        reports
            .iter()
            .map(|r| gauge(r, "bdd.peak_nodes"))
            .fold(0.0, f64::max),
        "nodes",
    );
    let hits = sum(&|r| gauge(r, "bdd.apply_hits"));
    let misses = sum(&|r| gauge(r, "bdd.apply_misses"));
    report.layer("bdd.apply_hit_ratio", ratio(hits, hits + misses), "ratio");
    report.layer("core.check_ms", per("core.check"), "ms");
    let downgraded = traced
        .iter()
        .flat_map(|p| &p.cold)
        .filter(|c| c.verdict == Ok(true))
        .count();
    report.layer("core.check_downgraded", downgraded as f64 / tp, "count");
    report.layer("map.ms", per("map"), "ms");
    let cells: usize = traced.iter().flat_map(|p| &p.cold).map(|c| c.cells).sum();
    report.layer("map.cells", cells as f64 / tp, "count");
    report.layer("sim.power_ms", per("sim.power"), "ms");
    report.layer("sop.script_ms", per("sop.script"), "ms");

    // the result cache, as the resubmissions' reports return it
    let mut class_hits = [(0.0, 0.0); 3];
    let (mut polarity, mut factored, mut misses_total) = (0.0, 0.0, 0.0);
    let mut count = |class: Class, rep: &SynthReport| {
        let k = Class::ALL.iter().position(|c| *c == class).expect("class");
        let u = rep.cache;
        class_hits[k].0 += u.hits() as f64;
        class_hits[k].1 += (u.hits() + u.misses()) as f64;
        polarity += u.polarity_hits as f64;
        factored += u.factored_hits as f64;
        misses_total += u.misses() as f64;
    };
    for p in &traced {
        for rep in p.cold.iter().filter_map(|c| c.report.as_ref()) {
            count(Class::Cold, rep);
        }
        for r in &p.resub {
            if let Ok((_, Some(rep))) = &r.result {
                count(r.class, rep);
            }
        }
    }
    for (k, class) in Class::ALL.iter().enumerate() {
        report.layer(
            &format!("cache.hit_ratio_{}", class.label()),
            ratio(class_hits[k].0, class_hits[k].1),
            "ratio",
        );
    }
    report.layer("cache.polarity_hits", polarity / tp, "count");
    report.layer("cache.factored_hits", factored / tp, "count");
    report.layer("cache.misses", misses_total / tp, "count");
    let evictions: u64 = traced.iter().map(|p| p.cache_evictions).sum();
    report.layer("cache.evictions", evictions as f64 / tp, "count");
    let bytes = traced.iter().map(|p| p.cache_bytes).max().unwrap_or(0);
    report.layer("cache.bytes", bytes as f64, "bytes");
    let (mut warm, mut cold) = (0.0, 0.0);
    for p in &traced {
        for r in p.resub.iter().filter(|r| r.class == Class::Warm) {
            warm += r.latency.as_secs_f64();
            cold += p.cold[r.circuit].synth.as_secs_f64();
        }
    }
    report.layer("cache.warm_saved_frac", 1.0 - ratio(warm, cold), "ratio");

    let untraced: Vec<f64> = timed.iter().map(|p| p.wall.as_secs_f64()).collect();
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall.as_secs_f64()).collect();
    report.layer(
        "trace.overhead_frac",
        median(&traced_walls) / median(&untraced) - 1.0,
        "ratio",
    );
    report.layer(
        "unattributed_frac",
        tracer.uncovered_frac("pass", |n| n != "circuit", |n| n == "resubmit"),
        "ratio",
    );
    report.write_spans(&tracer);
}
