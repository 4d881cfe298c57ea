//! Per-circuit flow diagnostics: FPRM cube counts, chosen polarities,
//! extracted divisors, redundancy-removal statistics — measured through
//! the shared [`xsynth_bench::measure_flow`] path, so the numbers printed
//! here are exactly the ones `table2 --json` persists.
//!
//! Usage: `flow_report [--runs N] <circuit> [...]`

use xsynth_bench::{measure_flow, MeasureOptions};
use xsynth_core::Flow;
use xsynth_map::Library;

fn main() {
    let mut names: Vec<String> = Vec::new();
    let mut opts = MeasureOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--runs" => {
                let Some(n) = args.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("error: --runs needs a positive integer");
                    std::process::exit(2);
                };
                opts.runs = n.max(1);
            }
            f if f.starts_with("--") => {
                eprintln!("error: unknown flag {f}");
                eprintln!("usage: flow_report [--runs N] <circuit> [...]");
                std::process::exit(2);
            }
            _ => names.push(a),
        }
    }
    if names.is_empty() {
        names = vec!["z4ml".into(), "t481".into()];
    }
    let lib = Library::mcnc();
    for name in names {
        let Some(spec) = xsynth_circuits::build(&name) else {
            eprintln!("unknown circuit {name}");
            continue;
        };
        let m = measure_flow(&name, &spec, Flow::Fprm, &lib, &opts).unwrap_or_else(|e| {
            eprintln!("error: {name}: {e}");
            std::process::exit(e.exit_code())
        });
        let report = m.flow.report.as_ref().expect("FPRM flow carries a report");
        println!("{name}: {spec}");
        for (oname, cubes, pol) in &report.outputs {
            println!("  output {oname}: {cubes} FPRM cubes, polarity {pol:?}");
        }
        println!(
            "  divisors {} | blocks {} | cube-cap fallbacks {}",
            report.divisors, report.blocks, report.cube_cap_fallbacks
        );
        println!("  redundancy: {:?}", report.redundancy);
        let phases: Vec<String> = report
            .profile
            .phases
            .iter()
            .map(|p| format!("{} {:.2?}", p.name, p.duration))
            .collect();
        println!(
            "  phases: {} | total {:.2?}",
            phases.join(" | "),
            report.profile.total
        );
        println!(
            "  polarity search: {} candidates evaluated, {} memo hits",
            report.polarity_search.candidates_evaluated, report.polarity_search.memo_hits
        );
        println!(
            "  result: {} two-input gates / {} literals; mapped {} gates / {} lits; {}",
            m.flow.premap_gates,
            m.flow.premap_lits,
            m.flow.map_gates,
            m.flow.map_lits,
            m.record.verified.as_str()
        );
        println!(
            "  time: synth {:.1}ms (median of {} run(s): {:.1}ms, min {:.1}ms) | map {:.1}ms | verify {:.1}ms",
            m.flow.synth_seconds * 1e3,
            m.record.runs,
            m.record.median_seconds * 1e3,
            m.record.min_seconds * 1e3,
            m.flow.map_seconds * 1e3,
            m.flow.verify_seconds * 1e3,
        );
        let gauges: Vec<String> = m
            .record
            .gauges
            .iter()
            .map(|(k, v)| format!("{k} {v:.0}"))
            .collect();
        println!("  gauges: {}", gauges.join(" | "));
        println!("  trace:");
        for line in report.trace.render_tree().lines() {
            println!("    {line}");
        }
        println!();
    }
}
