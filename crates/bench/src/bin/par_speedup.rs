//! Measures the wall-clock effect of parallel synthesis: runs the FPRM
//! flow twice per circuit (parallel on/off) through the shared
//! [`xsynth_bench::measure_flow`] path, checks the networks are
//! bit-identical, and prints the speedup from the run medians.
//!
//! Usage: `par_speedup [--json FILE] [--runs N] [circuit ...]` — defaults
//! to the multi-output arithmetic circuits where the per-output fan-out
//! matters most. `--json FILE` persists both flows' records (`fprm` and
//! `fprm-seq`) as a telemetry suite.

use xsynth_bench::{measure_flow, BenchSuite, MeasureOptions};
use xsynth_core::{Flow, SynthOptions};
use xsynth_map::Library;

fn main() {
    let mut names: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut runs = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => {
                let Some(p) = args.next() else {
                    eprintln!("error: --json needs a file path");
                    std::process::exit(2);
                };
                json_path = Some(p);
            }
            "--runs" => {
                let Some(n) = args.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("error: --runs needs a positive integer");
                    std::process::exit(2);
                };
                runs = n.max(1);
            }
            f if f.starts_with("--") => {
                eprintln!("error: unknown flag {f}");
                eprintln!("usage: par_speedup [--json FILE] [--runs N] [circuit ...]");
                std::process::exit(2);
            }
            _ => names.push(a),
        }
    }
    if names.is_empty() {
        names = ["z4ml", "adr4", "add6", "addm4", "mlp4", "my_adder"]
            .map(String::from)
            .to_vec();
    }
    let lib = Library::mcnc();
    let seq_opts = MeasureOptions {
        runs,
        synth: SynthOptions::builder().parallel(false).build(),
        ..Default::default()
    };
    let par_opts = MeasureOptions {
        runs,
        ..Default::default()
    };
    let mut records = Vec::new();
    println!(
        "{:<10} {:>6} {:>10} {:>10} {:>8}  identical?",
        "circuit", "outs", "seq (ms)", "par (ms)", "speedup"
    );
    for name in names {
        let Some(spec) = xsynth_circuits::build(&name) else {
            eprintln!("unknown circuit {name}");
            continue;
        };
        let measure = |opts: &MeasureOptions| {
            measure_flow(&name, &spec, Flow::Fprm, &lib, opts).unwrap_or_else(|e| {
                eprintln!("error: {name}: {e}");
                std::process::exit(e.exit_code())
            })
        };
        let mut seq = measure(&seq_opts);
        let par = measure(&par_opts);
        seq.record.flow = "fprm-seq".to_string();
        let seq_ms = seq.record.median_seconds * 1e3;
        let par_ms = par.record.median_seconds * 1e3;
        let same = xsynth_blif::write_blif(&seq.network) == xsynth_blif::write_blif(&par.network);
        println!(
            "{:<10} {:>6} {:>10.1} {:>10.1} {:>7.2}x  {}",
            name,
            spec.outputs().len(),
            seq_ms,
            par_ms,
            seq_ms / par_ms,
            if same { "yes" } else { "NO — BUG" }
        );
        records.push(seq.record);
        records.push(par.record);
    }
    if let Some(path) = json_path {
        let suite = BenchSuite {
            suite: "par_speedup".to_string(),
            records,
        };
        if let Err(e) = std::fs::write(&path, suite.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(4);
        }
    }
}
