//! Regenerates the paper's Table 2 over the rebuilt benchmark suite.
//!
//! Usage: `table2 [--json FILE] [--runs N] [--quick] [circuit ...]`
//!
//! With no circuit arguments the full 41-circuit suite runs; `--quick`
//! selects the CI subset ([`xsynth_bench::QUICK_SUBSET`]); otherwise only
//! the named circuits. `--json FILE` additionally writes the
//! schema-versioned telemetry suite (`BENCH_*.json`) from the same
//! measurements; `--runs N` repeats each synthesis N times so the JSON's
//! `median_seconds`/`min_seconds` are noise-resistant.

use xsynth_bench::MeasureOptions;

fn main() {
    let mut circuits: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut opts = MeasureOptions::default();
    let mut quick = false;
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
                opts.runs = n.max(1);
            }
            "--quick" => quick = true,
            f if f.starts_with("--") => {
                eprintln!("error: unknown flag {f}");
                eprintln!("usage: table2 [--json FILE] [--runs N] [--quick] [circuit ...]");
                std::process::exit(2);
            }
            _ => circuits.push(a),
        }
    }
    if quick {
        circuits.extend(xsynth_bench::QUICK_SUBSET.iter().map(|s| s.to_string()));
    }
    // names are 'static, so they outlive the temporary registry
    let known: Vec<&'static str> = xsynth_circuits::registry().iter().map(|b| b.name).collect();
    for c in &circuits {
        if !known.contains(&c.as_str()) {
            eprintln!("unknown circuit '{c}' — known circuits:");
            eprintln!("  {}", known.join(" "));
            std::process::exit(2);
        }
    }
    let filter: Option<Vec<&str>> = if circuits.is_empty() {
        None
    } else {
        Some(circuits.iter().map(String::as_str).collect())
    };
    let (rows, suite) =
        xsynth_bench::run_suite(filter.as_deref(), "table2", &opts).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code())
        });
    print!("{}", xsynth_bench::render_table2(&rows));
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, suite.to_json()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(4);
        }
        eprintln!(
            "wrote {} records ({} runs each) to {path}",
            suite.records.len(),
            opts.runs
        );
    }
}
