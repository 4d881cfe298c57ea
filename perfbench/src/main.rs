//! The xsynth benchmark.
//!
//! ```text
//! xsynth-perfbench --workload <fprm-batch|sop-baseline|serve-mixed>
//!                  --seed <n> --seconds <s> --trace <0|1> --xsynth <path>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for about the
//! given seconds, checks every result with its own evaluator, and prints one
//! row per circuit or job, every metric by name and unit, and a closing JSON
//! line. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones. The exit code is 1 when any
//! result fails the check, 2 on bad arguments. See `README.md`.

mod batch;
mod check;
mod gen;
mod report;
mod serve;
mod spans;
mod stats;

use gen::{digest, generate, Inputs, Workload};
use report::Report;
use stats::median;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use xsynth_net::Network;

/// Each set-up window repeats set-up at least this many times, and until
/// [`SETUP_SECONDS`] have gone; the median over both windows is reported.
const SETUP_REPEATS: usize = 5;

/// Spreading the set-ups over a second, once before the passes and once
/// after them, keeps a burst of load on the host at either end of the run
/// from moving every sample at once.
const SETUP_SECONDS: f64 = 1.0;

const USAGE: &str = "usage: xsynth-perfbench --workload <fprm-batch|sop-baseline|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> --xsynth <path>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    xsynth: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut xsynth = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 120.0)
                        .ok_or(format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}`")),
                })
            }
            "--xsynth" => xsynth = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        xsynth: xsynth.ok_or("--xsynth is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut report = Report::new(w.name(), args.trace);

    let flow = match w {
        Workload::FprmBatch => Some(batch::Flow::Fprm),
        Workload::SopBaseline => Some(batch::Flow::Sop),
        Workload::ServeMixed => None,
    };
    let mut setup = SetUp {
        workload: w,
        seed: args.seed,
        flow,
        warmup_spec: xsynth_circuits::build(gen::WARMUP_ROW).expect("registered benchmark"),
        build: Vec::new(),
        warm: Vec::new(),
        digests: Vec::new(),
        failed: None,
    };
    let inputs = setup.sample();
    report.note(&format!(
        "workload {} seed {} inputs digest {:016x}",
        w.name(),
        args.seed,
        setup.digests[0]
    ));
    report.broken = setup.failed.clone();

    let daemon = match (&inputs, flow) {
        _ if report.broken.is_some() => Vec::new(),
        (Inputs::Batch(circuits), Some(flow)) => {
            batch::run(flow, circuits, args.seconds, args.seed, &mut report);
            Vec::new()
        }
        (Inputs::Serve(jobs), _) => {
            let warmup = xsynth_blif::write_blif(&setup.warmup_spec);
            serve::run(
                jobs,
                &args.xsynth,
                &warmup,
                args.seconds,
                args.seed,
                &mut report,
            )
        }
        (Inputs::Batch(_), None) => unreachable!("batch inputs come from a batch workload"),
    };
    setup.sample();

    let other = digest(&generate(w, args.seed.wrapping_add(1)));
    let first = setup.digests[0];
    if let Some(e) = setup.failed {
        report.broken.get_or_insert(e);
    } else if setup.digests.iter().any(|d| *d != first) {
        report.broken = Some("one seed generated different inputs".into());
    } else if other == first {
        report.broken = Some("two seeds generated the same inputs".into());
    }
    let build_s: Vec<f64> = setup.build.iter().map(Duration::as_secs_f64).collect();
    report.layer("circuits.build_ms", median(&build_s) * 1e3, "ms");
    let setup_s = if flow.is_some() {
        let samples: Vec<f64> = setup
            .build
            .iter()
            .zip(&setup.warm)
            .map(|(b, w)| (*b + *w).as_secs_f64())
            .collect();
        median(&samples)
    } else {
        let daemon_s: Vec<f64> = daemon.iter().map(Duration::as_secs_f64).collect();
        median(&build_s) + median(&daemon_s)
    };
    report.metric("setup_s", setup_s, "s");
    std::process::exit(report.finish());
}

/// Set-up samples: each generates the workload's inputs and, for a batch
/// workload, runs the warm-up circuit through the whole pipeline.
struct SetUp {
    workload: Workload,
    seed: u64,
    flow: Option<batch::Flow>,
    warmup_spec: Network,
    build: Vec<Duration>,
    warm: Vec<Duration>,
    /// Every generation's digest; they must agree byte for byte.
    digests: Vec<u64>,
    failed: Option<String>,
}

impl SetUp {
    /// Takes one window of samples and returns its first generation.
    fn sample(&mut self) -> Inputs {
        let mut first = None;
        let start = Instant::now();
        let mut n = 0;
        while n < SETUP_REPEATS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
            n += 1;
            let t = Instant::now();
            let generated = generate(self.workload, self.seed);
            self.build.push(t.elapsed());
            self.digests.push(digest(&generated));
            first.get_or_insert(generated);
            if let Some(flow) = self.flow {
                let t = Instant::now();
                if let Err(e) = batch::warm_up(flow, &self.warmup_spec) {
                    self.failed.get_or_insert(format!("warm-up failed: {e}"));
                }
                self.warm.push(t.elapsed());
            }
        }
        first.expect("at least one generation")
    }
}
