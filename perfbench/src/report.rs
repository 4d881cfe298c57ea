//! What a run prints: one row per circuit or job, every metric by name
//! with its unit, and the closing JSON line.

use crate::gen::Class;
use crate::spans::Tracer;
use crate::stats::{hd_quantile, median};
use std::path::PathBuf;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [&str; 14] = [
    "setup_s",
    "pass_s",
    "synth_pass_s",
    "circuit_geomean_ms",
    "map_lits_total",
    "premap_lits_total",
    "peak_rss_mb",
    "job_cold_p50_ms",
    "job_cold_p90_ms",
    "job_warm_p50_ms",
    "job_warm_p90_ms",
    "job_partial_p50_ms",
    "job_partial_p90_ms",
    "jobs_per_s",
];

/// Per-layer metrics and their units, printed by every traced run. A
/// layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("circuits.build_ms", "ms"),
    ("core.synth_ms", "ms"),
    ("core.fprm_ms", "ms"),
    ("core.factoring_ms", "ms"),
    ("core.sharing_ms", "ms"),
    ("core.redundancy_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.salvaged", "count"),
    ("ofdd.candidates", "count"),
    ("ofdd.memo_hit_ratio", "ratio"),
    ("ofdd.fprm_cubes", "count"),
    ("bdd.peak_nodes", "nodes"),
    ("bdd.apply_hit_ratio", "ratio"),
    ("core.check_ms", "ms"),
    ("core.check_downgraded", "count"),
    ("map.ms", "ms"),
    ("map.cells", "count"),
    ("sim.power_ms", "ms"),
    ("sop.script_ms", "ms"),
    ("blif.write_ms", "ms"),
    ("blif.parse_ms", "ms"),
    ("blif.source_kb", "KiB"),
    ("cache.hit_ratio_cold", "ratio"),
    ("cache.hit_ratio_warm", "ratio"),
    ("cache.hit_ratio_partial", "ratio"),
    ("cache.polarity_hits", "count"),
    ("cache.factored_hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("cache.warm_saved_frac", "ratio"),
    ("serve.server_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("trace.overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// The output of one run.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    trace: bool,
    lines: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error, a shed, a salvaged output, or a
    /// result the independent check rejects.
    pub failed: u64,
    /// Set when something other than an operation went wrong.
    pub broken: Option<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, trace: bool) -> Report {
        Report {
            workload,
            trace,
            lines: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            broken: None,
        }
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Adds a result row.
    pub fn row(&mut self, line: &str) {
        self.lines.push(line.to_string());
    }

    /// Adds a comment line.
    pub fn note(&mut self, line: &str) {
        self.lines.push(format!("# {line}"));
    }

    /// Records an end-to-end metric (ignored by traced runs).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        if !self.trace {
            self.metrics.push((name.into(), value, unit.into()));
        }
    }

    /// Records a per-layer metric (ignored by untraced runs).
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        if self.trace {
            self.metrics.push((name.into(), value, unit.into()));
        }
    }

    /// Records the median and 90th percentile of one job class's latency,
    /// given each job's repeated samples. A job's latency is the median of
    /// its samples; the quantiles are Harrell-Davis estimates over jobs.
    /// Pooling the raw samples instead lets a quantile jump between jobs of
    /// different cost as load shifts the samples of one of them.
    pub fn latency(&mut self, class: Class, per_job: &[Vec<f64>]) {
        let c = class.label();
        let samples: usize = per_job.iter().map(Vec::len).sum();
        let ms: Vec<f64> = per_job
            .iter()
            .filter(|xs| !xs.is_empty())
            .map(|xs| median(xs))
            .collect();
        self.note(&format!("job_{c}: {samples} samples of {} jobs", ms.len()));
        self.metric(&format!("job_{c}_p50_ms"), hd_quantile(&ms, 0.5), "ms");
        self.metric(&format!("job_{c}_p90_ms"), hd_quantile(&ms, 0.9), "ms");
    }

    /// Writes the traced run's spans next to the build outputs.
    pub fn write_spans(&mut self, tracer: &Tracer) {
        let dir = PathBuf::from(".bench_run");
        let path = dir.join(format!("spans-{}.tsv", self.workload));
        match std::fs::create_dir_all(&dir).and_then(|_| tracer.write_tsv(&path)) {
            Ok(()) => self.note(&format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => self.note(&format!("spans not written: {e}")),
        }
    }

    /// Prints the report and returns the process exit code.
    pub fn finish(mut self) -> i32 {
        if self.trace {
            let ratio = if self.attempted == 0 {
                0.0
            } else {
                self.failed as f64 / self.attempted as f64
            };
            self.layer("failed_frac", ratio, "ratio");
            for (name, unit) in PER_LAYER {
                if !self.metrics.iter().any(|m| m.0 == name) {
                    self.metrics.push((name.into(), 0.0, unit.into()));
                }
            }
        } else {
            for name in END_TO_END {
                if !self.metrics.iter().any(|m| m.0 == name) {
                    self.broken
                        .get_or_insert(format!("metric {name} was not measured"));
                }
            }
        }
        for (name, value, _) in &mut self.metrics {
            // an empty float sum is -0.0; print it as 0
            *value += 0.0;
            if !value.is_finite() {
                self.broken
                    .get_or_insert(format!("metric {name} is not a number"));
                *value = 0.0;
            }
        }
        if let Some(why) = &self.broken {
            self.lines.push(format!("# BROKEN: {why}"));
        }
        let correct = self.failed == 0 && self.broken.is_none() && self.attempted > 0;
        for line in &self.lines {
            println!("{line}");
        }
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            println!("metric {:<24} {value:>18} {unit}", name);
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(*value)
            ));
        }
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            0
        } else {
            1
        }
    }
}

/// A JSON number with every digit of `v`.
fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}
