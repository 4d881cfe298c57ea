//! Spans recorded by the benchmark around each call into a layer.
//!
//! Spans live in memory while a run measures and are written out when it
//! ends. A span's self time is its duration minus that of its children.
//! Numbers the program reports itself (phase durations, server seconds)
//! become child spans laid end to end from their parent's start.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or grouping name, e.g. `core.synth` or `pass`.
    pub name: &'static str,
    /// The circuit or request the span belongs to.
    pub key: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// An in-memory span list; records nothing while `on` is false.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are being recorded.
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty, switched-off tracer.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index (`None` while off).
    pub fn span(
        &mut self,
        name: &'static str,
        key: &str,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            key: key.to_string(),
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        Some(self.spans.len() - 1)
    }

    /// Sets the duration of a span recorded before its end was known.
    pub fn finish(&mut self, span: Option<usize>, dur: Duration) {
        if let Some(i) = span {
            self.spans[i].dur_ns = dur.as_nanos() as u64;
        }
    }

    /// Records durations the program reported as children of `parent`,
    /// laid end to end from the parent's start.
    pub fn reported(&mut self, parent: Option<usize>, parts: &[(&'static str, Duration)]) {
        let Some(p) = parent else { return };
        let (key, mut at) = (self.spans[p].key.clone(), self.spans[p].start_ns);
        for &(name, dur) in parts {
            let dur_ns = dur.as_nanos() as u64;
            self.spans.push(Span {
                name,
                key: key.clone(),
                parent,
                start_ns: at,
                dur_ns,
            });
            at += dur_ns;
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns);
            }
        }
        own
    }

    /// Summed duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Summed self time of the spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &o)| o)
            .sum();
        ns as f64 / 1e6
    }

    /// The share of the spans named `root` that no descendant accepted by
    /// `is_layer` covers. Descendants accepted by `is_excluded` are taken
    /// out of the root's duration instead.
    pub fn uncovered_frac(
        &self,
        root: &str,
        is_layer: impl Fn(&str) -> bool,
        is_excluded: impl Fn(&str) -> bool,
    ) -> f64 {
        // parents are recorded before their children
        let mut root_of: Vec<Option<usize>> = vec![None; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = if s.name == root {
                Some(i)
            } else {
                s.parent.and_then(|p| root_of[p])
            };
        }
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (r, rs) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
        {
            let (lo, hi) = (rs.start_ns, rs.start_ns + rs.dur_ns);
            let mut iv: Vec<(u64, u64)> = self
                .spans
                .iter()
                .enumerate()
                .filter(|(i, s)| {
                    root_of[*i] == Some(r) && *i != r && (is_layer(s.name) || is_excluded(s.name))
                })
                .map(|(_, s)| (s.start_ns.max(lo), (s.start_ns + s.dur_ns).min(hi)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let (mut covered, mut end) = (0u64, lo);
            for (a, b) in iv {
                let a = a.max(end);
                if b > a {
                    covered += b - a;
                    end = b;
                }
            }
            let excluded: u64 = self
                .spans
                .iter()
                .enumerate()
                .filter(|(i, s)| root_of[*i] == Some(r) && *i != r && is_excluded(s.name))
                .map(|(_, s)| s.dur_ns)
                .sum();
            total += rs.dur_ns.saturating_sub(excluded);
            uncovered += rs.dur_ns.saturating_sub(covered);
        }
        if total == 0 {
            0.0
        } else {
            uncovered as f64 / total as f64
        }
    }

    /// Writes every span as a tab-separated line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\tname\tkey\tstart_ns\tdur_ns\tself_ns")?;
        for (i, (s, o)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{o}",
                s.name, s.key, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_coverage() {
        let mut t = Tracer::new();
        t.on = true;
        let t0 = t.origin;
        let ms = Duration::from_millis;
        let pass = t.span("pass", "p", None, t0, ms(10));
        let a = t.span("core.synth", "c", pass, t0, ms(4));
        t.reported(a, &[("core.fprm", ms(1)), ("core.verify", ms(2))]);
        t.span("map", "c", pass, t0 + ms(6), ms(2));
        assert_eq!(t.self_ms("core.synth"), 1.0);
        assert_eq!(t.total_ms("core.fprm"), 1.0);
        assert_eq!(t.self_ms("pass"), 4.0);
        let frac = t.uncovered_frac("pass", |n| n != "pass", |_| false);
        assert!((frac - 0.4).abs() < 1e-12, "{frac}");
        t.span("resubmit", "c", pass, t0 + ms(8), ms(2));
        let frac = t.uncovered_frac("pass", |n| n != "pass", |n| n == "resubmit");
        assert!((frac - 0.25).abs() < 1e-12, "{frac}");
    }
}
