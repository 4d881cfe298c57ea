//! The `serve-mixed` workload: the job stream through the `xsynth serve`
//! binary, one closed-loop client process with two connections.
//!
//! Each pass starts a fresh daemon with default options on a unix socket,
//! sends the whole stream, and shuts the daemon down, so the cold jobs are
//! cold in every pass. Daemon start-up is set-up time, not pass time.
//!
//! The daemon runs with `XSYNTH_THREADS=1`: the two connections keep two
//! jobs in flight, one synthesis thread each, so the daemon asks for no
//! more cores than the two it is sized for. With each job also fanning its
//! outputs out over every core, four threads share two cores and the
//! latencies measure the scheduler.

use crate::check::check;
use crate::gen::{Class, Job};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{geomean, median, ratio};
use std::collections::{BTreeMap, HashMap};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use xsynth_blif::parse_blif;
use xsynth_map::{map_network, Library};
use xsynth_serve::Client;
use xsynth_trace::json::Value;

/// Closed-loop connections, one request outstanding on each.
pub const CONNECTIONS: usize = 2;

/// Synthesis threads per daemon job (`XSYNTH_THREADS`).
const JOB_THREADS: &str = "1";

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(xsynth: &Path, socket: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(xsynth)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .env("XSYNTH_THREADS", JOB_THREADS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", xsynth.display()))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Client::connect_unix(socket) {
                if c.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn connect(&self) -> Result<Client<UnixStream>, String> {
        Client::connect_unix(&self.socket).map_err(|e| e.to_string())
    }

    /// `VmHWM` of the daemon process, in KiB.
    fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Asks for a graceful shutdown and waits up to 10 s for the exit.
    fn stop(&mut self) {
        if let Ok(mut c) = self.connect() {
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Answer {
    start: Instant,
    latency: Duration,
    /// `Err` for transport failures and error replies (`kind: message`).
    result: Result<Reply, String>,
    shed: bool,
}

#[derive(Debug, Clone)]
struct Reply {
    seconds: f64,
    salvaged: u64,
    hits: u64,
    polarity_hits: u64,
    factored_hits: u64,
    misses: u64,
    blif: String,
}

fn num(v: &Value, path: &[&str]) -> f64 {
    let mut at = v;
    for key in path {
        match at.get(key) {
            Some(next) => at = next,
            None => return 0.0,
        }
    }
    at.as_f64().unwrap_or(0.0)
}

fn decode(reply: Value) -> (Result<Reply, String>, bool) {
    if reply.get("status").and_then(Value::as_str) != Some("ok") {
        let kind = reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let message = reply
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let shed = kind == "overloaded";
        return (Err(format!("{kind}: {message}")), shed);
    }
    let cache = ["cache"];
    let field = |k: &str| num(&reply, &[cache[0], k]) as u64;
    let (polarity_hits, cubes_hits, factored_hits) = (
        field("polarity_hits"),
        field("cubes_hits"),
        field("factored_hits"),
    );
    let r = Reply {
        seconds: num(&reply, &["seconds"]),
        salvaged: num(&reply, &["salvaged"]) as u64,
        hits: polarity_hits + cubes_hits + factored_hits,
        polarity_hits,
        factored_hits,
        misses: field("lookup_misses"),
        blif: reply
            .get("network_blif")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
    };
    (Ok(r), false)
}

struct Pass {
    traced: bool,
    wall: Duration,
    start: Instant,
    answers: Vec<Answer>,
    queue_s: HashMap<String, f64>,
    evictions: f64,
    cache_bytes: f64,
    peak_rss_kb: Option<u64>,
    /// Phase seconds the daemon reported for this pass's jobs.
    phases: BTreeMap<String, f64>,
}

/// Summed `xsynth_phase_seconds` per phase from a `metrics` reply.
fn phase_sums(client: &mut Client<UnixStream>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Ok(reply) = client.metrics() else {
        return out;
    };
    let text = reply.get("text").and_then(Value::as_str).unwrap_or("");
    if let Ok(families) = xsynth_trace::metrics::parse(text) {
        if let Some(f) = families.get("xsynth_phase_seconds") {
            for s in f
                .samples
                .iter()
                .filter(|s| s.name == "xsynth_phase_seconds_sum")
            {
                if let Some(p) = s.label("phase") {
                    out.insert(p.to_string(), s.value);
                }
            }
        }
    }
    out
}

/// Sends the stream over [`CONNECTIONS`] closed-loop connections. A warm or
/// partial job waits until its cold job has been answered.
fn send_stream(jobs: &[Job], clients: Vec<Client<UnixStream>>) -> Vec<Answer> {
    struct Dispatch {
        next: usize,
        done: Vec<bool>,
    }
    let state = Mutex::new(Dispatch {
        next: 0,
        done: vec![false; jobs.len()],
    });
    let ready = Condvar::new();
    let mut answers: Vec<Option<Answer>> = vec![None; jobs.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (state, ready) = (&state, &ready);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let j = {
                            let mut st = state.lock().expect("dispatch lock poisoned");
                            if st.next >= jobs.len() {
                                break;
                            }
                            let j = st.next;
                            st.next += 1;
                            let dep = jobs[j].origin;
                            while dep != j && !st.done[dep] {
                                st = ready.wait(st).expect("dispatch lock poisoned");
                            }
                            j
                        };
                        let start = Instant::now();
                        let sent = client.synth_blif(&jobs[j].blif, Some(&jobs[j].name));
                        let latency = start.elapsed();
                        let (result, shed) = match sent {
                            Ok(reply) => decode(reply),
                            Err(e) => (Err(format!("transport: {e}")), false),
                        };
                        mine.push((
                            j,
                            Answer {
                                start,
                                latency,
                                result,
                                shed,
                            },
                        ));
                        state.lock().expect("dispatch lock poisoned").done[j] = true;
                        ready.notify_all();
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (j, a) in h.join().expect("client thread panicked") {
                answers[j] = Some(a);
            }
        }
    });
    answers
        .into_iter()
        .map(|a| a.expect("every job dispatched"))
        .collect()
}

fn run_pass(
    jobs: &[Job],
    xsynth: &Path,
    socket: &Path,
    warmup: &str,
    traced: bool,
) -> Result<(Pass, Duration), String> {
    let t0 = Instant::now();
    let mut daemon = Daemon::start(xsynth, socket)?;
    let mut control = daemon.connect()?;
    let reply = control
        .synth_blif(warmup, Some("warm-up"))
        .map_err(|e| e.to_string())?;
    if let Err(e) = decode(reply).0 {
        return Err(format!("warm-up job failed: {e}"));
    }
    let clients = (0..CONNECTIONS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let setup = t0.elapsed();
    let before = if traced {
        phase_sums(&mut control)
    } else {
        BTreeMap::new()
    };

    let start = Instant::now();
    let answers = send_stream(jobs, clients);
    let wall = start.elapsed();

    let mut pass = Pass {
        traced,
        wall,
        start,
        answers,
        queue_s: HashMap::new(),
        evictions: 0.0,
        cache_bytes: 0.0,
        peak_rss_kb: None,
        phases: BTreeMap::new(),
    };
    if traced {
        for (phase, after) in phase_sums(&mut control) {
            let was = before.get(&phase).copied().unwrap_or(0.0);
            pass.phases.insert(phase, after - was);
        }
    }
    if let Ok(stats) = control.stats() {
        pass.evictions = num(&stats, &["cache", "evictions"]);
        pass.cache_bytes = num(&stats, &["cache", "bytes"]);
    }
    if let Ok(recent) = control.recent(None) {
        for j in recent.get("jobs").and_then(Value::as_arr).unwrap_or(&[]) {
            if let Some(id) = j.get("id").and_then(Value::as_str) {
                pass.queue_s
                    .insert(id.to_string(), num(j, &["queue_seconds"]));
            }
        }
    }
    pass.peak_rss_kb = daemon.peak_rss_kb();
    drop(control);
    daemon.stop();
    Ok((pass, setup))
}

/// Measures the stream for about `seconds`, fills `report`, and returns
/// the daemon start-up times (one per pass).
pub fn run(
    jobs: &[Job],
    xsynth: &Path,
    warmup: &str,
    seconds: f64,
    seed: u64,
    report: &mut Report,
) -> Vec<Duration> {
    let trace = report.traced();
    let dir = PathBuf::from(".bench_run");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.broken = Some(format!("cannot create {}: {e}", dir.display()));
        return Vec::new();
    }
    // relative, so the path stays within the unix socket length limit
    let socket = dir.join(format!("serve-{}.sock", std::process::id()));
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups = Vec::new();
    // created first: span offsets count from the tracer's origin
    let mut tracer = Tracer::new();
    let start = Instant::now();
    loop {
        let traced = trace && passes.len() % 2 == 1;
        let t = Instant::now();
        match run_pass(jobs, xsynth, &socket, warmup, traced) {
            Ok((p, setup)) => {
                passes.push(p);
                setups.push(setup);
            }
            Err(e) => {
                report.broken = Some(e);
                return setups;
            }
        }
        // another pass only if it would end less than half a pass late
        let took = t.elapsed().as_secs_f64();
        if passes.len() >= 2 && start.elapsed().as_secs_f64() + took / 2.0 > seconds {
            break;
        }
    }

    // independent check, outside every timing: pass 0's replies, and any
    // later reply whose BLIF differs from pass 0's
    let check_start = Instant::now();
    let mut parse_ns = 0u128;
    let lib = Library::mcnc();
    let (mut premap, mut mapped) = (0usize, 0usize);
    let mut job_premap: Vec<Option<usize>> = vec![None; jobs.len()];
    let mut verdicts: HashMap<(usize, &str), Result<(), String>> = HashMap::new();
    let mut first_fail: Option<String> = None;
    let (mut attempted, mut failed, mut shed, mut errors) = (0u64, 0u64, 0u64, 0u64);
    for (pi, p) in passes.iter().enumerate() {
        for (j, a) in p.answers.iter().enumerate() {
            attempted += 1;
            let verdict = match &a.result {
                Err(e) => {
                    if a.shed {
                        shed += 1;
                    } else {
                        errors += 1;
                    }
                    Err(e.clone())
                }
                Ok(r) if r.salvaged > 0 => Err(format!("{} salvaged outputs", r.salvaged)),
                Ok(r) => verdicts
                    .entry((j, r.blif.as_str()))
                    .or_insert_with(|| {
                        let t = Instant::now();
                        let parsed = parse_blif(&r.blif);
                        if pi == 0 {
                            parse_ns += t.elapsed().as_nanos();
                        }
                        let net = parsed.map_err(|e| format!("reply BLIF: {e}"))?;
                        if pi == 0 {
                            let lits = net.two_input_cost().1;
                            job_premap[j] = Some(lits);
                            if jobs[j].class == Class::Cold {
                                premap += lits;
                                mapped += map_network(&net, &lib).num_literals();
                            }
                        }
                        check(&jobs[j].spec, &net, seed)
                    })
                    .clone(),
            };
            if let Err(e) = verdict {
                failed += 1;
                first_fail.get_or_insert(format!("{}: {e}", jobs[j].name));
            }
        }
    }
    let check_ms = check_start.elapsed().as_secs_f64() * 1e3;
    report.attempted += attempted;
    report.failed += failed;

    let timed: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let walls_ms: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}", p.wall.as_secs_f64() * 1e3))
        .collect();
    report.note(&format!("pass wall ms: {}", walls_ms.join(" ")));
    report.row(&format!(
        "{:<13} {:<22} {:<8} {:>10} {:>10} {:>7} {:>7}  verdict",
        "workload", "job", "class", "server_ms", "client_ms", "hits", "premap"
    ));
    for (j, job) in jobs.iter().enumerate() {
        let lat: Vec<f64> = timed
            .iter()
            .map(|p| p.answers[j].latency.as_secs_f64() * 1e3)
            .collect();
        let (server, hits, verdict) = match &passes[0].answers[j].result {
            Ok(r) => (r.seconds * 1e3, r.hits, "ok".to_string()),
            Err(e) => (0.0, 0, format!("FAIL {e}")),
        };
        let premap = job_premap[j].map_or("-".to_string(), |l| l.to_string());
        report.row(&format!(
            "{:<13} {:<22} {:<8} {:>10.2} {:>10.2} {:>7} {:>7}  {verdict}",
            "serve-mixed",
            job.name,
            job.class.label(),
            server,
            median(&lat),
            hits,
            premap
        ));
    }
    report.note(&format!(
        "{} passes ({} traced), {} jobs per pass over {CONNECTIONS} connections, \
         independent check {:.0} ms, {attempted} jobs, {failed} failed",
        passes.len(),
        passes.len() - timed.len(),
        jobs.len(),
        check_ms
    ));
    if let Some(e) = first_fail {
        report.note(&format!("first failure: {e}"));
    }

    let server_s = |p: &Pass, class: Option<Class>| -> f64 {
        p.answers
            .iter()
            .zip(jobs)
            .filter(|(_, job)| class.is_none_or(|c| job.class == c))
            .filter_map(|(a, _)| a.result.as_ref().ok())
            .map(|r| r.seconds)
            .sum()
    };
    if !trace {
        let walls: Vec<f64> = timed.iter().map(|p| p.wall.as_secs_f64()).collect();
        let synth: Vec<f64> = timed.iter().map(|p| server_s(p, None)).collect();
        let per_job: Vec<f64> = (0..jobs.len())
            .map(|j| {
                median(
                    &timed
                        .iter()
                        .map(|p| p.answers[j].latency.as_secs_f64() * 1e3)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let rate: Vec<f64> = timed
            .iter()
            .map(|p| {
                let ok = p.answers.iter().filter(|a| a.result.is_ok()).count();
                ok as f64 / p.wall.as_secs_f64()
            })
            .collect();
        let rss: Vec<f64> = timed
            .iter()
            .filter_map(|p| p.peak_rss_kb)
            .map(|kb| kb as f64 / 1024.0)
            .collect();
        report.metric("pass_s", median(&walls), "s");
        report.metric("synth_pass_s", median(&synth), "s");
        report.metric("circuit_geomean_ms", geomean(&per_job), "ms");
        report.metric("map_lits_total", mapped as f64, "literals");
        report.metric("premap_lits_total", premap as f64, "literals");
        report.metric("peak_rss_mb", median(&rss), "MiB");
        for class in Class::ALL {
            let per_job: Vec<Vec<f64>> = (0..jobs.len())
                .filter(|&j| jobs[j].class == class)
                .map(|j| {
                    timed
                        .iter()
                        .map(|p| p.answers[j].latency.as_secs_f64() * 1e3)
                        .collect()
                })
                .collect();
            report.latency(class, &per_job);
        }
        report.metric("jobs_per_s", median(&rate), "jobs/s");
        return setups;
    }

    // traced run: per-layer numbers from the traced passes only
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let tp = traced.len() as f64;
    tracer.on = true;
    for p in &traced {
        let root = tracer.span("pass", "pass", None, p.start, p.wall);
        for (a, job) in p.answers.iter().zip(jobs) {
            let span = tracer.span("serve.job", &job.name, root, a.start, a.latency);
            if let Ok(r) = &a.result {
                tracer.reported(
                    span,
                    &[("serve.server", Duration::from_secs_f64(r.seconds))],
                );
            }
        }
    }
    let server_ms = tracer.total_ms("serve.server") / tp;
    report.layer("core.synth_ms", server_ms, "ms");
    let mut phase_ms = 0.0;
    for (phase, metric) in [
        ("fprm", "core.fprm_ms"),
        ("factoring", "core.factoring_ms"),
        ("sharing", "core.sharing_ms"),
        ("redundancy", "core.redundancy_ms"),
        ("verify", "core.verify_ms"),
    ] {
        let ms = traced
            .iter()
            .map(|p| p.phases.get(phase).copied().unwrap_or(0.0))
            .sum::<f64>()
            * 1e3
            / tp;
        phase_ms += ms;
        report.layer(metric, ms, "ms");
    }
    report.layer("core.unattributed_ms", server_ms - phase_ms, "ms");
    let replies: Vec<(&Reply, &Job, &Pass)> = traced
        .iter()
        .flat_map(|p| {
            p.answers
                .iter()
                .zip(jobs)
                .filter_map(move |(a, job)| a.result.as_ref().ok().map(|r| (r, job, *p)))
        })
        .collect();
    let sum = |f: &dyn Fn(&Reply) -> f64| replies.iter().map(|(r, _, _)| f(r)).sum::<f64>() / tp;
    report.layer("core.salvaged", sum(&|r| r.salvaged as f64), "count");
    let write_ms: f64 = jobs.iter().map(|j| j.write_ns as f64).sum::<f64>() / 1e6;
    report.layer("blif.write_ms", write_ms, "ms");
    report.layer("blif.parse_ms", parse_ns as f64 / 1e6, "ms");
    let kb: f64 = jobs.iter().map(|j| j.blif.len() as f64).sum::<f64>() / 1024.0;
    report.layer("blif.source_kb", kb, "KiB");
    for class in Class::ALL {
        let (h, all) = replies
            .iter()
            .filter(|(_, job, _)| job.class == class)
            .fold((0.0, 0.0), |(h, all), (r, _, _)| {
                (h + r.hits as f64, all + (r.hits + r.misses) as f64)
            });
        report.layer(
            &format!("cache.hit_ratio_{}", class.label()),
            ratio(h, all),
            "ratio",
        );
    }
    report.layer(
        "cache.polarity_hits",
        sum(&|r| r.polarity_hits as f64),
        "count",
    );
    report.layer(
        "cache.factored_hits",
        sum(&|r| r.factored_hits as f64),
        "count",
    );
    report.layer("cache.misses", sum(&|r| r.misses as f64), "count");
    let evictions: f64 = traced.iter().map(|p| p.evictions).sum::<f64>() / tp;
    report.layer("cache.evictions", evictions, "count");
    let bytes = traced.iter().map(|p| p.cache_bytes).fold(0.0, f64::max);
    report.layer("cache.bytes", bytes, "bytes");
    let (mut warm, mut cold) = (0.0, 0.0);
    for p in &traced {
        for (a, job) in p.answers.iter().zip(jobs) {
            if let (Class::Warm, Ok(r), Ok(c)) =
                (job.class, &a.result, &p.answers[job.origin].result)
            {
                warm += r.seconds;
                cold += c.seconds;
            }
        }
    }
    report.layer("cache.warm_saved_frac", 1.0 - ratio(warm, cold), "ratio");
    report.layer("serve.server_ms", server_ms, "ms");
    let queue_ms = traced
        .iter()
        .flat_map(|p| {
            jobs.iter()
                .map(|j| p.queue_s.get(&j.name).copied().unwrap_or(0.0))
        })
        .sum::<f64>()
        * 1e3
        / tp;
    report.layer("serve.queue_ms", queue_ms, "ms");
    report.layer("serve.overhead_ms", tracer.self_ms("serve.job") / tp, "ms");
    report.layer("serve.shed", shed as f64 / passes.len() as f64, "count");
    report.layer("serve.errors", errors as f64 / passes.len() as f64, "count");
    let untraced: Vec<f64> = timed.iter().map(|p| p.wall.as_secs_f64()).collect();
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall.as_secs_f64()).collect();
    report.layer(
        "trace.overhead_frac",
        median(&traced_walls) / median(&untraced) - 1.0,
        "ratio",
    );
    report.layer(
        "unattributed_frac",
        tracer.uncovered_frac("pass", |n| n.starts_with("serve."), |_| false),
        "ratio",
    );
    report.write_spans(&tracer);
    setups
}
