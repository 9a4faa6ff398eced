//! `whatif_serve`: one caller in a closed loop against a spawned
//! `sdnav serve`, alternating rate edits and re-evaluations.
//!
//! Each cycle sends six requests, each after a seeded exponential think
//! time: PATCH the SW rate, eval (the SW sub-models recompute), eval
//! (warm), PATCH a spec downtime factor, eval (both domains recompute),
//! eval (warm). Every response is compared byte for byte with the body an
//! in-process replay of the same sequence produces (`ModelState`,
//! `EvalGraph`, one thread), which is the service's parity guarantee and
//! holds for any seed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sdnav_audit::SweepPlan;
use sdnav_core::{ControllerSpec, ModelState};
use sdnav_grid::{evaluate_incremental, EvalGraph, GridSpec};
use sdnav_json::{schema, Envelope, Json};

use crate::child::{peak_rss_kb, Reaped};
use crate::digest::Chain;
use crate::metrics::{rate, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, tail_per_mille};
use crate::trace::Tracer;
use crate::{Outcome, Run};

const SW_RATE: &str = "sw.process.manual";
const SPEC_RATE: &str = "spec.Config/config-api.downtime_factor";
const THINK_MEAN_S: f64 = 0.020;

/// Set-up (spawn → listening → first cold eval returned) is timed on this
/// many servers and reported as the median.
const SETUPS: usize = 9;

/// The response-chain digest is checked against the goldens after every
/// this many cycles.
const GOLDEN_EVERY: usize = 10;

/// Share of the traced run's time spent driving the real server; the rest
/// replays the same requests in process.
const TRACED_CLIENT_SHARE: f64 = 0.5;

fn eval_body(smoke: bool) -> String {
    format!(r#"{{"points":{},"threads":2}}"#, if smoke { 5 } else { 41 })
}

/// What a request does to the evaluator's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// An eval after a spec edit invalidated both domains.
    Cold,
    /// An eval after an SW-rate edit invalidated the SW domain.
    SwPatch,
    /// An eval with nothing invalidated since the last one.
    Warm,
    /// A rate edit.
    Patch,
}

impl Class {
    const ALL: [Class; 4] = [Class::Cold, Class::SwPatch, Class::Warm, Class::Patch];

    fn name(self) -> &'static str {
        match self {
            Class::Cold => "cold",
            Class::SwPatch => "sw_patch",
            Class::Warm => "warm",
            Class::Patch => "patch",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    Patch { name: &'static str, value: f64 },
    Eval(Class),
}

impl Request {
    fn class(&self) -> Class {
        match self {
            Request::Patch { .. } => Class::Patch,
            Request::Eval(class) => *class,
        }
    }

    fn body(&self, eval_body: &str) -> String {
        match self {
            Request::Patch { name, value } => format!(r#"{{"name":"{name}","value":{value}}}"#),
            Request::Eval(_) => eval_body.to_owned(),
        }
    }
}

/// The seeded request sequence: the same seed yields the same think times
/// and patch values, and every patch moves its rate to a new value.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: SmallRng,
}

impl Schedule {
    pub fn new(seed: u64) -> Self {
        Schedule {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The next cycle: six requests, each with the think time before it.
    pub fn next_cycle(&mut self) -> Vec<(Duration, Request)> {
        let manual = 0.9990 + 0.0009 * self.rng.random::<f64>();
        let factor = 0.5 + 1.5 * self.rng.random::<f64>();
        [
            Request::Patch {
                name: SW_RATE,
                value: manual,
            },
            Request::Eval(Class::SwPatch),
            Request::Eval(Class::Warm),
            Request::Patch {
                name: SPEC_RATE,
                value: factor,
            },
            Request::Eval(Class::Cold),
            Request::Eval(Class::Warm),
        ]
        .into_iter()
        .map(|request| {
            let u: f64 = self.rng.random();
            (
                Duration::from_secs_f64(-THINK_MEAN_S * (1.0 - u).ln()),
                request,
            )
        })
        .collect()
    }
}

/// A running `sdnav serve` on an ephemeral loopback port.
struct Server {
    process: Reaped,
    addr: SocketAddr,
    // Held open so the server's stderr writes never fail.
    _stderr: BufReader<ChildStderr>,
}

impl Server {
    fn spawn(binary: &Path) -> Result<Server, String> {
        let child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut process = Reaped(child);
        let mut stderr = BufReader::new(process.0.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("sdnav serve exited before listening".into()),
                Ok(_) => {}
            }
            if let Some(addr) = line
                .trim()
                .strip_prefix("sdnav serve: listening on http://")
            {
                let addr = addr
                    .parse()
                    .map_err(|_| format!("cannot parse the listening address {addr:?}"))?;
                return Ok(Server {
                    process,
                    addr,
                    _stderr: stderr,
                });
            }
        }
    }

    fn peak_rss_kb(&self) -> Result<u64, String> {
        peak_rss_kb(&self.process.0.id().to_string())
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes every
/// connection after its response). A transport error reads as status 0.
fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let exchange = || -> std::io::Result<Vec<u8>> {
        let mut stream = TcpStream::connect(addr)?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        Ok(raw)
    };
    let raw = match exchange() {
        Ok(raw) => raw,
        Err(e) => return (0, format!("transport error: {e}")),
    };
    let text = String::from_utf8_lossy(&raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return (0, format!("malformed response {text:?}"));
    };
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, body.to_owned())
}

fn send_request(addr: SocketAddr, request: &Request, eval_body: &str) -> (u16, String) {
    let body = request.body(eval_body);
    match request {
        Request::Patch { .. } => send(addr, "PATCH", "/v1/spec", &body),
        Request::Eval(_) => send(addr, "POST", "/v1/eval", &body),
    }
}

/// One request as the client saw it.
#[derive(Debug)]
struct Exchange {
    request: Request,
    status: u16,
    body: String,
    start: Instant,
    end: Instant,
}

impl Exchange {
    fn latency_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Drives the closed loop for `seconds` (or the smoke cycle count).
fn closed_loop(server: &Server, run: &Run, eval_body: &str, seconds: f64) -> Vec<Vec<Exchange>> {
    let mut schedule = Schedule::new(run.seed);
    let mut cycles = Vec::new();
    for _ in run.pacer_for(seconds) {
        let mut cycle = Vec::with_capacity(6);
        for (think, request) in schedule.next_cycle() {
            std::thread::sleep(think);
            let start = Instant::now();
            let (status, body) = send_request(server.addr, &request, eval_body);
            cycle.push(Exchange {
                request,
                status,
                body,
                start,
                end: Instant::now(),
            });
        }
        cycles.push(cycle);
    }
    cycles
}

/// The in-process replay: the state `sdnav serve` keeps, driven by the same
/// requests.
struct Replay {
    state: ModelState,
    graph: EvalGraph,
    eval_body: String,
}

/// A replayed response and what it did to the cache.
struct Replied {
    body: String,
    misses: u64,
    invalidated: u64,
}

impl Replay {
    fn new(eval_body: String) -> Self {
        Replay {
            state: ModelState::paper(ControllerSpec::opencontrail_3x()),
            graph: EvalGraph::new(),
            eval_body,
        }
    }

    /// The body `sdnav serve` answers `request` with, computed in process
    /// on one thread (results are byte-identical at any thread count).
    fn respond(&mut self, t: &mut Tracer, request: &Request) -> Result<Replied, String> {
        let body = request.body(&self.eval_body);
        match request {
            Request::Eval(_) => {
                let mut grid: GridSpec = t
                    .span("json.decode", |_| sdnav_json::from_str(&body))
                    .map_err(|e| e.to_string())?;
                grid.validate().map_err(|e| e.to_string())?;
                grid.threads = 1;
                let outcome = t
                    .span("grid.evaluate_incremental", |_| {
                        evaluate_incremental(&self.state, &grid, &self.graph)
                    })
                    .map_err(|e| e.to_string())?;
                let body = t.span("json.encode", |_| {
                    format!("{}\n", sdnav_json::to_string_pretty(&outcome.results))
                });
                Ok(Replied {
                    body,
                    misses: outcome.metrics.cache_misses,
                    invalidated: 0,
                })
            }
            Request::Patch { name, .. } => {
                let doc = t
                    .span("json.decode", |_| Json::parse(&body))
                    .map_err(|e| e.to_string())?;
                let value = doc
                    .field("value")
                    .and_then(Json::as_f64)
                    .map_err(|e| e.to_string())?;
                let effect = t
                    .span("core.patch", |_| self.state.patch(name, value))
                    .map_err(|e| e.to_string())?;
                let invalidated = t.span("grid.retain_domains", |_| {
                    self.graph
                        .retain_domains(&[self.state.hw_domain(), self.state.sw_domain()])
                });
                // The service's PATCH /v1/spec document.
                let body = t.span("json.encode", |_| {
                    let doc = Envelope::wrap(
                        schema::SERVE_PATCH,
                        vec![
                            ("name", Json::str(*name)),
                            ("value", Json::Num(value)),
                            ("hw_changed", Json::Bool(effect.hw)),
                            ("sw_changed", Json::Bool(effect.sw)),
                            ("invalidated", Json::Num(invalidated as f64)),
                        ],
                    );
                    format!("{}\n", doc.to_pretty())
                });
                Ok(Replied {
                    body,
                    misses: 0,
                    invalidated,
                })
            }
        }
    }
}

/// Spawns a server and returns it with the time from spawn until its
/// first (cold) eval returned, and that eval's response.
fn set_up(binary: &Path, eval_body: &str) -> Result<(Server, f64, String), String> {
    let started = Instant::now();
    let server = Server::spawn(binary)?;
    let (status, body) = send_request(server.addr, &Request::Eval(Class::Cold), eval_body);
    if status != 200 {
        return Err(format!("the set-up eval returned {status}: {body}"));
    }
    Ok((server, started.elapsed().as_secs_f64(), body))
}

/// Replays every request in process, with a root span `pass` per cycle
/// and a `replay.request` span (tagged with the request's index) per
/// request, checks each response against its replay and the response
/// chain against the goldens, one recorded operation per request. Returns
/// what each replayed request did to the cache, and the replay's lifetime
/// cache misses.
fn check_responses(
    run: &Run,
    eval_body: &str,
    setup_body: &str,
    cycles: &[Vec<Exchange>],
    outcome: &mut Outcome,
    t: &mut Tracer,
) -> Result<(Vec<Replied>, u64), String> {
    let mut replay = Replay::new(eval_body.to_owned());
    let mut chain = Chain::new();
    let setup = replay.respond(&mut Tracer::new(), &Request::Eval(Class::Cold))?;
    outcome.record(if setup.body == setup_body {
        Vec::new()
    } else {
        vec!["the set-up eval differs from the replay".to_owned()]
    });
    chain.push(setup_body.as_bytes());
    let mut replied = Vec::new();
    for (c, cycle) in cycles.iter().enumerate() {
        t.set_request(replied.len() as u64);
        t.span("pass", |t| {
            for (k, ex) in cycle.iter().enumerate() {
                t.set_request(replied.len() as u64);
                let expected = t.span("replay.request", |t| replay.respond(t, &ex.request))?;
                let mut problems = Vec::new();
                if ex.status != 200 {
                    problems.push(format!(
                        "cycle {c} request {k} returned {}: {}",
                        ex.status, ex.body
                    ));
                } else if ex.body != expected.body {
                    problems.push(format!("cycle {c} request {k} differs from the replay"));
                }
                chain.push(ex.body.as_bytes());
                if k + 1 == cycle.len() && (c + 1) % GOLDEN_EVERY == 0 {
                    run.check_digest(c + 1, chain.hex(), &mut problems);
                    outcome
                        .notes
                        .push(format!("digest {} {}", c + 1, chain.hex()));
                }
                outcome.record(problems);
                replied.push(expected);
            }
            Ok::<_, String>(())
        })?;
    }
    Ok((replied, replay.graph.misses()))
}

/// Client latency per class, for the human-readable report.
fn latency_notes(cycles: &[Vec<Exchange>]) -> Vec<String> {
    let mut notes = Vec::new();
    for class in Class::ALL {
        let ms: Vec<f64> = cycles
            .iter()
            .flatten()
            .filter(|ex| ex.request.class() == class)
            .map(|ex| ex.latency_s() * 1e3)
            .collect();
        if ms.is_empty() {
            continue;
        }
        let name = match class {
            Class::Patch => "patch_ms".to_owned(),
            other => format!("eval_{}_ms", other.name()),
        };
        let n = ms.len();
        notes.push(format!("{name}_p50 {} ms (n={n})", median(&ms)));
        if let Some(p) = tail_per_mille(n) {
            let label = if p % 10 == 0 {
                format!("p{}", p / 10)
            } else {
                format!("p{}", f64::from(p) / 10.0)
            };
            notes.push(format!("{name}_{label} {} ms (n={n})", percentile(&ms, p)));
        }
    }
    notes
}

/// Tracing off: set-up over several servers, then the closed loop against
/// the last one, then the parity and golden checks.
pub fn measure(run: &Run, binary: &Path) -> Result<Outcome, String> {
    let eval_body = eval_body(run.smoke);
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..if run.smoke { 2 } else { SETUPS } {
        drop(last.take());
        let (server, secs, body) = set_up(binary, &eval_body)?;
        setup_s.push(secs);
        last = Some((server, body));
    }
    let (server, setup_body) = last.expect("at least one set-up ran");
    let cycles = closed_loop(&server, run, &eval_body, run.seconds);
    let rss_kb = server.peak_rss_kb()?;
    drop(server);

    let mut outcome = Outcome::new(END_TO_END);
    check_responses(
        run,
        &eval_body,
        &setup_body,
        &cycles,
        &mut outcome,
        &mut Tracer::new(),
    )?;
    let cycle_s: Vec<f64> = cycles
        .iter()
        .map(|cycle| cycle.iter().map(Exchange::latency_s).sum())
        .collect();
    outcome.report.set("setup_s", median(&setup_s));
    outcome.report.set("pass_s", median(&cycle_s));
    outcome.report.set("peak_rss_mb", rss_kb as f64 / 1024.0);
    outcome.notes.push(format!("cycles {}", cycles.len()));
    outcome.notes.extend(latency_notes(&cycles));
    Ok(outcome)
}

/// Tracing on: the closed loop against a real server for part of the run
/// (client spans `serve.request`), then the same requests replayed in
/// process with a span per call (root span `pass` per cycle).
pub fn traced(run: &Run, binary: &Path, t: &mut Tracer) -> Result<Outcome, String> {
    let eval_body = eval_body(run.smoke);
    let grid: GridSpec = sdnav_json::from_str(&eval_body).map_err(|e| e.to_string())?;
    let plan = SweepPlan::predict(&ControllerSpec::opencontrail_3x(), &grid);
    let sw_unique: u64 = plan
        .cells
        .iter()
        .filter(|c| c.kind != "fig3")
        .map(|c| (c.cache_lookups - c.cache_hits) as u64)
        .sum();

    let (server, _, setup_body) = set_up(binary, &eval_body)?;
    let cycles = closed_loop(&server, run, &eval_body, run.seconds * TRACED_CLIENT_SHARE);
    let (status, metrics) = send(server.addr, "GET", "/v1/metrics", "");
    drop(server);
    if status != 200 {
        return Err(format!("GET /v1/metrics returned {status}: {metrics}"));
    }
    let server_misses = Json::parse(&metrics)
        .and_then(|doc| doc.field("cache")?.field("misses")?.as_f64())
        .map_err(|e| format!("cannot read the server's cache counters: {e}"))?;

    if cycles.is_empty() {
        return Err("the traced loop ran no cycle".into());
    }

    // Request `k` of the run carries id `k` in both the client's span and
    // the replay's spans.
    let requests: Vec<&Exchange> = cycles.iter().flatten().collect();
    for (k, ex) in (0u64..).zip(&requests) {
        t.set_request(k);
        t.record("serve.request", ex.start, ex.end);
    }
    let mut outcome = Outcome::new(PER_LAYER);
    let (replied, replay_misses) =
        check_responses(run, &eval_body, &setup_body, &cycles, &mut outcome, t)?;
    let ms = |name: &str, class: Class| -> Vec<f64> {
        t.spans()
            .iter()
            .filter(|s| s.name == name && requests[s.request as usize].request.class() == class)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };

    // Exact counters: the misses of every eval of a class and the
    // invalidations of every patch of a rate must repeat, and match the
    // static prediction.
    let unique = plan.cache.misses as u64;
    let observed: Vec<(&str, u64)> = requests
        .iter()
        .zip(&replied)
        .map(|(ex, r)| match ex.request {
            Request::Eval(class) => (class.name(), r.misses),
            Request::Patch { name, .. } => (name, r.invalidated),
        })
        .collect();
    let mut problems = Vec::new();
    for (key, want, metric) in [
        (Class::Cold.name(), unique, "grid.cache.misses_cold"),
        (
            Class::SwPatch.name(),
            sw_unique,
            "grid.cache.misses_sw_patch",
        ),
        (Class::Warm.name(), 0, "grid.cache.misses_warm"),
        (SPEC_RATE, unique, "grid.cache.invalidated_spec"),
        (SW_RATE, sw_unique, "grid.cache.invalidated_sw"),
    ] {
        let values: Vec<u64> = observed
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .collect();
        if values.iter().any(|&v| v != want) {
            problems.push(format!("{key}: expected {want} every time, got {values:?}"));
        }
        outcome.report.set(metric, want as f64);
    }
    outcome.record(problems);

    let body_bytes = |cycle: &[Exchange]| cycle.iter().map(|ex| ex.body.len() as f64).sum::<f64>();
    let bytes: f64 = cycles.iter().map(|cycle| body_bytes(cycle)).sum();
    let n_cycles = cycles.len() as f64;
    let r = &mut outcome.report;
    r.set("trace.pass_ms", median(&t.durations_ms("pass")));
    r.set("json.bytes", body_bytes(&cycles[0]));
    r.set(
        "json.encode_mb_per_s",
        rate(bytes / 1e6, t.busy_s("json.encode")),
    );
    r.set("json.decodes_per_s", t.calls_per_s("json.decode"));
    r.set("grid.cache.lookups", plan.cache.lookups as f64);
    r.set("grid.cache.unique", unique as f64);
    r.set("grid.cache.misses", server_misses / n_cycles);
    r.set(
        "grid.cache.duplicate_computes",
        (server_misses - replay_misses as f64) / n_cycles,
    );
    for (class, metric) in [
        (Class::Cold, "grid.eval_cold_per_s"),
        (Class::SwPatch, "grid.eval_sw_patch_per_s"),
        (Class::Warm, "grid.eval_warm_per_s"),
    ] {
        r.set(
            metric,
            rate(1.0, median(&ms("grid.evaluate_incremental", class)) / 1e3),
        );
    }
    r.set("core.patches_per_s", t.calls_per_s("core.patch"));
    // The share of the client's median latency that the replay of the same
    // calls does not account for: transport, the accept poll and the
    // server's thread count.
    for (class, metric) in [
        (Class::Cold, "serve.overhead_pct_cold"),
        (Class::SwPatch, "serve.overhead_pct_sw_patch"),
        (Class::Warm, "serve.overhead_pct_warm"),
        (Class::Patch, "serve.overhead_pct_patch"),
    ] {
        let client = median(&ms("serve.request", class));
        let own = median(&ms("replay.request", class));
        r.set(metric, 100.0 * (client - own) / client);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_exactly_for_a_seed_and_differ_across_seeds() {
        let cycles = |seed| {
            let mut s = Schedule::new(seed);
            (0..50).map(|_| s.next_cycle()).collect::<Vec<_>>()
        };
        let a = cycles(7);
        assert_eq!(a, cycles(7));
        assert_ne!(a, cycles(1000));

        let mut previous: Vec<(&str, f64)> = Vec::new();
        for cycle in &a {
            let classes: Vec<Class> = cycle.iter().map(|(_, r)| r.class()).collect();
            assert_eq!(
                classes,
                [
                    Class::Patch,
                    Class::SwPatch,
                    Class::Warm,
                    Class::Patch,
                    Class::Cold,
                    Class::Warm
                ]
            );
            for (think, request) in cycle {
                assert!(*think < Duration::from_secs(2), "think time {think:?}");
                if let Request::Patch { name, value } = request {
                    assert!(
                        previous.iter().all(|(n, v)| n != name || v != value),
                        "{name} repeated {value}"
                    );
                    previous.push((name, *value));
                }
            }
        }
        let think: f64 = a.iter().flatten().map(|(d, _)| d.as_secs_f64()).sum();
        let mean = think / (a.len() * 6) as f64;
        assert!(
            (mean - THINK_MEAN_S).abs() < 0.005,
            "mean think time {mean}"
        );
    }

    #[test]
    fn patch_bodies_carry_values_that_round_trip() {
        let mut s = Schedule::new(7);
        for (_, request) in s.next_cycle() {
            if let Request::Patch { name, value } = request {
                let doc = Json::parse(&request.body("")).unwrap();
                assert_eq!(doc.field("name").unwrap().as_str().unwrap(), name);
                assert_eq!(
                    doc.field("value").unwrap().as_f64().unwrap().to_bits(),
                    value.to_bits()
                );
            }
        }
    }
}
