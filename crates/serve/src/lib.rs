//! `sdnav serve` — the persistent evaluator service.
//!
//! A std-only HTTP/1.1 + JSON server over the Result-first core. It loads
//! one controller spec, holds a [`ModelState`] (spec + HW/SW parameter
//! sets) behind a mutex, and memoizes sub-model evaluations in a
//! cross-request [`EvalGraph`], so editing one rate and re-evaluating
//! recomputes only the dependent sub-models.
//!
//! | Method  | Path          | Meaning                                        |
//! |---------|---------------|------------------------------------------------|
//! | `POST`  | `/v1/eval`    | Evaluate a grid (body: grid spec JSON, optional)|
//! | `POST`  | `/v1/chaos/generate` | FMEA-derived chaos campaign (genspec)    |
//! | `PATCH` | `/v1/spec`    | Edit one named rate: `{"name", "value"}`        |
//! | `GET`   | `/v1/plan`    | Static cost prediction for a proposed grid      |
//! | `GET`   | `/v1/metrics` | Service + cache counters                        |
//! | `GET`   | `/v1/healthz` | Liveness                                        |
//!
//! **Parity guarantee:** a `POST /v1/eval` response body is byte-identical
//! to `sdnav sweep --format json` for the same grid, at any thread count,
//! whether the graph is cold or warm — entries are content-addressed over
//! the domain fingerprint and keyed by f64 bit patterns, so a cache hit
//! can never change a result byte.
//!
//! Errors are structured `sdnav-serve-error/v1` documents; the HTTP status
//! comes from the same [`ErrorKind`](sdnav_core::ErrorKind) table the CLI
//! maps onto exit codes. A request whose handler panics answers 500 with
//! an `analysis` error document, and the service keeps serving.
//!
//! The server is deliberately minimal: one request per connection
//! (`Connection: close`), a thread per connection, and an accept loop that
//! blocks in `accept`. A watcher thread polls an externally owned shutdown
//! flag; once the flag is set it wakes the loop with a connection to the
//! listener's own address, and the loop stops accepting, drains in-flight
//! requests to completion, and returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::ops::{Deref, DerefMut};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sdnav_chaos::GenerateConfig;
use sdnav_core::{ControllerSpec, ModelState, Scenario, SdnavError, Topology};
use sdnav_fmea::Deployment;
use sdnav_grid::{evaluate_incremental, EvalGraph, GridSpec};
use sdnav_json::{schema, Envelope, Json, JsonError, ToJson};

/// How often the shutdown watcher reads the flag, and how long the accept
/// loop backs off after a failed `accept` (e.g. `EMFILE`) so it cannot
/// spin. Neither is on the path of a request.
const POLL: Duration = Duration::from_millis(25);

/// Per-connection socket read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on a request head: the request line and headers through
/// the blank line that ends them.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// What the service serves: an address and the controller spec it
/// evaluates. Build one with [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    addr: String,
    spec: ControllerSpec,
}

impl ServeConfig {
    /// Starts a builder serving `spec` on `127.0.0.1:0` (an ephemeral
    /// loopback port; read the bound address from
    /// [`Server::local_addr`]).
    pub fn builder(spec: ControllerSpec) -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                spec,
            },
        }
    }

    /// The address the server will bind.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The controller spec under analysis.
    #[must_use]
    pub fn spec(&self) -> &ControllerSpec {
        &self.spec
    }
}

/// Step-by-step construction of a validated [`ServeConfig`].
#[derive(Debug, Clone)]
#[must_use = "call `.build()` to obtain the validated ServeConfig"]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the bind address (e.g. `127.0.0.1:8080`; port 0 picks an
    /// ephemeral one).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Validates the spec and returns the config.
    ///
    /// # Errors
    ///
    /// Returns a `Model`-kind [`SdnavError`] when the spec fails
    /// validation — a server must not boot on a spec it could never
    /// evaluate.
    pub fn build(self) -> Result<ServeConfig, SdnavError> {
        self.config.spec.validate()?;
        Ok(self.config)
    }
}

/// Mutable service state shared by every connection handler.
#[derive(Debug)]
struct ServiceState {
    /// The evaluator state; the mutex also serializes evaluations so the
    /// per-run metrics deltas on the shared graph stay attributable. Take
    /// it only through [`ServiceState::lock_model`].
    model: Mutex<ModelState>,
    /// When the current holder took `model`, in µs since `started`; 0
    /// while the lock is free.
    model_locked_at: AtomicU64,
    started: Instant,
    graph: EvalGraph,
    requests: AtomicU64,
    evals: AtomicU64,
    patches: AtomicU64,
}

impl ServiceState {
    fn new(spec: ControllerSpec) -> ServiceState {
        ServiceState {
            model: Mutex::new(ModelState::paper(spec)),
            model_locked_at: AtomicU64::new(0),
            started: Instant::now(), // detlint::allow(DL002): times the model lock for /v1/metrics, never a result
            graph: EvalGraph::new(),
            requests: AtomicU64::new(0),
            evals: AtomicU64::new(0),
            patches: AtomicU64::new(0),
        }
    }

    /// Takes the model lock and stamps when, so `/v1/metrics` can show an
    /// evaluation that never lets go of it. A lock poisoned by a panicking
    /// handler is recovered: [`ModelState::patch`] validates a clone
    /// before swapping it in, so a panic never leaves a half-made edit.
    fn lock_model(&self) -> ModelGuard<'_> {
        let model = self.model.lock().unwrap_or_else(PoisonError::into_inner);
        // At least 1, because 0 means free.
        let now = self.micros().max(1);
        self.model_locked_at.store(now, Ordering::Relaxed);
        ModelGuard {
            model,
            locked_at: &self.model_locked_at,
        }
    }

    /// How long the current holder has held the model lock; 0 when free.
    fn model_lock_held_ms(&self) -> u64 {
        match self.model_locked_at.load(Ordering::Relaxed) {
            0 => 0,
            at => self.micros().saturating_sub(at) / 1000,
        }
    }

    fn micros(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// The held model lock. Dropping it clears the lock stamp before the
/// mutex unlocks, so the next holder's stamp is never overwritten.
struct ModelGuard<'a> {
    model: MutexGuard<'a, ModelState>,
    locked_at: &'a AtomicU64,
}

impl Deref for ModelGuard<'_> {
    type Target = ModelState;

    fn deref(&self) -> &ModelState {
        &self.model
    }
}

impl DerefMut for ModelGuard<'_> {
    fn deref_mut(&mut self) -> &mut ModelState {
        &mut self.model
    }
}

impl Drop for ModelGuard<'_> {
    fn drop(&mut self) {
        self.locked_at.store(0, Ordering::Relaxed);
    }
}

/// A bound, not-yet-running evaluator service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: ServiceState,
}

impl Server {
    /// Binds the listener and initializes the evaluator state at the
    /// paper-default parameters.
    ///
    /// # Errors
    ///
    /// Returns an `Io`-kind [`SdnavError`] when the address cannot be
    /// bound.
    pub fn bind(config: ServeConfig) -> Result<Server, SdnavError> {
        let listener = TcpListener::bind(config.addr())
            .map_err(|e| SdnavError::io(format!("cannot bind {}: {e}", config.addr())))?;
        Ok(Server {
            listener,
            state: ServiceState::new(config.spec),
        })
    }

    /// The address the listener actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Returns an `Io`-kind [`SdnavError`] when the socket cannot report
    /// its address.
    pub fn local_addr(&self) -> Result<SocketAddr, SdnavError> {
        self.listener
            .local_addr()
            .map_err(|e| SdnavError::io(format!("cannot read bound address: {e}")))
    }

    /// Serves until `shutdown` is set: blocks in `accept`, runs one handler
    /// thread per connection, then drains in-flight requests to completion
    /// before returning. In-flight responses are always written in full —
    /// the flag only stops *new* work.
    ///
    /// A watcher thread reads the flag every 25 ms. Once it is set, the
    /// watcher connects to the listener's own address (loopback when bound
    /// to an unspecified address) to wake the blocked `accept`; the loop
    /// drops that connection unanswered and stops.
    ///
    /// # Errors
    ///
    /// Returns an `Io`-kind [`SdnavError`] when the listener cannot report
    /// the address the watcher wakes it on.
    pub fn run(&self, shutdown: &AtomicBool) -> Result<(), SdnavError> {
        let wake = loopback(self.local_addr()?);
        std::thread::scope(|scope| {
            // The watcher stops once `accepting` drops: after the loop, or
            // while a panic unwinds it.
            let (accepting, accept_loop) = mpsc::channel::<()>();
            scope.spawn(move || wake_on_shutdown(shutdown, &accept_loop, wake));
            while !shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    // The watcher's wake-up, or a client that raced it.
                    Ok(_) if shutdown.load(Ordering::SeqCst) => break,
                    Ok((stream, _)) => {
                        let state = &self.state;
                        scope.spawn(move || handle_connection(stream, state));
                    }
                    Err(_) => std::thread::sleep(POLL),
                }
            }
            drop(accepting);
            // Drain: the scope joins the watcher and every handler on exit.
        });
        Ok(())
    }
}

/// `addr` with an unspecified IP (`0.0.0.0`, `::`) replaced by the
/// loopback address of the same family, so the server can connect to it.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Wakes the blocked accept loop once `shutdown` is set, by connecting to
/// `addr` once per poll until the loop drops the sending end of
/// `accept_loop`. A connect that fails (say, on a full backlog) is simply
/// tried again.
fn wake_on_shutdown(shutdown: &AtomicBool, accept_loop: &Receiver<()>, addr: SocketAddr) {
    while let Err(RecvTimeoutError::Timeout) = accept_loop.recv_timeout(POLL) {
        if shutdown.load(Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&addr, POLL);
        }
    }
}

/// One parsed HTTP/1.1 request.
struct Request {
    method: String,
    path: String,
    query: String,
    body: String,
}

fn handle_connection(mut stream: TcpStream, state: &ServiceState) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    state.requests.fetch_add(1, Ordering::Relaxed);
    let (status, body) = respond(|| read_request(&mut stream).and_then(|req| route(state, &req)));
    let _ = write_response(&mut stream, status, &body);
}

/// Runs one request's work and returns its status and body: an error
/// becomes its error document, and a panic a 500 `analysis` one, so a
/// handler bug costs one request rather than the service.
fn respond(work: impl FnOnce() -> Result<(u16, String), SdnavError>) -> (u16, String) {
    // Unwind safety: the only state a handler shares is the model mutex,
    // whose poisoning `lock_model` recovers from, plus the graph and
    // counters, which a panic cannot leave half-updated.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|_| {
        Err(SdnavError::analysis(
            "request handler panicked; the server's stderr has the message",
        ))
    });
    match outcome {
        Ok(ok) => ok,
        Err(e) => (e.http_status(), error_body(&e)),
    }
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn read_request(stream: &mut impl Read) -> Result<Request, SdnavError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        // Only a blank line that ends within the bound counts, so a head
        // is accepted up to `MAX_HEAD_BYTES` exactly, however it arrives.
        if let Some(pos) = find_blank_line(&buf[..buf.len().min(MAX_HEAD_BYTES)]) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(SdnavError::usage("request head exceeds 64 KiB"));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| SdnavError::io(format!("cannot read request: {e}")))?;
        if n == 0 {
            return Err(SdnavError::usage("connection closed before request head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| SdnavError::usage("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => {
            return Err(SdnavError::usage(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(SdnavError::usage(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));

    let mut content_length = 0usize;
    for line in lines {
        if let Some((key, value)) = line.split_once(':') {
            if key.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    SdnavError::usage(format!("malformed content-length {:?}", value.trim()))
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(SdnavError::usage("request body exceeds 8 MiB"));
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| SdnavError::io(format!("cannot read request body: {e}")))?;
        if n == 0 {
            return Err(SdnavError::usage("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body =
        String::from_utf8(body).map_err(|_| SdnavError::usage("request body is not UTF-8"))?;

    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: query.to_owned(),
        body,
    })
}

fn route(state: &ServiceState, req: &Request) -> Result<(u16, String), SdnavError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/eval") => eval(state, &req.body),
        ("POST", "/v1/chaos/generate") => chaos_generate(state, &req.body),
        ("PATCH", "/v1/spec") => patch(state, &req.body),
        ("GET", "/v1/plan") => plan(state, &req.query),
        ("GET", "/v1/metrics") => Ok((200, metrics_body(state))),
        ("GET", "/v1/healthz") => Ok((
            200,
            document(Envelope::wrap(
                schema::SERVE_HEALTH,
                vec![("status", Json::str("ok"))],
            )),
        )),
        (
            _,
            "/v1/eval" | "/v1/chaos/generate" | "/v1/spec" | "/v1/plan" | "/v1/metrics"
            | "/v1/healthz",
        ) => Err(SdnavError::method(format!(
            "{} does not accept {}",
            req.path, req.method
        ))),
        (_, other) => Err(SdnavError::not_found(format!(
            "unknown route {other:?}; routes: POST /v1/eval, POST /v1/chaos/generate, \
             PATCH /v1/spec, GET /v1/plan, GET /v1/metrics, GET /v1/healthz"
        ))),
    }
}

/// `POST /v1/eval` — evaluate a grid against the current model state.
///
/// The body is a grid spec JSON document (every field optional, same
/// shape `sdnav sweep` flags map to); an empty body evaluates the default
/// grid. The response body is exactly what `sdnav sweep --format json`
/// prints for the same grid.
fn eval(state: &ServiceState, body: &str) -> Result<(u16, String), SdnavError> {
    let grid = if body.trim().is_empty() {
        GridSpec::builder().build()?
    } else {
        let grid: GridSpec = sdnav_json::from_str(body)?;
        grid.validate()?;
        grid
    };
    // Hold the model lock across the evaluation: a concurrent PATCH must
    // not swap fingerprints mid-run, and serialized runs keep the graph's
    // hit/miss deltas attributable to one request at a time.
    let model = state.lock_model();
    let outcome = evaluate_incremental(&model, &grid, &state.graph)?;
    state.evals.fetch_add(1, Ordering::Relaxed);
    Ok((
        200,
        format!("{}\n", sdnav_json::to_string_pretty(&outcome.results)),
    ))
}

/// `POST /v1/chaos/generate` — compile the current model's FMEA dominant
/// failure modes into an injection campaign with per-mode expectation
/// records (an `sdnav-chaos-genspec/v1` document).
///
/// Body (every field optional; an empty body generates the default
/// small-topology campaign):
///
/// ```json
/// {"topology": "large", "scenario": "not-required",
///  "top_k": 5, "max_order": 2, "start_hours": 1000.0,
///  "spacing_hours": 2000.0, "repair_hours": 48.0, "stress": false}
/// ```
///
/// The response is exactly what `sdnav chaos generate --format json`
/// prints for the same knobs, except it reflects the service's live SW
/// parameters — a `PATCH /v1/spec` that moves a process rate can reorder
/// the dominant modes and therefore the generated campaign. Unknown
/// topology or scenario names are model errors (HTTP 422); malformed
/// JSON is a parse error (HTTP 400).
fn chaos_generate(state: &ServiceState, body: &str) -> Result<(u16, String), SdnavError> {
    let doc = if body.trim().is_empty() {
        Json::obj(vec![])
    } else {
        Json::parse(body)?
    };
    let defaults = GenerateConfig::default();
    let config = GenerateConfig {
        top_k: field(&doc, "top_k", defaults.top_k, Json::as_usize)?,
        max_order: field(&doc, "max_order", defaults.max_order, Json::as_usize)?,
        start_hours: field(&doc, "start_hours", defaults.start_hours, Json::as_f64)?,
        spacing_hours: field(&doc, "spacing_hours", defaults.spacing_hours, Json::as_f64)?,
        repair_hours: field(&doc, "repair_hours", defaults.repair_hours, Json::as_f64)?,
        stress: field(&doc, "stress", defaults.stress, Json::as_bool)?,
    };
    let scenario_name = field(&doc, "scenario", "not-required", Json::as_str)?;
    let scenario = Scenario::from_name(scenario_name).ok_or_else(|| {
        SdnavError::model(format!(
            "scenario must be \"required\" or \"not-required\", got {scenario_name:?}"
        ))
    })?;
    let topology_name = field(&doc, "topology", "small", Json::as_str)?;

    let model = state.lock_model();
    let topo = Topology::named(&model.spec, topology_name).ok_or_else(|| {
        SdnavError::model(format!(
            "topology must be \"small\", \"medium\" or \"large\", got {topology_name:?}"
        ))
    })?;
    let deployment = Deployment::new(&model.spec, &topo, model.sw, scenario);
    let generated = sdnav_chaos::generate(&deployment, &config)
        .map_err(|e| SdnavError::model(e.to_string()))?;
    Ok((200, document(generated.to_json())))
}

/// Field `key` of a JSON request body, read by `read`, or `default` when
/// the body omits it.
fn field<'a, T>(
    doc: &'a Json,
    key: &str,
    default: T,
    read: fn(&'a Json) -> Result<T, JsonError>,
) -> Result<T, SdnavError> {
    let value = doc.get(key).map(|v| read(v).map_err(|e| e.ctx(key)));
    Ok(value.transpose()?.unwrap_or(default))
}

/// `PATCH /v1/spec` — edit one named rate or parameter.
///
/// Body: `{"name": "sw.a_h", "value": 0.9998}`. Applies the edit through
/// [`ModelState::patch`], evicts graph entries whose domain fingerprint
/// died, and reports which domains changed plus how many sub-model
/// entries were invalidated.
fn patch(state: &ServiceState, body: &str) -> Result<(u16, String), SdnavError> {
    let doc = Json::parse(body)?;
    let name = doc
        .field("name")
        .and_then(Json::as_str)
        .map_err(|e| e.ctx("name"))?
        .to_owned();
    let value = doc
        .field("value")
        .and_then(Json::as_f64)
        .map_err(|e| e.ctx("value"))?;

    let mut model = state.lock_model();
    let effect = model.patch(&name, value)?;
    let invalidated = state
        .graph
        .retain_domains(&[model.hw_domain(), model.sw_domain()]);
    state.patches.fetch_add(1, Ordering::Relaxed);
    Ok((
        200,
        document(Envelope::wrap(
            schema::SERVE_PATCH,
            vec![
                ("name", Json::str(name)),
                ("value", Json::Num(value)),
                ("hw_changed", Json::Bool(effect.hw)),
                ("sw_changed", Json::Bool(effect.sw)),
                ("invalidated", Json::Num(invalidated as f64)),
            ],
        )),
    ))
}

/// `GET /v1/plan` — the static SA030–SA032 cost prediction for a proposed
/// grid, without evaluating a cell.
///
/// The grid comes from the query string (`?points=41&replications=50&
/// figures=fig3,fig4`), keyed like the `sdnav sweep` flags
/// ([`GridSpecBuilder::KEYS`](sdnav_grid::GridSpecBuilder::KEYS)). The
/// response is the same `sdnav-sweep-plan/v1` document
/// `sdnav sweep --dry-run` prints.
fn plan(state: &ServiceState, query: &str) -> Result<(u16, String), SdnavError> {
    let grid = grid_from_query(query)?;
    let model = state.lock_model();
    let plan = sdnav_audit::SweepPlan::predict(&model.spec, &grid);
    Ok((200, format!("{}\n", sdnav_json::to_string_pretty(&plan))))
}

fn grid_from_query(query: &str) -> Result<GridSpec, SdnavError> {
    let mut builder = GridSpec::builder();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| SdnavError::usage(format!("query parameter {pair:?} is missing `=`")))?;
        builder = builder.set(key, value)?;
    }
    Ok(builder.build()?)
}

fn metrics_body(state: &ServiceState) -> String {
    document(Envelope::wrap(
        schema::SERVE_METRICS,
        vec![
            (
                "requests",
                Json::Num(state.requests.load(Ordering::Relaxed) as f64),
            ),
            (
                "evals",
                Json::Num(state.evals.load(Ordering::Relaxed) as f64),
            ),
            (
                "patches",
                Json::Num(state.patches.load(Ordering::Relaxed) as f64),
            ),
            (
                "model_lock_held_ms",
                Json::Num(state.model_lock_held_ms() as f64),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("entries", Json::Num(state.graph.len() as f64)),
                    ("hits", Json::Num(state.graph.hits() as f64)),
                    ("misses", Json::Num(state.graph.misses() as f64)),
                    ("invalidated", Json::Num(state.graph.invalidated() as f64)),
                ]),
            ),
        ],
    ))
}

fn document(doc: Json) -> String {
    format!("{}\n", doc.to_pretty())
}

/// Structured `sdnav-serve-error/v1` body for `e`.
fn error_body(e: &SdnavError) -> String {
    document(Envelope::wrap(
        schema::SERVE_ERROR,
        vec![
            ("kind", Json::str(e.kind().name())),
            ("status", Json::Num(f64::from(e.http_status()))),
            ("message", Json::str(e.to_string())),
        ],
    ))
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\n\
         content-length: {length}\r\nconnection: close\r\n\r\n",
        reason = status_reason(status),
        length = body.len(),
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnav_core::ErrorKind;
    use sdnav_grid::plan::Figure;

    #[test]
    fn config_builder_validates_the_spec() {
        let ok = ServeConfig::builder(ControllerSpec::opencontrail_3x())
            .addr("127.0.0.1:0")
            .build();
        assert!(ok.is_ok());

        let mut broken = ControllerSpec::opencontrail_3x();
        broken.roles.clear();
        let err = ServeConfig::builder(broken).build().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Model);
    }

    /// A `GET /v1/healthz` head of exactly `len` bytes through its blank
    /// line, padded out with one header.
    fn healthz_head(len: usize) -> Vec<u8> {
        let (start, end) = ("GET /v1/healthz HTTP/1.1\r\nx-pad: ", "\r\n\r\n");
        let pad = "a".repeat(len - start.len() - end.len());
        format!("{start}{pad}{end}").into_bytes()
    }

    #[test]
    fn request_head_is_bounded_exactly() {
        let at_bound = healthz_head(MAX_HEAD_BYTES);
        let req = read_request(&mut at_bound.as_slice()).expect("a head at the bound is read");
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("GET", "/v1/healthz")
        );

        // One byte over is refused, although the whole head arrives in the
        // read that reaches the bound.
        let over = healthz_head(MAX_HEAD_BYTES + 1);
        let Err(err) = read_request(&mut over.as_slice()) else {
            panic!("a head one byte over the bound was read");
        };
        assert_eq!(err.http_status(), 400, "{err}");
    }

    #[test]
    fn request_body_is_bounded_exactly() {
        let request = |len: usize| {
            let mut bytes =
                format!("POST /v1/eval HTTP/1.1\r\ncontent-length: {len}\r\n\r\n").into_bytes();
            bytes.resize(bytes.len() + len, b' ');
            bytes
        };
        let at_bound = request(MAX_BODY_BYTES);
        let req = read_request(&mut at_bound.as_slice()).expect("a body at the bound is read");
        assert_eq!(req.body.len(), MAX_BODY_BYTES);

        let over = request(MAX_BODY_BYTES + 1);
        let Err(err) = read_request(&mut over.as_slice()) else {
            panic!("a body one byte over the bound was read");
        };
        assert_eq!(err.http_status(), 400, "{err}");
    }

    #[test]
    fn query_grids_mirror_sweep_flags() {
        let grid = grid_from_query("points=9&figures=fig3,fig5&seed=11").unwrap();
        assert_eq!(grid.points, 9);
        assert_eq!(grid.seed, 11);
        assert_eq!(grid.figures, vec![Figure::Fig3, Figure::Fig5]);

        let err = grid_from_query("points=zero").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
        let err = grid_from_query("bogus=1").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
        // Validation still applies: a nonsense grid is a usage error too.
        let err = grid_from_query("points=0").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Model);
    }

    #[test]
    fn eval_accepts_consensus_axes() {
        let state = test_state();
        let body = r#"{
            "figures": ["fig3"], "points": 2, "replications": 1,
            "sim_horizon_hours": 2000.0, "sim_accelerate": 500.0,
            "consensus": {
                "election_timeout_min_ms": 150.0,
                "election_timeout_max_ms": 300.0,
                "heartbeat_interval_ms": 50.0,
                "cluster_size": 3,
                "fault_mix": {"byzantine": 0, "crash": 1}
            },
            "consensus_election_timeouts_ms": [150.0],
            "consensus_cluster_sizes": [3],
            "consensus_fault_mixes": [{"byzantine": 0, "crash": 1}]
        }"#;
        let (status, text) = eval(&state, body).unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&text).unwrap();
        let rows = doc.field("consensus").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].field("cluster_size").unwrap().as_usize().unwrap(),
            3
        );
        // And a body without consensus axes must not even carry the key.
        let (_, plain) = eval(&state, r#"{"figures": ["fig3"], "points": 2}"#).unwrap();
        assert!(Json::parse(&plain).unwrap().field("consensus").is_err());
    }

    #[test]
    fn eval_rejects_consensus_clusters_above_the_cap() {
        // Uncapped, one such request asks the CTMC for a dense
        // `states × states` matrix: about 180 GB at 100 000 members.
        let state = test_state();
        let body = |base_size: u32, sizes: &str| {
            format!(
                r#"{{"figures": ["fig3"], "points": 1,
                    "consensus": {{
                        "election_timeout_min_ms": 150.0,
                        "election_timeout_max_ms": 300.0,
                        "heartbeat_interval_ms": 50.0,
                        "cluster_size": {base_size},
                        "fault_mix": {{"byzantine": 0, "crash": 1}}
                    }},
                    "consensus_cluster_sizes": {sizes}}}"#
            )
        };
        let max = sdnav_core::ConsensusSpec::MAX_CLUSTER_SIZE;
        for body in [
            body(3, &format!("[{}]", max + 1)),
            body(3, "[3, 100000]"),
            body(100_000, "[3]"),
        ] {
            let err = eval(&state, &body).unwrap_err();
            assert_eq!(err.http_status(), 422, "{err}");
        }
    }

    fn test_state() -> ServiceState {
        ServiceState::new(ControllerSpec::opencontrail_3x())
    }

    #[test]
    fn a_poisoned_model_lock_keeps_serving() {
        let grid = r#"{"figures": ["fig3"], "points": 2}"#;
        let (_, clean) = eval(&test_state(), grid).unwrap();

        let state = test_state();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _model = state.lock_model();
                panic!("a handler bug while holding the model lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(state.model.is_poisoned());
        assert_eq!(state.model_lock_held_ms(), 0, "unwinding frees the lock");

        let (status, body) = eval(&state, grid).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, clean);
        let (status, _) =
            patch(&state, r#"{"name": "sw.process.manual", "value": 0.9997}"#).unwrap();
        assert_eq!(status, 200);
    }

    #[test]
    fn a_panicking_handler_answers_a_500_error_document() {
        let (status, body) = respond(|| panic!("handler bug"));
        assert_eq!(status, 500);
        let doc = Json::parse(&body).unwrap();
        assert!(Envelope::expect(schema::SERVE_ERROR, &doc).is_ok());
        assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "analysis");
        assert_eq!(doc.field("status").unwrap().as_f64().unwrap(), 500.0);
    }

    #[test]
    fn chaos_generate_returns_a_genspec_document() {
        let state = test_state();
        let (status, text) =
            chaos_generate(&state, r#"{"topology": "medium", "top_k": 3}"#).unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&text).unwrap();
        assert!(Envelope::expect(schema::CHAOS_GENSPEC, &doc).is_ok());
        assert!(doc
            .field("topology")
            .unwrap()
            .as_str()
            .unwrap()
            .eq_ignore_ascii_case("medium"));
        let expectations = doc.field("expectations").unwrap().as_arr().unwrap();
        assert!(!expectations.is_empty());
        // Every expectation's injections exist in the campaign by label.
        let campaign = doc.field("campaign").unwrap();
        let injections = campaign.field("injections").unwrap().as_arr().unwrap();
        let labels: Vec<&str> = injections
            .iter()
            .map(|i| i.field("label").unwrap().as_str().unwrap())
            .collect();
        for exp in expectations {
            for label in exp.field("injection_labels").unwrap().as_arr().unwrap() {
                assert!(labels.contains(&label.as_str().unwrap()), "{label:?}");
            }
        }
        // An empty body generates the default small-topology campaign.
        let (status, text) = chaos_generate(&state, "").unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&text).unwrap();
        assert!(doc
            .field("topology")
            .unwrap()
            .as_str()
            .unwrap()
            .eq_ignore_ascii_case("small"));
    }

    #[test]
    fn chaos_generate_rejects_bad_bodies() {
        let state = test_state();
        // Unknown topology / scenario names are model errors: HTTP 422.
        let err = chaos_generate(&state, r#"{"topology": "warehouse"}"#).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Model);
        assert_eq!(err.http_status(), 422);
        let err = chaos_generate(&state, r#"{"scenario": "sometimes"}"#).unwrap_err();
        assert_eq!(err.http_status(), 422);
        // A config the generator itself refuses is a 422 too.
        let err = chaos_generate(&state, r#"{"top_k": 0}"#).unwrap_err();
        assert_eq!(err.http_status(), 422);
        // Malformed JSON and wrong field types are parse errors: HTTP 400.
        let err = chaos_generate(&state, r#"{"topology":"#).unwrap_err();
        assert_eq!(err.http_status(), 400);
        let err = chaos_generate(&state, r#"{"top_k": "five"}"#).unwrap_err();
        assert_eq!(err.http_status(), 400);
    }

    #[test]
    fn error_bodies_are_versioned_documents() {
        let body = error_body(&SdnavError::not_found("no such route"));
        let doc = Json::parse(&body).unwrap();
        assert!(Envelope::expect(schema::SERVE_ERROR, &doc).is_ok());
        assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "not_found");
        assert_eq!(doc.field("status").unwrap().as_f64().unwrap(), 404.0);
    }
}
