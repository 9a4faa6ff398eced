//! In-process end-to-end tests for the evaluator service: real TCP
//! sockets, raw HTTP/1.1, byte-parity assertions against the one-shot
//! evaluation path, and drain-on-shutdown.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdnav_core::{ControllerSpec, ModelState};
use sdnav_grid::{evaluate, evaluate_incremental, EvalGraph, GridSpec};
use sdnav_json::Json;

/// A running server plus the handle and flag needed to stop it.
struct Harness {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl Harness {
    fn start() -> Harness {
        Harness::start_with(ControllerSpec::opencontrail_3x())
    }

    fn start_with(spec: ControllerSpec) -> Harness {
        let config = sdnav_serve::ServeConfig::builder(spec)
            .addr("127.0.0.1:0")
            .build()
            .expect("test spec validates");
        let server = sdnav_serve::Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            server.run(&flag).expect("serve loop");
        });
        Harness {
            addr,
            shutdown,
            handle,
        }
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle.join().expect("server thread exits cleanly");
    }
}

/// Sends one raw HTTP/1.1 request and returns (status, body).
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nhost: sdnav\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> (u16, String) {
    let text = std::str::from_utf8(raw).expect("response is UTF-8");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, body.to_owned())
}

#[test]
fn healthz_answers_ok() {
    let server = Harness::start();
    let (status, body) = request(server.addr, "GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.field("schema").unwrap().as_str().unwrap(),
        "sdnav-serve-health/v1"
    );
    assert_eq!(doc.field("status").unwrap().as_str().unwrap(), "ok");
    server.stop();
}

#[test]
fn eval_matches_the_one_shot_path_byte_for_byte() {
    let server = Harness::start();
    let grid_json = r#"{"points": 5, "replications": 3, "threads": 2, "seed": 7}"#;
    let (status, body) = request(server.addr, "POST", "/v1/eval", grid_json);
    assert_eq!(status, 200);

    let grid: GridSpec = sdnav_json::from_str(grid_json).unwrap();
    let reference = evaluate(&ControllerSpec::opencontrail_3x(), &grid).unwrap();
    let expected = format!("{}\n", sdnav_json::to_string_pretty(&reference.results));
    assert_eq!(body, expected);

    // A second identical eval is served warm from the graph — and must
    // still be byte-identical.
    let (status, warm) = request(server.addr, "POST", "/v1/eval", grid_json);
    assert_eq!(status, 200);
    assert_eq!(warm, expected);
    server.stop();
}

#[test]
fn empty_body_evaluates_the_default_grid() {
    let server = Harness::start();
    let (status, body) = request(server.addr, "POST", "/v1/eval", "");
    assert_eq!(status, 200);
    let grid = GridSpec::builder().build().unwrap();
    let reference = evaluate(&ControllerSpec::opencontrail_3x(), &grid).unwrap();
    assert_eq!(
        body,
        format!("{}\n", sdnav_json::to_string_pretty(&reference.results))
    );
    server.stop();
}

#[test]
fn patch_then_eval_recomputes_strictly_fewer_sub_models() {
    let server = Harness::start();
    let grid_json = r#"{"points": 5, "replications": 2, "seed": 3}"#;

    // Cold eval fills the graph.
    let (status, _) = request(server.addr, "POST", "/v1/eval", grid_json);
    assert_eq!(status, 200);
    // Fig4 and fig5 share sub-models even within one sweep, so a cold
    // eval already records some hits; what matters below is the delta.
    let cold = scrape_cache(server.addr);
    assert!(cold.misses > 0, "cold eval must populate the graph");

    // Patch one software rate: the SW domain dies, HW survives.
    let (status, body) = request(
        server.addr,
        "PATCH",
        "/v1/spec",
        r#"{"name": "sw.process.manual", "value": 0.9997}"#,
    );
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.field("schema").unwrap().as_str().unwrap(),
        "sdnav-serve-patch/v1"
    );
    assert!(!doc.field("hw_changed").unwrap().as_bool().unwrap());
    assert!(doc.field("sw_changed").unwrap().as_bool().unwrap());
    let invalidated = doc.field("invalidated").unwrap().as_f64().unwrap() as u64;
    assert!(invalidated > 0, "the SW entries must be evicted");

    // Warm eval: strictly fewer sub-model computations than the cold one,
    // and the surviving HW entries all hit.
    let (status, warm_body) = request(server.addr, "POST", "/v1/eval", grid_json);
    assert_eq!(status, 200);
    let warm = scrape_cache(server.addr);
    let warm_misses = warm.misses - cold.misses;
    assert!(
        warm_misses < cold.misses,
        "warm eval recomputed {warm_misses} of {} sub-models",
        cold.misses
    );
    assert!(
        warm.hits > cold.hits,
        "HW entries must be served from the graph"
    );

    // And the warm response is byte-identical to evaluating the patched
    // state from scratch on a fresh graph.
    let grid: GridSpec = sdnav_json::from_str(grid_json).unwrap();
    let mut state = ModelState::paper(ControllerSpec::opencontrail_3x());
    state.patch("sw.process.manual", 0.9997).unwrap();
    let reference = evaluate_incremental(&state, &grid, &EvalGraph::new()).unwrap();
    assert_eq!(
        warm_body,
        format!("{}\n", sdnav_json::to_string_pretty(&reference.results))
    );
    server.stop();
}

struct CacheCounters {
    hits: u64,
    misses: u64,
}

fn scrape_cache(addr: SocketAddr) -> CacheCounters {
    let (status, body) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.field("schema").unwrap().as_str().unwrap(),
        "sdnav-serve-metrics/v1"
    );
    let cache = doc.field("cache").unwrap();
    CacheCounters {
        hits: cache.field("hits").unwrap().as_f64().unwrap() as u64,
        misses: cache.field("misses").unwrap().as_f64().unwrap() as u64,
    }
}

#[test]
fn plan_reports_the_static_cost_prediction() {
    let server = Harness::start();
    let (status, body) = request(
        server.addr,
        "GET",
        "/v1/plan?points=41&replications=50&figures=fig3,fig4",
        "",
    );
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.field("schema").unwrap().as_str().unwrap(),
        "sdnav-sweep-plan/v1"
    );

    let grid = GridSpec::builder()
        .points(41)
        .replications(50)
        .figures(&[
            sdnav_grid::plan::Figure::Fig3,
            sdnav_grid::plan::Figure::Fig4,
        ])
        .build()
        .unwrap();
    let reference = sdnav_audit::SweepPlan::predict(&ControllerSpec::opencontrail_3x(), &grid);
    assert_eq!(
        body,
        format!("{}\n", sdnav_json::to_string_pretty(&reference))
    );
    server.stop();
}

#[test]
fn errors_map_kinds_onto_http_statuses() {
    let server = Harness::start();

    // Unknown route: 404 not_found.
    let (status, body) = request(server.addr, "GET", "/v1/nope", "");
    assert_eq!(status, 404);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.field("schema").unwrap().as_str().unwrap(),
        "sdnav-serve-error/v1"
    );
    assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "not_found");

    // Known route, wrong method: 405 method.
    let (status, body) = request(server.addr, "DELETE", "/v1/eval", "");
    assert_eq!(status, 405);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "method");

    // Malformed JSON body: 400 parse.
    let (status, body) = request(server.addr, "POST", "/v1/eval", "{not json");
    assert_eq!(status, 400);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "parse");

    // Well-formed but invalid grid: 422 model.
    let (status, body) = request(server.addr, "POST", "/v1/eval", r#"{"points": 0}"#);
    assert_eq!(status, 422);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "model");

    // A horizon that parses to +inf is a 422 too, not an evaluation that
    // never returns while holding the model lock.
    let (status, body) = request(
        server.addr,
        "POST",
        "/v1/eval",
        r#"{"figures": ["fig3"], "points": 1, "replications": 1, "sim_horizon_hours": 1e999}"#,
    );
    assert_eq!(status, 422);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "model");
    assert!(doc
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("finite"));

    // Unknown patch target: 404 not_found, and the message lists the
    // patchable names.
    let (status, body) = request(
        server.addr,
        "PATCH",
        "/v1/spec",
        r#"{"name": "hw.bogus", "value": 0.5}"#,
    );
    assert_eq!(status, 404);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "not_found");
    assert!(doc
        .field("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("sw.process.manual"));

    // Out-of-range patch value: 422 model, state unchanged.
    let (status, body) = request(
        server.addr,
        "PATCH",
        "/v1/spec",
        r#"{"name": "hw.a_c", "value": 1.5}"#,
    );
    assert_eq!(status, 422);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "model");

    server.stop();
}

#[test]
fn eval_past_the_enumeration_limit_is_a_model_error() {
    // At 11 nodes the Small layout shares 2N + 1 = 23 hardware elements,
    // past exact enumeration: a typed 422 before any cell runs, not a
    // panicked cell's 500.
    let server = Harness::start_with(ControllerSpec::opencontrail_3x().scaled_cluster(11));
    let (status, body) = request(server.addr, "POST", "/v1/eval", r#"{"points": 2}"#);
    assert_eq!(status, 422, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.field("kind").unwrap().as_str().unwrap(), "model");
    let message = doc.field("message").unwrap().as_str().unwrap();
    assert!(
        message.contains("topology has 23 shared elements; exact enumeration supports at most 20"),
        "{message}"
    );
    server.stop();
}

/// Reads the `requests` counter; every call itself counts as one request.
fn scrape_requests(addr: SocketAddr) -> u64 {
    let (status, body) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    doc.field("requests").unwrap().as_f64().unwrap() as u64
}

#[test]
fn shutdown_drains_the_in_flight_request() {
    let server = Harness::start();

    // Open the connection and send a deliberately heavyweight request.
    let mut prev = scrape_requests(server.addr);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let body = r#"{"points": 9, "replications": 6, "threads": 2, "seed": 5}"#;
    write!(
        stream,
        "POST /v1/eval HTTP/1.1\r\nhost: sdnav\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");

    // Wait until the server has actually accepted the eval connection:
    // each metrics poll bumps `requests` by exactly one, so a jump of two
    // means the eval handler started. Only then request the drain.
    loop {
        let now = scrape_requests(server.addr);
        if now >= prev + 2 {
            break;
        }
        prev = now;
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown.store(true, Ordering::SeqCst);

    // The in-flight response must still arrive complete and parseable.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read drained response");
    let (status, drained) = parse_response(&raw);
    assert_eq!(status, 200);
    Json::parse(&drained).expect("drained response is complete JSON");

    server
        .handle
        .join()
        .expect("server thread exits after drain");
}

/// Reads `model_lock_held_ms` from `/v1/metrics`.
fn scrape_lock_held_ms(addr: SocketAddr) -> u64 {
    let (status, body) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    doc.field("model_lock_held_ms").unwrap().as_f64().unwrap() as u64
}

#[test]
fn metrics_show_how_long_an_eval_has_held_the_model_lock() {
    let server = Harness::start();
    assert_eq!(scrape_lock_held_ms(server.addr), 0);

    // The heavyweight eval `shutdown_drains_the_in_flight_request` drains.
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let body = r#"{"points": 9, "replications": 6, "threads": 2, "seed": 5}"#;
    write!(
        stream,
        "POST /v1/eval HTTP/1.1\r\nhost: sdnav\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");

    let deadline = Instant::now() + Duration::from_secs(60);
    while scrape_lock_held_ms(server.addr) == 0 {
        assert!(
            Instant::now() < deadline,
            "the in-flight eval never showed as holding the model lock"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read eval response");
    assert_eq!(parse_response(&raw).0, 200);
    assert_eq!(
        scrape_lock_held_ms(server.addr),
        0,
        "the lock is free again"
    );
    server.stop();
}

/// With no connection in flight, setting the flag must end `run` promptly:
/// the watcher has to wake the blocked `accept` on every kind of bind
/// address, the unspecified ones included.
#[test]
fn idle_shutdown_wakes_the_blocked_accept() {
    let cases: [(&str, IpAddr); 3] = [
        ("127.0.0.1:0", Ipv4Addr::LOCALHOST.into()),
        ("0.0.0.0:0", Ipv4Addr::LOCALHOST.into()),
        ("[::]:0", Ipv6Addr::LOCALHOST.into()),
    ];
    for (addr, loopback) in cases {
        let config = sdnav_serve::ServeConfig::builder(ControllerSpec::opencontrail_3x())
            .addr(addr)
            .build()
            .expect("paper spec validates");
        let server = match sdnav_serve::Server::bind(config) {
            Ok(server) => server,
            Err(e) if loopback.is_ipv6() => {
                eprintln!("skipping {addr}: this host cannot bind IPv6 ({e})");
                continue;
            }
            Err(e) => panic!("cannot bind {addr}: {e}"),
        };
        let port = server.local_addr().expect("bound address").port();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let (done, returned) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = done.send(server.run(&flag));
        });

        // One finished round trip proves the loop is up and back in
        // `accept` with nothing in flight.
        let (status, _) = request(SocketAddr::new(loopback, port), "GET", "/v1/healthz", "");
        assert_eq!(status, 200);

        shutdown.store(true, Ordering::SeqCst);
        returned
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("run on {addr} did not return within 2 s of the flag"))
            .expect("serve loop");
        handle.join().expect("server thread exits cleanly");
    }
}

/// Sequential requests must not wait on a poll: the median healthz round
/// trip stays under 5 ms, a fifth of the shutdown watcher's 25 ms period.
#[test]
fn back_to_back_requests_are_answered_without_an_accept_poll() {
    let server = Harness::start();
    let mut round_trips: Vec<Duration> = (0..40)
        .map(|_| {
            let sent = Instant::now();
            assert_eq!(request(server.addr, "GET", "/v1/healthz", "").0, 200);
            sent.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median healthz round trip {median:?} over 40 requests"
    );
    server.stop();
}
