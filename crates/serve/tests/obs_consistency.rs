//! Observability consistency over real TCP: after a concurrent
//! keep-alive workload drains, the per-stage span accounting in the
//! extended `/metrics` must agree exactly with the HTTP-level request
//! counters.
//!
//! The invariant is exact (not `>=`) because both tallies settle before
//! a response is written: the `request` span closes inside the worker's
//! unwind guard and `requests_total` is bumped right after — so once
//! every workload response has been read, both sides have counted
//! precisely those requests, and the in-flight `/metrics` request that
//! reads them appears in neither (spans tally at span *end*).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use webre_obs::clock::MonotonicClock;
use webre_obs::trace::TraceRecorder;
use webre_obs::{stage, Ctx};
use webre_serve::obs::ObsLayer;
use webre_serve::server::{ServeConfig, Server};
use webre_serve::Engine;
use webre_substrate::http::{request, Client, ParsedResponse};

const RESUME: &str =
    "<h2>Education</h2><ul><li>Stanford University, M.S., 1996</li></ul>\
     <h2>Skills</h2><p>C++, Java, XML</p>";

fn ephemeral(workers: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_cap: 64,
        ..ServeConfig::default()
    }
}

fn roundtrip(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> ParsedResponse {
    request(addr, method, target, body).expect("response")
}

/// Sums every `requests_total{endpoint="..."} N` line.
fn requests_total(metrics: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with("requests_total{endpoint="))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

/// Reads the value of a single exact-prefix metric line.
fn metric(metrics: &str, prefix: &str) -> Option<u64> {
    metrics
        .lines()
        .find(|l| l.starts_with(prefix))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
}

#[test]
fn request_span_tally_equals_request_counter_after_keepalive_workload() {
    let server = Server::start(ephemeral(3), Engine::resume_domain()).expect("bind");
    let addr = server.local_addr();

    // Concurrent keep-alive clients, each pipelining a mix of endpoints
    // over one connection.
    let clients = 4;
    let per_client = 6;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
                for i in 0..per_client {
                    let (method, target, body): (&str, &str, &[u8]) = match (c + i) % 4 {
                        0 => ("POST", "/convert", RESUME.as_bytes()),
                        1 => ("POST", "/corpus/docs", RESUME.as_bytes()),
                        2 => ("GET", "/schema", b""),
                        _ => ("GET", "/healthz", b""),
                    };
                    let response = client.roundtrip(method, target, body).expect("response");
                    assert!(
                        response.status < 500,
                        "{method} {target}: {}",
                        response.status
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    // Every workload response has been read, so both tallies are settled.
    let metrics = roundtrip(addr, "GET", "/metrics", b"").text();
    let served = requests_total(&metrics);
    assert_eq!(served, (clients * per_client) as u64, "{metrics}");
    let request_spans = metric(&metrics, "pipeline_spans_total{stage=\"request\"}")
        .expect("request span line present");
    assert_eq!(
        request_spans, served,
        "span tally diverges from the request counter:\n{metrics}"
    );
    // Pipeline stages nested under those requests surfaced too: the
    // conversions ran under `convert` spans with token counters.
    assert!(
        metric(&metrics, "pipeline_spans_total{stage=\"convert\"}").unwrap_or(0) > 0,
        "{metrics}"
    );
    assert!(
        metric(&metrics, "pipeline_counter_total{counter=\"tokens_split\"}").unwrap_or(0) > 0,
        "{metrics}"
    );

    server.request_drain();
    server.join();
}

#[test]
fn traced_server_tees_request_spans_into_the_trace() {
    let trace = Arc::new(TraceRecorder::new(Box::new(MonotonicClock::new())));
    let server = Server::start_with_obs(
        ephemeral(2),
        Engine::resume_domain(),
        ObsLayer::new(Some(Arc::clone(&trace))),
    )
    .expect("bind");
    let addr = server.local_addr();

    for _ in 0..3 {
        let response = roundtrip(addr, "POST", "/convert", RESUME.as_bytes());
        assert_eq!(response.status, 200);
    }
    let metrics = roundtrip(addr, "GET", "/metrics", b"").text();
    server.request_drain();
    server.join();

    let spans = trace.spans();
    let requests = spans.iter().filter(|s| s.name == stage::REQUEST).count();
    // 3 converts + the /metrics read (drain went through request_drain,
    // not HTTP). Every request span must be closed after join, and the
    // stats side of the tee saw the same spans — minus the /metrics
    // request itself, which was still open while rendering.
    assert_eq!(requests, 4, "request spans: {spans:?}");
    assert!(spans.iter().all(|s| s.end_ns.is_some()));
    let stats_requests = metric(&metrics, "pipeline_spans_total{stage=\"request\"}").unwrap();
    assert_eq!(stats_requests, 3, "{metrics}");
    // The chrome export of a server trace parses and tracks each request
    // on its own tid.
    let json = trace.to_chrome_json();
    let doc = webre_substrate::json::Json::parse(&json).expect("chrome export parses");
    let events = doc
        .get("traceEvents")
        .and_then(webre_substrate::json::Json::as_arr)
        .unwrap();
    assert_eq!(events.len(), spans.len());
}

#[test]
fn in_flight_metrics_request_is_excluded_from_both_tallies() {
    // Driven through the handler directly (no TCP): the /metrics request
    // renders while its own span is still open, so a fresh app reports
    // zero request spans — the exclusion that makes the equality above
    // exact rather than off-by-one.
    use webre_serve::handlers::{handle_obs, App};
    let app = App::new(Engine::resume_domain(), 16, 1);
    let request = webre_substrate::http::Request {
        method: "GET".into(),
        target: "/metrics".into(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    let ctx = Ctx::new(app.obs.recorder());
    let scope = ctx.span(stage::REQUEST);
    let response = handle_obs(&app, &request, scope.ctx());
    drop(scope);
    let text = String::from_utf8(response.body).unwrap();
    assert!(
        !text.contains("pipeline_spans_total{stage=\"request\"}"),
        "open request span leaked into its own /metrics render:\n{text}"
    );
    // After the span closes, the next render counts it.
    let rendered = app.obs.stats().render();
    assert!(
        rendered.contains("pipeline_spans_total{stage=\"request\"} 1"),
        "{rendered}"
    );
}
