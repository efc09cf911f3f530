//! End-to-end tests over real TCP: a server on an ephemeral port, the
//! substrate's HTTP client on the other end.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use webre_serve::server::{ServeConfig, Server};
use webre_serve::Engine;
use webre_substrate::http::{self, Client, ParsedResponse};

const RESUME: &str =
    "<h2>Education</h2><ul><li>Stanford University, M.S., 1996</li>\
     <li>MIT, B.S., 1994</li></ul><h2>Skills</h2><p>C++, Java, XML</p>";

fn start(config: ServeConfig) -> Server {
    Server::start(config, Engine::resume_domain()).expect("bind ephemeral port")
}

fn ephemeral(workers: usize, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_cap,
        ..ServeConfig::default()
    }
}

/// One request on a fresh connection; `connection: close`.
fn roundtrip(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> ParsedResponse {
    http::request(addr, method, target, body).expect("response")
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(30)).expect("connect")
}

/// Spins until `predicate` holds or panics after 5s.
fn wait_until(what: &str, predicate: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !predicate() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn convert_roundtrip_matches_engine_and_caches() {
    let server = start(ephemeral(2, 16));
    let addr = server.local_addr();

    let first = roundtrip(addr, "POST", "/convert", RESUME.as_bytes());
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert_eq!(first.header("content-type"), Some("application/xml"));

    // Byte-identical to the in-process engine (what the batch CLI runs).
    let expected = Engine::resume_domain().convert_to_xml(RESUME).2;
    assert_eq!(first.text(), expected);

    let second = roundtrip(addr, "POST", "/convert", RESUME.as_bytes());
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(second.body, first.body);

    let metrics = roundtrip(addr, "GET", "/metrics", b"").text();
    assert!(metrics.contains("cache_hits_total 1"), "{metrics}");
    assert!(metrics.contains("cache_misses_total 1"), "{metrics}");

    server.request_drain();
    server.join();
}

#[test]
fn keep_alive_carries_multiple_requests() {
    let server = start(ephemeral(1, 16));
    let addr = server.local_addr();

    let mut client = connect(addr);
    for _ in 0..3 {
        let response = client.roundtrip("GET", "/healthz", b"").unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.text(), "ok\n");
    }
    drop(client);

    server.request_drain();
    server.join();
}

#[test]
fn corpus_accretes_and_schema_appears() {
    let server = start(ephemeral(2, 16));
    let addr = server.local_addr();

    assert_eq!(roundtrip(addr, "GET", "/schema", b"").status, 404);
    for expected_docs in 1..=3 {
        let response = roundtrip(addr, "POST", "/corpus/docs", RESUME.as_bytes());
        assert_eq!(response.status, 202, "{}", response.text());
        assert_eq!(
            response.header("x-corpus-version"),
            Some(expected_docs.to_string().as_str())
        );
        assert!(response.text().contains("\"accepted\":true"), "{}", response.text());
    }
    let schema = roundtrip(addr, "GET", "/schema", b"");
    assert_eq!(schema.status, 200);
    assert!(schema.text().contains("resume"), "{}", schema.text());
    let dtd = roundtrip(addr, "GET", "/schema/dtd", b"");
    assert_eq!(dtd.status, 200);
    assert!(dtd.text().contains("<!ELEMENT resume"), "{}", dtd.text());
    assert_eq!(dtd.header("x-corpus-docs"), Some("3"));

    server.request_drain();
    server.join();
}

#[test]
fn routing_and_limit_errors_over_the_wire() {
    let server = start(ephemeral(1, 16));
    let addr = server.local_addr();

    assert_eq!(roundtrip(addr, "GET", "/nope", b"").status, 404);
    let wrong = roundtrip(addr, "GET", "/convert", b"");
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("allow"), Some("POST"));

    // Over the default 1 MiB body cap → 413 before any conversion work.
    let oversized = vec![b'x'; ServeConfig::default().max_body + 1];
    let too_large = roundtrip(addr, "POST", "/convert", &oversized);
    assert_eq!(too_large.status, 413, "{}", too_large.text());

    let metrics = roundtrip(addr, "GET", "/metrics", b"").text();
    assert!(metrics.contains("requests_bad_total 1"), "{metrics}");

    server.request_drain();
    server.join();
}

/// Every line key `/metrics` prints once each route has served a request
/// and a 404 came back. Perfbench, `webre load` and the verify script
/// read these keys; a key that disappears or changes spelling breaks
/// them silently.
const METRICS_KEYS: &[&str] = &[
    "cache_entries",
    "cache_hits_total",
    "cache_misses_total",
    "connections_accepted_total",
    "connections_open",
    "connections_reaped_total{reason=\"idle_timeout\"}",
    "connections_reaped_total{reason=\"read_timeout\"}",
    "connections_reaped_total{reason=\"write_timeout\"}",
    "corpus_docs",
    "corpus_shards",
    "corpus_tokens_identified",
    "corpus_tokens_total",
    "latency_us_sum{endpoint=\"convert\"}",
    "latency_us_sum{endpoint=\"corpus_docs\"}",
    "latency_us_sum{endpoint=\"corpus_table\"}",
    "latency_us_sum{endpoint=\"corpus_xml\"}",
    "latency_us_sum{endpoint=\"healthz\"}",
    "latency_us_sum{endpoint=\"map\"}",
    "latency_us_sum{endpoint=\"other\"}",
    "latency_us_sum{endpoint=\"schema\"}",
    "latency_us_sum{endpoint=\"schema_dtd\"}",
    "pipeline_counter_total{counter=\"concepts_matched\"}",
    "pipeline_counter_total{counter=\"groups_sunk\"}",
    "pipeline_counter_total{counter=\"map_exact\"}",
    "pipeline_counter_total{counter=\"nodes_consolidated\"}",
    "pipeline_counter_total{counter=\"paths_accepted\"}",
    "pipeline_counter_total{counter=\"paths_explored\"}",
    "pipeline_counter_total{counter=\"tokens_split\"}",
    "pipeline_span_us_sum{stage=\"concept-instance-rule\"}",
    "pipeline_span_us_sum{stage=\"consolidation-rule\"}",
    "pipeline_span_us_sum{stage=\"convert\"}",
    "pipeline_span_us_sum{stage=\"derive-dtd\"}",
    "pipeline_span_us_sum{stage=\"grouping-rule\"}",
    "pipeline_span_us_sum{stage=\"map-exact\"}",
    "pipeline_span_us_sum{stage=\"map-filter\"}",
    "pipeline_span_us_sum{stage=\"map-to-dtd\"}",
    "pipeline_span_us_sum{stage=\"mine-frequent-paths\"}",
    "pipeline_span_us_sum{stage=\"request\"}",
    "pipeline_span_us_sum{stage=\"tidy\"}",
    "pipeline_span_us_sum{stage=\"tokenization-rule\"}",
    "pipeline_spans_total{stage=\"concept-instance-rule\"}",
    "pipeline_spans_total{stage=\"consolidation-rule\"}",
    "pipeline_spans_total{stage=\"convert\"}",
    "pipeline_spans_total{stage=\"derive-dtd\"}",
    "pipeline_spans_total{stage=\"grouping-rule\"}",
    "pipeline_spans_total{stage=\"map-exact\"}",
    "pipeline_spans_total{stage=\"map-filter\"}",
    "pipeline_spans_total{stage=\"map-to-dtd\"}",
    "pipeline_spans_total{stage=\"mine-frequent-paths\"}",
    "pipeline_spans_total{stage=\"request\"}",
    "pipeline_spans_total{stage=\"tidy\"}",
    "pipeline_spans_total{stage=\"tokenization-rule\"}",
    "queue_depth",
    "requests_bad_total",
    "requests_in_flight",
    "requests_rejected_total{reason=\"deadline\"}",
    "requests_rejected_total{reason=\"queue_full\"}",
    "requests_total{endpoint=\"convert\"}",
    "requests_total{endpoint=\"corpus_docs\"}",
    "requests_total{endpoint=\"corpus_table\"}",
    "requests_total{endpoint=\"corpus_xml\"}",
    "requests_total{endpoint=\"healthz\"}",
    "requests_total{endpoint=\"map\"}",
    "requests_total{endpoint=\"metrics\"}",
    "requests_total{endpoint=\"other\"}",
    "requests_total{endpoint=\"schema\"}",
    "requests_total{endpoint=\"schema_dtd\"}",
    "requests_total{endpoint=\"shutdown\"}",
    "uptime_seconds",
    "worker_panics_total",
    "worker_utilization_ratio",
    "workers",
];

#[test]
fn metrics_line_keys_are_pinned() {
    let server = start(ephemeral(2, 16));
    let addr = server.local_addr();

    let xml = Engine::resume_domain().convert_to_xml(RESUME).2;
    let requests: &[(&str, &str, &[u8], u16)] = &[
        ("POST", "/corpus/docs", RESUME.as_bytes(), 202),
        ("POST", "/corpus/xml", xml.as_bytes(), 202),
        ("POST", "/convert", RESUME.as_bytes(), 200),
        ("POST", "/map", RESUME.as_bytes(), 200),
        ("GET", "/corpus/table", b"", 200),
        ("GET", "/schema", b"", 200),
        ("GET", "/schema/dtd", b"", 200),
        ("GET", "/healthz", b"", 200),
        ("GET", "/nope", b"", 404),
    ];
    for &(method, target, body, status) in requests {
        let response = roundtrip(addr, method, target, body);
        assert_eq!(response.status, status, "{method} {target}: {}", response.text());
    }
    // The scrape is the `/metrics` request; `/shutdown` follows it.
    let metrics = roundtrip(addr, "GET", "/metrics", b"").text();
    assert_eq!(roundtrip(addr, "POST", "/shutdown", b"").status, 200);
    server.join();

    // A key is the text before the last space. Which buckets are
    // non-empty depends on timing, so bucket lines are left out.
    let mut keys: Vec<&str> = metrics
        .lines()
        .filter(|line| !line.contains("le=\""))
        .map(|line| line.rsplit_once(' ').map_or(line, |(key, _)| key))
        .collect();
    keys.sort_unstable();
    assert_eq!(keys, METRICS_KEYS, "{metrics}");
}

/// A cold conversion big enough to hold the sole worker busy for a
/// long, observable window (hundreds of ms even in release builds).
fn parking_body() -> Vec<u8> {
    RESUME.repeat(4000).into_bytes()
}

#[test]
fn queue_overflow_rejects_with_429_and_recovers() {
    // One worker, one queue slot: occupy the worker with a slow cold
    // conversion, fill the slot with a second one, and the third must
    // bounce deterministically. (Idle connections no longer park
    // workers — the event loop owns them — so occupancy takes real
    // work now.)
    let server = start(ephemeral(1, 1));
    let addr = server.local_addr();
    let app = server.app();

    // A: a large cold conversion the sole worker picks up.
    let mut parked = connect(addr);
    parked.send("POST", "/convert", &parking_body()).unwrap();
    wait_until("worker to pick up the slow conversion", || {
        app.metrics.in_flight.load(Ordering::Relaxed) == 1
            && app.metrics.queue_depth.load(Ordering::Relaxed) == 0
    });

    // B: a second cold conversion, sits in the queue's only slot.
    let mut queued = connect(addr);
    let queued_body = format!("{RESUME}<!-- queued -->");
    queued.send("POST", "/convert", queued_body.as_bytes()).unwrap();
    wait_until("second conversion to occupy the queue", || {
        app.metrics.queue_depth.load(Ordering::Relaxed) == 1
    });

    // C: queue full → 429 inline from the event loop, without
    // unbounded buffering or a hang. Must be a cold conversion —
    // `/healthz` is always served on the fast path and never queues.
    let rejected_body = format!("{RESUME}<!-- rejected -->");
    let rejected = roundtrip(addr, "POST", "/convert", rejected_body.as_bytes());
    assert_eq!(rejected.status, 429, "{}", rejected.text());
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert_eq!(app.metrics.rejected.load(Ordering::Relaxed), 1);

    // The worker frees itself; both accepted conversions complete.
    assert_eq!(parked.recv().unwrap().status, 200);
    assert_eq!(queued.recv().unwrap().status, 200);

    server.request_drain();
    server.join();
}

#[test]
fn shutdown_endpoint_drains_queued_work_before_exit() {
    let server = start(ephemeral(1, 4));
    let addr = server.local_addr();
    let app = server.app();

    // Park the sole worker on a slow conversion, then queue a second
    // request behind it.
    let mut parked = connect(addr);
    parked.send("POST", "/convert", &parking_body()).unwrap();
    wait_until("worker pickup", || {
        app.metrics.in_flight.load(Ordering::Relaxed) == 1
            && app.metrics.queue_depth.load(Ordering::Relaxed) == 0
    });
    let mut queued = connect(addr);
    queued.send("POST", "/convert", RESUME.as_bytes()).unwrap();
    wait_until("request queued", || {
        app.metrics.queue_depth.load(Ordering::Relaxed) == 1
    });

    // Drain while work is still queued.
    server.request_drain();

    // The queued request is served — and the response closes the
    // connection despite the client asking for keep-alive.
    let response = queued.recv().unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
    assert_eq!(parked.recv().unwrap().status, 200);

    server.join(); // event loop + workers all exited
    assert_eq!(app.obs.stats().requests_total(), 2);
}

#[test]
fn shutdown_over_http_unblocks_join() {
    let server = start(ephemeral(2, 8));
    let addr = server.local_addr();

    let response = roundtrip(addr, "POST", "/shutdown", b"");
    assert_eq!(response.status, 200);
    assert_eq!(response.text(), "draining\n");
    server.join();

    // The listener is gone: new connections are refused (or reset).
    wait_until("listener to close", || TcpStream::connect(addr).is_err());
}
