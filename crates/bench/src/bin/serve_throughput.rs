//! Serving throughput: requests/second through a live `webre-serve`
//! instance, measured over real TCP with concurrent keep-alive clients.
//!
//! Three scenarios bracket the serving envelope:
//!
//! * `healthz`      — pure HTTP overhead (codec + queue + pool, no work)
//! * `convert_hot`  — a small document set replayed, so the sharded LRU
//!                    absorbs almost every request (production steady state
//!                    for crawl/re-crawl workloads)
//! * `convert_cold` — every request a distinct document: full conversion
//!                    per request, the cache can only miss
//!
//! Results go to stdout as a table and to `BENCH_serve.json` (override
//! with `WEBRE_BENCH_SERVE_OUT`) as JSON lines, one record per scenario.
//!
//! Run with: `cargo run --release -p webre-bench --bin serve_throughput`
//! Args: `[--workers N] [--clients N] [--requests N]` (requests are per
//! client, per scenario).

use std::io::Write as _;
use std::time::{Duration, Instant};
use webre::serve::server::{ServeConfig, Server};
use webre::Pipeline;
use webre_corpus::CorpusGenerator;
use webre_substrate::http::Client;

struct Scenario {
    name: &'static str,
    /// Request target.
    path: &'static str,
    /// Bodies cycled per request; empty string means no body.
    bodies: Vec<String>,
    /// Per-client request count.
    requests: usize,
}

struct Outcome {
    name: &'static str,
    requests: usize,
    seconds: f64,
    rps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    p999_us: u64,
    /// Cache hits/misses attributable to *this* scenario (deltas of the
    /// server's cumulative counters around the run, not the totals —
    /// the totals would repeat identically on every record).
    cache_hits: u64,
    cache_misses: u64,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn run_scenario(addr: std::net::SocketAddr, clients: usize, scenario: &Scenario) -> Outcome {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = scenario.bodies.clone();
            let (path, requests) = (scenario.path, scenario.requests);
            std::thread::spawn(move || -> Vec<u64> {
                let mut client =
                    Client::connect(addr, Duration::from_secs(120)).expect("connect");
                let mut latencies_us = Vec::with_capacity(requests);
                for i in 0..requests {
                    let body = if bodies.is_empty() {
                        &[][..]
                    } else {
                        bodies[(c + i * clients) % bodies.len()].as_bytes()
                    };
                    let method = if body.is_empty() { "GET" } else { "POST" };
                    let sent = Instant::now();
                    let response = client.roundtrip(method, path, body).expect("response");
                    assert_eq!(response.status, 200, "{}", response.text());
                    latencies_us
                        .push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let seconds = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = latencies.len();
    Outcome {
        name: scenario.name,
        requests,
        seconds,
        rps: requests as f64 / seconds,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        cache_hits: 0,
        cache_misses: 0,
    }
}

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let workers = arg("--workers", 4);
    let clients = arg("--clients", 4);
    let requests = arg("--requests", 2000);

    // Distinct realistic documents from the synthetic resume corpus.
    let generator = CorpusGenerator::new(17);
    let hot: Vec<String> = generator.generate(8).into_iter().map(|d| d.html).collect();
    // Cold: enough unique documents that no request repeats — a different
    // generator seed so none collide with the hot set already cached.
    let cold_total = clients * requests.min(400);
    let cold: Vec<String> = CorpusGenerator::new(18)
        .generate(cold_total)
        .into_iter()
        .map(|d| d.html)
        .collect();

    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            queue_cap: 256,
            cache_cap: 4096,
            ..ServeConfig::default()
        },
        Pipeline::resume_domain().serve_engine(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let scenarios = [
        Scenario {
            name: "healthz",
            path: "/healthz",
            bodies: Vec::new(),
            requests,
        },
        Scenario {
            name: "convert_hot",
            path: "/convert",
            bodies: hot,
            requests,
        },
        Scenario {
            name: "convert_cold",
            path: "/convert",
            bodies: cold,
            requests: requests.min(400),
        },
    ];

    println!("serve_throughput: {workers} workers, {clients} clients");
    println!(
        "  {:<14} {:>9} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "scenario", "requests", "seconds", "req/s", "p50 µs", "p95 µs", "p99 µs", "p99.9 µs"
    );
    let mut records = Vec::new();
    for scenario in &scenarios {
        // Bracket the run with the server's cumulative cache counters so
        // each record carries the hits/misses this scenario caused.
        let before = server.app().cache.stats();
        let mut outcome = run_scenario(addr, clients, scenario);
        let after = server.app().cache.stats();
        outcome.cache_hits = after.hits - before.hits;
        outcome.cache_misses = after.misses - before.misses;
        println!(
            "  {:<14} {:>9} {:>9.3} {:>10.0} {:>9} {:>9} {:>9} {:>9}",
            outcome.name,
            outcome.requests,
            outcome.seconds,
            outcome.rps,
            outcome.p50_us,
            outcome.p95_us,
            outcome.p99_us,
            outcome.p999_us
        );
        println!(
            "  {:<14} cache: {} hits / {} misses this scenario",
            "", outcome.cache_hits, outcome.cache_misses
        );
        records.push(outcome);
    }

    server.request_drain();
    server.join();

    let out_path = std::env::var("WEBRE_BENCH_SERVE_OUT")
        .unwrap_or_else(|_| "BENCH_serve.json".to_owned());
    let mut out = std::fs::File::create(&out_path).expect("create bench output");
    for r in &records {
        writeln!(
            out,
            "{{\"name\":\"serve_{}\",\"workers\":{workers},\"clients\":{clients},\
             \"requests\":{},\"seconds\":{:.6},\"rps\":{:.1},\"p50_us\":{},\"p95_us\":{},\
             \"p99_us\":{},\"p999_us\":{},\"cache_hits\":{},\"cache_misses\":{}}}",
            r.name,
            r.requests,
            r.seconds,
            r.rps,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.p999_us,
            r.cache_hits,
            r.cache_misses
        )
        .expect("write record");
    }
    println!("==> {} record(s) written to {out_path}", records.len());
}
