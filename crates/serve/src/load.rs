//! `webre load` — a fault-injecting load harness for the readiness core.
//!
//! Drives a running server (usually a child `webre serve` process) with
//! a mixed population of clients chosen to stress exactly the paths the
//! readiness rewrite exists for:
//!
//! | class | behaviour | what it proves |
//! |---|---|---|
//! | idle | keep-alive, one probe, then silence | idle connections cost no threads and stay open |
//! | loris | partial head, one byte per sweep | read-budget reaping from the *first* byte |
//! | hot | pipelined cached `/convert` | inline fast path under concurrency |
//! | cold | sequential unique `/convert` | worker dispatch latency (p50/p99/p999) |
//! | healthz | sequential `GET /healthz` | loop liveness while everything else burns |
//! | burst | deep pipelined cold batches | admission control sheds with 429 |
//! | oversized | `content-length` over the limit | early 413 before the body uploads |
//! | abrupt | half a request, then RST/close | reap with no worker ever involved |
//!
//! The report cross-checks client-side observations against the
//! server's own `/metrics` deltas (shed accounting, reap counts,
//! stalled workers), so a lying server cannot pass.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use webre_substrate::http::{request, write_request, Client};

/// Read and write bound for the closed-loop and idle clients.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Everything the harness needs to know about the server under test.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// `host:port` of the running server.
    pub addr: String,
    /// Total concurrent connections to hold open.
    pub connections: usize,
    /// How many of them are slow-loris attackers.
    pub loris: usize,
    /// Closed-loop driving time (loris observation may run longer).
    pub duration: Duration,
    /// A body whose conversion is pre-warmed into the cache (hot class).
    pub hot_body: Vec<u8>,
    /// Template for cold bodies; a unique comment is appended per
    /// request so every one misses the cache.
    pub cold_template: Vec<u8>,
    /// The server's `--max-body` (the oversized class sends one more).
    pub max_body: usize,
    /// The server's read budget — loris reaps are asserted against 2×
    /// this.
    pub read_timeout: Duration,
    /// Optional serve≡batch probe: `(request body, expected response
    /// body)`; checked after the storm on a fresh connection.
    pub identity_probe: Option<(Vec<u8>, Vec<u8>)>,
}

/// What happened, from both the clients' and the server's perspective.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Connections actually opened across all classes.
    pub connections: u64,
    /// Closed-loop requests answered 200/202.
    pub requests_ok: u64,
    /// Overall request latency percentiles, µs (cold + healthz + hot).
    pub p50_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// 99.9th percentile, µs.
    pub p999_us: u64,
    /// `GET /healthz` p99, µs — loop liveness under load.
    pub healthz_p99_us: u64,
    /// Hot-cache `/convert` responses per second (pipelined clients).
    pub hot_rps: u64,
    /// Hot-cache responses received.
    pub hot_requests: u64,
    /// Cold `/convert` responses received.
    pub cold_requests: u64,
    /// 429s observed by clients (deadline shed + queue full).
    pub shed_client_429: u64,
    /// Server-side `requests_rejected_total{reason="deadline"}` delta.
    pub shed_server: u64,
    /// Server-side `requests_rejected_total{reason="queue_full"}` delta.
    pub rejected_server: u64,
    /// Client 429 count == server shed+rejected delta.
    pub shed_accounted: bool,
    /// Server-side reap deltas by reason.
    pub reaped_read: u64,
    /// Idle-budget reaps.
    pub reaped_idle: u64,
    /// Write-budget reaps.
    pub reaped_write: u64,
    /// Loris connections launched.
    pub loris_total: u64,
    /// Loris connections observed closed by the server.
    pub loris_reaped: u64,
    /// p99 of loris time-to-reap, ms (from the first byte sent).
    pub loris_reap_p99_ms: u64,
    /// Oversized uploads answered 413 before the body finished.
    pub oversized_413: u64,
    /// Oversized probes sent.
    pub oversized_total: u64,
    /// Connections abandoned mid-request.
    pub abrupt: u64,
    /// Idle keep-alive connections still open when the storm ended.
    pub idle_open_after: u64,
    /// Idle connections held.
    pub idle_total: u64,
    /// `requests_in_flight` after quiesce — non-zero means a hung worker.
    pub stalled_workers: u64,
    /// Post-storm `/convert` matched the batch pipeline byte for byte.
    pub byte_identical: bool,
}

/// Shared mutable tallies the client threads write into.
#[derive(Default)]
struct Tallies {
    latencies_us: Mutex<Vec<u64>>,
    healthz_us: Mutex<Vec<u64>>,
    ok: AtomicU64,
    too_many: AtomicU64,
    hot: AtomicU64,
    cold: AtomicU64,
    opened: AtomicU64,
}

/// Runs the storm against `config.addr` and reports. Errors only on
/// harness-level failures (cannot connect at all, metrics unreadable);
/// server misbehaviour shows up as report fields, not errors.
pub fn run(config: &LoadConfig) -> Result<LoadReport, String> {
    let before = scrape_metrics(&config.addr)?;
    warm_cache(config)?;

    let tallies = Arc::new(Tallies::default());
    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + config.duration;

    // Class sizing: a handful of closed-loop drivers; everything else
    // splits between loris and idle holders.
    let hot_threads = 2usize;
    let cold_threads = 2usize;
    let burst_conns = 4usize;
    let oversized_total = 16usize.min(config.connections / 8).max(1);
    let abrupt_total = 16usize.min(config.connections / 8).max(1);
    let driver_conns = hot_threads + cold_threads + burst_conns + 1 /* healthz */;
    let idle_total = config
        .connections
        .saturating_sub(config.loris + oversized_total + abrupt_total + driver_conns);

    let mut handles = Vec::new();

    // --- idle holders -------------------------------------------------
    let idle_open_after = Arc::new(AtomicU64::new(0));
    let idle_threads = 8usize.min(idle_total.max(1));
    for t in 0..idle_threads {
        let share = idle_total / idle_threads + usize::from(t < idle_total % idle_threads);
        let addr = config.addr.clone();
        let tallies = Arc::clone(&tallies);
        let open_after = Arc::clone(&idle_open_after);
        handles.push(std::thread::spawn(move || {
            idle_holder(&addr, share, deadline, &tallies, &open_after);
        }));
    }

    // --- slow loris ---------------------------------------------------
    let loris_reaped = Arc::new(AtomicU64::new(0));
    let loris_reap_ms = Arc::new(Mutex::new(Vec::new()));
    {
        let addr = config.addr.clone();
        let total = config.loris;
        let read_timeout = config.read_timeout;
        let reaped = Arc::clone(&loris_reaped);
        let reap_ms = Arc::clone(&loris_reap_ms);
        let tallies = Arc::clone(&tallies);
        handles.push(std::thread::spawn(move || {
            loris_swarm(&addr, total, deadline, read_timeout, &tallies, &reaped, &reap_ms);
        }));
    }

    // --- hot pipelined clients ---------------------------------------
    for _ in 0..hot_threads {
        let addr = config.addr.clone();
        let body = config.hot_body.clone();
        let tallies = Arc::clone(&tallies);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            hot_client(&addr, &body, deadline, &tallies, &stop);
        }));
    }

    // --- cold sequential clients -------------------------------------
    let cold_counter = Arc::new(AtomicU64::new(0));
    for _ in 0..cold_threads {
        let addr = config.addr.clone();
        let template = config.cold_template.clone();
        let tallies = Arc::clone(&tallies);
        let counter = Arc::clone(&cold_counter);
        handles.push(std::thread::spawn(move || {
            cold_client(&addr, &template, deadline, &tallies, &counter);
        }));
    }

    // --- burst (shedding) client -------------------------------------
    {
        let addr = config.addr.clone();
        let template = config.cold_template.clone();
        let tallies = Arc::clone(&tallies);
        let counter = Arc::clone(&cold_counter);
        handles.push(std::thread::spawn(move || {
            burst_client(&addr, &template, burst_conns, deadline, &tallies, &counter);
        }));
    }

    // --- healthz prober ----------------------------------------------
    {
        let addr = config.addr.clone();
        let tallies = Arc::clone(&tallies);
        handles.push(std::thread::spawn(move || {
            healthz_client(&addr, deadline, &tallies);
        }));
    }

    // --- oversized + abrupt faults -----------------------------------
    let oversized_ok = Arc::new(AtomicU64::new(0));
    {
        let addr = config.addr.clone();
        let max_body = config.max_body;
        let tallies = Arc::clone(&tallies);
        let ok = Arc::clone(&oversized_ok);
        handles.push(std::thread::spawn(move || {
            for _ in 0..oversized_total {
                if oversized_probe(&addr, max_body, &tallies) {
                    ok.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    let abrupt_done = Arc::new(AtomicU64::new(0));
    {
        let addr = config.addr.clone();
        let tallies = Arc::clone(&tallies);
        let done = Arc::clone(&abrupt_done);
        handles.push(std::thread::spawn(move || {
            for _ in 0..abrupt_total {
                abrupt_probe(&addr, &tallies);
                done.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    for handle in handles {
        // A panicking client thread is a harness bug; surface it as a
        // short report rather than a hang.
        if handle.join().is_err() {
            return Err("a load-harness client thread panicked".to_owned());
        }
    }
    stop.store(true, Ordering::SeqCst);

    // Quiesce: with every client gone, in-flight work must reach zero.
    let mut stalled = u64::MAX;
    let quiesce_deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < quiesce_deadline {
        let metrics = scrape_metrics(&config.addr)?;
        stalled = counter(&metrics, "requests_in_flight");
        if stalled == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let byte_identical = match &config.identity_probe {
        None => true,
        Some((body, expected)) => {
            let response = request(&config.addr, "POST", "/convert", body)
                .map_err(|e| format!("post-storm identity probe failed: {e}"))?;
            response.status == 200 && response.body == *expected
        }
    };

    let after = scrape_metrics(&config.addr)?;
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let shed_server = delta("requests_rejected_total{reason=\"deadline\"}");
    let rejected_server = delta("requests_rejected_total{reason=\"queue_full\"}");
    let shed_client = tallies.too_many.load(Ordering::Relaxed);

    let mut all = lock(&tallies.latencies_us).clone();
    let (p50, p99, p999) = percentiles(&mut all);
    let mut healthz = lock(&tallies.healthz_us).clone();
    let (_, healthz_p99, _) = percentiles(&mut healthz);
    let mut reaps = lock(&loris_reap_ms).clone();
    let (_, loris_p99_ms, _) = percentiles(&mut reaps);

    let hot = tallies.hot.load(Ordering::Relaxed);
    Ok(LoadReport {
        connections: tallies.opened.load(Ordering::Relaxed),
        requests_ok: tallies.ok.load(Ordering::Relaxed),
        p50_us: p50,
        p99_us: p99,
        p999_us: p999,
        healthz_p99_us: healthz_p99,
        hot_rps: (hot as f64 / config.duration.as_secs_f64().max(0.001)) as u64,
        hot_requests: hot,
        cold_requests: tallies.cold.load(Ordering::Relaxed),
        shed_client_429: shed_client,
        shed_server,
        rejected_server,
        shed_accounted: shed_client == shed_server + rejected_server,
        reaped_read: delta("connections_reaped_total{reason=\"read_timeout\"}"),
        reaped_idle: delta("connections_reaped_total{reason=\"idle_timeout\"}"),
        reaped_write: delta("connections_reaped_total{reason=\"write_timeout\"}"),
        loris_total: config.loris as u64,
        loris_reaped: loris_reaped.load(Ordering::Relaxed),
        loris_reap_p99_ms: loris_p99_ms,
        oversized_413: oversized_ok.load(Ordering::Relaxed),
        oversized_total: oversized_total as u64,
        abrupt: abrupt_done.load(Ordering::Relaxed),
        idle_open_after: idle_open_after.load(Ordering::Relaxed),
        idle_total: idle_total as u64,
        stalled_workers: stalled,
        byte_identical,
    })
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Sorted-percentile triple (p50, p99, p999); zeros when empty.
fn percentiles(samples: &mut [u64]) -> (u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0);
    }
    samples.sort_unstable();
    let pick = |q_num: usize, q_den: usize| {
        let rank = (samples.len() * q_num).div_ceil(q_den);
        samples.get(rank.saturating_sub(1).min(samples.len() - 1)).copied().unwrap_or(0)
    };
    (pick(50, 100), pick(99, 100), pick(999, 1000))
}

/// Ensures the hot body's conversion is resident before measurement.
fn warm_cache(config: &LoadConfig) -> Result<(), String> {
    let response = request(&config.addr, "POST", "/convert", &config.hot_body)
        .map_err(|e| format!("cache warm-up failed: {e}"))?;
    if response.status != 200 {
        return Err(format!("cache warm-up answered {}", response.status));
    }
    Ok(())
}

/// Fetches `/metrics` as plain text.
fn scrape_metrics(addr: &str) -> Result<String, String> {
    let response = request(addr, "GET", "/metrics", b"")
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    Ok(response.text())
}

/// Reads one `name value` sample out of an exposition; 0 when absent.
fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name).map(str::trim))
        .and_then(|rest| rest.parse::<u64>().ok())
        .unwrap_or(0)
}

/// Opens `share` keep-alive connections, probes each once, then holds
/// them silently until the deadline and counts how many the server kept
/// open (a reaped or closed socket reads EOF instead of `WouldBlock`).
fn idle_holder(
    addr: &str,
    share: usize,
    deadline: Instant,
    tallies: &Tallies,
    open_after: &AtomicU64,
) {
    let mut held = Vec::with_capacity(share);
    for _ in 0..share {
        let Ok(mut client) = Client::connect(addr, CLIENT_TIMEOUT) else { continue };
        tallies.opened.fetch_add(1, Ordering::Relaxed);
        if matches!(client.roundtrip("GET", "/healthz", b""), Ok(response) if response.status == 200) {
            tallies.ok.fetch_add(1, Ordering::Relaxed);
            held.push(client);
        }
    }
    let remaining = deadline.saturating_duration_since(Instant::now());
    std::thread::sleep(remaining);
    for client in held {
        let mut stream = client.stream();
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let mut probe = [0u8; 8];
        let open = match stream.read(&mut probe) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
            // EOF or any data (server must not have sent anything
            // unsolicited) or error: the server let go of us.
            _ => false,
        };
        if open {
            open_after.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Launches `total` slow-loris connections and trickles one byte to
/// each per sweep, recording when the server cuts each one off.
#[allow(clippy::too_many_arguments)]
fn loris_swarm(
    addr: &str,
    total: usize,
    deadline: Instant,
    read_timeout: Duration,
    tallies: &Tallies,
    reaped: &AtomicU64,
    reap_ms: &Mutex<Vec<u64>>,
) {
    struct Loris {
        stream: TcpStream,
        started: Instant,
        done: bool,
    }
    let mut swarm = Vec::with_capacity(total);
    for _ in 0..total {
        let Ok(stream) = TcpStream::connect(addr) else { continue };
        tallies.opened.fetch_add(1, Ordering::Relaxed);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let mut loris = Loris { stream, started: Instant::now(), done: false };
        // A deliberately incomplete head: the read budget starts here.
        if loris.stream.write(b"POST /convert HTTP/1.1\r\nx-slow: ").is_err() {
            continue;
        }
        swarm.push(loris);
    }
    // Observe reaps for up to 2.5× the read budget past the deadline so
    // the assertion "reaped within 2×" has headroom to actually fail.
    // Anchored to whichever is later of the deadline and the end of the
    // connect phase: under a full connection storm the blocking
    // connects above can contend with every other class for the accept
    // queue, and an observation window anchored to the global deadline
    // alone could expire before the first sweep ever ran.
    let connected = Instant::now();
    let hard_stop = connected.max(deadline) + read_timeout * 2 + read_timeout / 2
        + Duration::from_secs(1);
    let mut live = swarm.len();
    while live > 0 && Instant::now() < hard_stop {
        for loris in swarm.iter_mut().filter(|l| !l.done) {
            let mut buf = [0u8; 256];
            let closed = match loris.stream.read(&mut buf) {
                Ok(0) => true,          // EOF: reaped
                Ok(_) => false,         // courtesy 408 bytes; EOF follows
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Trickle another header byte to prove the budget
                    // runs from the first byte, not the last.
                    matches!(loris.stream.write(b"z"), Err(ref we) if we.kind() != io::ErrorKind::WouldBlock)
                }
                Err(_) => true,         // reset: reaped
            };
            if closed {
                loris.done = true;
                live -= 1;
                reaped.fetch_add(1, Ordering::Relaxed);
                lock(reap_ms).push(loris.started.elapsed().as_millis() as u64);
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Pipeline depth for the hot class.
const HOT_PIPELINE: usize = 16;

/// Closed-loop pipelined hot-cache client: `HOT_PIPELINE` requests per
/// write, read back the same number of responses.
fn hot_client(addr: &str, body: &[u8], deadline: Instant, tallies: &Tallies, stop: &AtomicBool) {
    let Ok(mut client) = Client::connect(addr, CLIENT_TIMEOUT) else { return };
    tallies.opened.fetch_add(1, Ordering::Relaxed);
    let mut batch = Vec::new();
    for _ in 0..HOT_PIPELINE {
        if write_request(&mut batch, "POST", "/convert", body, true).is_err() {
            return;
        }
    }
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        let started = Instant::now();
        if client.send_raw(&batch).is_err() {
            return;
        }
        for _ in 0..HOT_PIPELINE {
            match client.recv() {
                Ok(response) if response.status == 200 => {
                    tallies.hot.fetch_add(1, Ordering::Relaxed);
                    tallies.ok.fetch_add(1, Ordering::Relaxed);
                }
                Ok(response) if response.status == 429 => {
                    tallies.too_many.fetch_add(1, Ordering::Relaxed);
                }
                _ => return,
            }
        }
        let per_response = started.elapsed().as_micros() as u64 / HOT_PIPELINE as u64;
        let mut latencies = lock(&tallies.latencies_us);
        for _ in 0..HOT_PIPELINE {
            latencies.push(per_response);
        }
    }
}

/// Closed-loop cold client: every body is unique, so every request
/// takes the full conversion path through the worker pool.
fn cold_client(
    addr: &str,
    template: &[u8],
    deadline: Instant,
    tallies: &Tallies,
    counter: &AtomicU64,
) {
    let Ok(mut client) = Client::connect(addr, CLIENT_TIMEOUT) else { return };
    tallies.opened.fetch_add(1, Ordering::Relaxed);
    while Instant::now() < deadline {
        let n = counter.fetch_add(1, Ordering::Relaxed);
        let mut body = template.to_vec();
        body.extend_from_slice(format!("\n<!-- cold {n} -->").as_bytes());
        let started = Instant::now();
        match client.roundtrip("POST", "/convert", &body) {
            Ok(response) if response.status == 200 => {
                tallies.cold.fetch_add(1, Ordering::Relaxed);
                tallies.ok.fetch_add(1, Ordering::Relaxed);
                lock(&tallies.latencies_us).push(started.elapsed().as_micros() as u64);
            }
            Ok(response) if response.status == 429 => {
                tallies.too_many.fetch_add(1, Ordering::Relaxed);
            }
            _ => return,
        }
    }
}

/// Burst depth for the shedding class.
const BURST_DEPTH: usize = 64;

/// Fires deep pipelined batches of cold conversions across a few
/// connections — offered load far beyond capacity, so with a deadline
/// configured the server must shed (and the 429s are counted).
fn burst_client(
    addr: &str,
    template: &[u8],
    conns: usize,
    deadline: Instant,
    tallies: &Tallies,
    counter: &AtomicU64,
) {
    let mut clients = Vec::new();
    for _ in 0..conns {
        let Ok(client) = Client::connect(addr, CLIENT_TIMEOUT) else { continue };
        tallies.opened.fetch_add(1, Ordering::Relaxed);
        clients.push(client);
    }
    while Instant::now() < deadline && !clients.is_empty() {
        let mut dead = Vec::new();
        for (i, client) in clients.iter_mut().enumerate() {
            let sent = burst_batch(template, counter).and_then(|batch| client.send_raw(&batch));
            if sent.is_err() {
                dead.push(i);
                continue;
            }
            for _ in 0..BURST_DEPTH {
                match client.recv() {
                    Ok(response) if response.status == 200 => {
                        tallies.cold.fetch_add(1, Ordering::Relaxed);
                        tallies.ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(response) if response.status == 429 => {
                        tallies.too_many.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        dead.push(i);
                        break;
                    }
                }
            }
        }
        for i in dead.into_iter().rev() {
            clients.remove(i);
        }
    }
}

/// `BURST_DEPTH` pipelined `/convert` requests, each body unique.
fn burst_batch(template: &[u8], counter: &AtomicU64) -> io::Result<Vec<u8>> {
    let mut batch = Vec::new();
    for _ in 0..BURST_DEPTH {
        let n = counter.fetch_add(1, Ordering::Relaxed);
        let mut body = template.to_vec();
        body.extend_from_slice(format!("\n<!-- burst {n} -->").as_bytes());
        write_request(&mut batch, "POST", "/convert", &body, true)?;
    }
    Ok(batch)
}

/// Sequential `GET /healthz` prober; its p99 is the headline liveness
/// number for the event loop.
fn healthz_client(addr: &str, deadline: Instant, tallies: &Tallies) {
    let Ok(mut client) = Client::connect(addr, CLIENT_TIMEOUT) else { return };
    tallies.opened.fetch_add(1, Ordering::Relaxed);
    while Instant::now() < deadline {
        let started = Instant::now();
        match client.roundtrip("GET", "/healthz", b"") {
            Ok(response) if response.status == 200 => {
                let us = started.elapsed().as_micros() as u64;
                tallies.ok.fetch_add(1, Ordering::Relaxed);
                lock(&tallies.healthz_us).push(us);
                lock(&tallies.latencies_us).push(us);
            }
            _ => return,
        }
    }
}

/// Declares a body one byte over the limit and starts uploading it
/// slowly; a correct server answers 413 from the headers alone.
fn oversized_probe(addr: &str, max_body: usize, tallies: &Tallies) -> bool {
    let Ok(mut client) = Client::connect(addr, Duration::from_secs(5)) else { return false };
    tallies.opened.fetch_add(1, Ordering::Relaxed);
    let body = vec![b'x'; max_body + 1];
    let mut wire = Vec::new();
    if write_request(&mut wire, "POST", "/convert", &body, true).is_err() {
        return false;
    }
    // The head plus a token first chunk — far less than the declared
    // length. The 413 must arrive without the server waiting for the rest.
    let sent = wire.len() - body.len() + 1024;
    if client.send_raw(&wire[..sent]).is_err() {
        return false;
    }
    matches!(client.recv(), Ok(response) if response.status == 413)
}

/// Sends half a request head and hangs up.
fn abrupt_probe(addr: &str, tallies: &Tallies) {
    let Ok(mut stream) = TcpStream::connect(addr) else { return };
    tallies.opened.fetch_add(1, Ordering::Relaxed);
    // webre::allow(dropped-result): the disconnect IS the fault we inject
    let _ = stream.write_all(b"POST /convert HTTP/1.1\r\ncontent-length: 100\r\n\r\nhalf");
    // Drop closes the socket with the body unfinished.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_the_expected_ranks() {
        let mut samples: Vec<u64> = (1..=1000).collect();
        let (p50, p99, p999) = percentiles(&mut samples);
        assert_eq!(p50, 500);
        assert_eq!(p99, 990);
        assert_eq!(p999, 999);
        let (a, b, c) = percentiles(&mut []);
        assert_eq!((a, b, c), (0, 0, 0));
    }

    #[test]
    fn counter_parses_exact_sample_names_only() {
        let text = "requests_in_flight 3\nrequests_rejected_total{reason=\"deadline\"} 7\n";
        assert_eq!(counter(text, "requests_in_flight"), 3);
        assert_eq!(counter(text, "requests_rejected_total{reason=\"deadline\"}"), 7);
        assert_eq!(counter(text, "missing_counter"), 0);
    }
}
