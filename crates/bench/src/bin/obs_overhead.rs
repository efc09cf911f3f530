//! Observability overhead: the full pipeline (convert → discover → map)
//! timed with tracing disabled, with the stats recorder, and with the
//! full trace recorder, over the same synthetic corpus.
//!
//! The disabled path is the claim under test: with no context installed,
//! every span and counter call is one thread-local read that finds
//! nothing, so "off" prices the instrumentation a batch run carries, and
//! "recorder on" (installed with `webre_obs::scoped`) should stay within
//! a few percent (<3% target for stats — the always-on serving
//! configuration).
//!
//! Results go to stdout as a table and to `BENCH_obs.json` (override with
//! `WEBRE_BENCH_OBS_OUT`) as JSON lines, one record per mode plus one
//! overhead summary record.
//!
//! Run with: `cargo run --release -p webre-bench --bin obs_overhead`
//! Args: `[--docs N] [--rounds N]`

use std::time::Instant;
use webre::obs::clock::MonotonicClock;
use webre::obs::stats::StatsRecorder;
use webre::obs::trace::TraceRecorder;
use webre::obs::{scoped, Ctx};
use webre::Pipeline;
use webre_corpus::CorpusGenerator;

struct Outcome {
    name: &'static str,
    median_ns: u64,
    p95_ns: u64,
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx]
}

/// Times `rounds` full-pipeline runs; each `run_round` builds a fresh
/// recorder, so trace rounds do not accumulate spans across rounds.
fn run_mode(
    name: &'static str,
    pipeline: &Pipeline,
    htmls: &[String],
    rounds: usize,
    run_round: &dyn Fn(&Pipeline, &[String]),
) -> Outcome {
    // Warmup round absorbs first-touch effects (page faults, lazy init).
    run_round(pipeline, htmls);
    let mut samples: Vec<u64> = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            run_round(pipeline, htmls);
            started.elapsed().as_nanos().min(u64::MAX as u128) as u64
        })
        .collect();
    samples.sort_unstable();
    Outcome {
        name,
        median_ns: percentile(&samples, 0.50),
        p95_ns: percentile(&samples, 0.95),
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

fn overhead_pct(base_ns: u64, mode_ns: u64) -> f64 {
    if base_ns == 0 {
        return 0.0;
    }
    (mode_ns as f64 - base_ns as f64) / base_ns as f64 * 100.0
}

fn main() {
    let docs = arg("--docs", 40);
    let rounds = arg("--rounds", 30);

    let pipeline = Pipeline::resume_domain();
    let htmls: Vec<String> = CorpusGenerator::new(23)
        .generate(docs)
        .into_iter()
        .map(|d| d.html)
        .collect();

    let modes: [(&'static str, &dyn Fn(&Pipeline, &[String])); 3] = [
        ("off", &|p, h| {
            p.run(h).expect("pipeline runs");
        }),
        ("stats", &|p, h| {
            let recorder = StatsRecorder::new(Box::new(MonotonicClock::new()));
            scoped(Ctx::new(&recorder), || p.run(h)).expect("pipeline runs");
        }),
        ("trace", &|p, h| {
            let recorder = TraceRecorder::new(Box::new(MonotonicClock::new()));
            scoped(Ctx::new(&recorder), || p.run(h)).expect("pipeline runs");
        }),
    ];

    println!("obs_overhead: {docs} docs, {rounds} rounds per mode");
    println!(
        "  {:<8} {:>14} {:>14} {:>10}",
        "mode", "median ns", "p95 ns", "overhead"
    );
    let mut outcomes: Vec<Outcome> = Vec::new();
    for (name, run_round) in &modes {
        let outcome = run_mode(name, &pipeline, &htmls, rounds, *run_round);
        let base = outcomes.first().map_or(outcome.median_ns, |o| o.median_ns);
        println!(
            "  {:<8} {:>14} {:>14} {:>9.2}%",
            outcome.name,
            outcome.median_ns,
            outcome.p95_ns,
            overhead_pct(base, outcome.median_ns)
        );
        outcomes.push(outcome);
    }

    let base_ns = outcomes[0].median_ns;
    let stats_pct = overhead_pct(base_ns, outcomes[1].median_ns);
    let trace_pct = overhead_pct(base_ns, outcomes[2].median_ns);
    if stats_pct >= 3.0 {
        println!("  NOTE: stats overhead {stats_pct:.2}% exceeds the 3% target");
    }

    let out_path =
        std::env::var("WEBRE_BENCH_OBS_OUT").unwrap_or_else(|_| "BENCH_obs.json".to_owned());
    use std::io::Write as _;
    let mut out = std::fs::File::create(&out_path).expect("create bench output");
    for o in &outcomes {
        writeln!(
            out,
            "{{\"name\":\"obs_{}\",\"docs\":{docs},\"rounds\":{rounds},\
             \"median_ns\":{},\"p95_ns\":{}}}",
            o.name, o.median_ns, o.p95_ns
        )
        .expect("write record");
    }
    writeln!(
        out,
        "{{\"name\":\"obs_overhead\",\"stats_pct\":{stats_pct:.3},\
         \"trace_pct\":{trace_pct:.3},\"target_pct\":3.0}}"
    )
    .expect("write record");
    println!("==> {} record(s) written to {out_path}", outcomes.len() + 1);
}
