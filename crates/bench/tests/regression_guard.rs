//! Guard against committing a performance regression: the benchmark
//! snapshots checked into the repository (`BENCH_pipeline.json`,
//! `BENCH_serve.json`, regenerated by `scripts/bench.sh`) must stay
//! within 30% of the post-automaton baselines recorded below.
//!
//! This intentionally checks the *committed* numbers, not a live
//! measurement — test machines vary too much for a timing assertion to
//! be reliable, but the committed snapshot is exactly what review sees.
//! If `scripts/bench.sh` produces a >30% slower cold-convert number,
//! this test fails at the next `cargo test` instead of the regression
//! sliding in silently inside a large benchmark diff.

use webre_substrate::json::Json;

/// Cold `/convert` requests/s after the Aho–Corasick matcher, Bayes
/// tables and arena conversion landed (was 556.2 before).
const BASELINE_COLD_RPS: f64 = 6569.0;
/// Conversion throughput in MiB/s, the slowest of the `convert/N`
/// corpus sizes (convert/1 was 0.92 before the automaton, 17–25 across
/// sizes after it, and 31–51 once interned tags, the streaming lexer and
/// reusable rule scratch made the path allocation-lean).
const BASELINE_CONVERT_MIB_S: f64 = 28.0;
/// Largest tolerated regression against the baselines above.
const TOLERANCE: f64 = 0.30;

/// Filter speedup floor for the tiered mapping planner
/// (`BENCH_map.json`, written by `map_throughput` via `scripts/bench.sh`):
/// at the 100x scale the lower-bound filter must keep mapped docs/s at
/// least 5x the filter-off reference on the mixed corpus. Absolute, per
/// the roadmap's acceptance bar — the speedup is a ratio of two numbers
/// from the same run, so machine noise largely cancels.
const MAP_SPEEDUP_FLOOR: f64 = 5.0;

/// Ingest floor for the multi-process scale demo (`BENCH_scale.json`,
/// written by `webre scale` via `scripts/bench.sh`): the roadmap's
/// scale-out target is ≥10k docs/s sustained over the million-document
/// stream, so unlike the relative baselines above this one is absolute.
const SCALE_DOCS_PER_S_FLOOR: f64 = 10_000.0;

/// Lint throughput floor (`BENCH_lint.json`, written by
/// `lint_throughput` via `scripts/bench.sh`): the full workspace pass —
/// CFG builds, dataflow solves, call-graph fixpoint, all nine rules —
/// is developer-loop latency inside `scripts/verify.sh`, so it must not
/// quietly decay into seconds. Measured ~2500 files/s; the floor leaves
/// ~8x headroom for slower machines.
const LINT_FILES_PER_S_FLOOR: f64 = 300.0;

/// Growth ceiling for a live `/schema` recompute (`schema_snapshot/N`
/// in `BENCH_pipeline.json`, written by the `schema_snapshot` bench):
/// mining and DTD derivation read per-path aggregates, so quadrupling
/// the corpus from 1000 to 4000 documents may at most double the median.
/// The per-document DTD scan this replaced grew at least 4x over the
/// same range. A ratio of two records from one run, so machine speed
/// largely cancels.
const SCHEMA_SNAPSHOT_GROWTH_CEILING: f64 = 2.0;

const PIPELINE_SNAPSHOT: &str = include_str!("../../../BENCH_pipeline.json");
const SERVE_SNAPSHOT: &str = include_str!("../../../BENCH_serve.json");
const SCALE_SNAPSHOT: &str = include_str!("../../../BENCH_scale.json");
const MAP_SNAPSHOT: &str = include_str!("../../../BENCH_map.json");
const LINT_SNAPSHOT: &str = include_str!("../../../BENCH_lint.json");

/// Parses a JSON-lines benchmark snapshot and returns `field` of the
/// first record whose `key` field equals `name`.
fn lookup(snapshot: &str, key: &str, name: &str, field: &str) -> Option<f64> {
    for line in snapshot.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = Json::parse(line).ok()?;
        if record.get(key).and_then(Json::as_str) == Some(name) {
            return record.get(field).and_then(Json::as_f64);
        }
    }
    None
}

#[test]
fn committed_cold_convert_rps_within_tolerance() {
    let rps = lookup(SERVE_SNAPSHOT, "name", "serve_convert_cold", "rps")
        .expect("BENCH_serve.json has a serve_convert_cold record");
    let floor = BASELINE_COLD_RPS * (1.0 - TOLERANCE);
    assert!(
        rps >= floor,
        "committed serve_convert_cold throughput regressed: {rps:.1} rps \
         is more than {:.0}% below the {BASELINE_COLD_RPS:.1} rps baseline \
         (floor {floor:.1}); rerun scripts/bench.sh on a quiet machine or \
         find the regression before committing",
        TOLERANCE * 100.0
    );
}

#[test]
fn committed_convert_throughput_within_tolerance() {
    let floor = BASELINE_CONVERT_MIB_S * (1.0 - TOLERANCE);
    for bench in ["convert/1", "convert/8", "convert/32"] {
        let mib_s = lookup(PIPELINE_SNAPSHOT, "bench", bench, "mib_per_s")
            .unwrap_or_else(|| panic!("BENCH_pipeline.json has a {bench} record"));
        assert!(
            mib_s >= floor,
            "committed {bench} throughput regressed: {mib_s:.2} MiB/s is \
             more than {:.0}% below the {BASELINE_CONVERT_MIB_S:.2} MiB/s \
             baseline (floor {floor:.2})",
            TOLERANCE * 100.0
        );
    }
}

#[test]
fn committed_schema_snapshot_does_not_grow_with_the_corpus() {
    let median = |bench: &str| {
        lookup(PIPELINE_SNAPSHOT, "bench", bench, "median_ns")
            .unwrap_or_else(|| panic!("BENCH_pipeline.json has a {bench} record"))
    };
    let (small, large) = (median("schema_snapshot/1000"), median("schema_snapshot/4000"));
    assert!(small > 0.0, "schema_snapshot/1000 median must be positive");
    let growth = large / small;
    assert!(
        growth <= SCHEMA_SNAPSHOT_GROWTH_CEILING,
        "committed schema recompute grows with the corpus: 4000 docs take \
         {growth:.2}x the 1000-doc median (ceiling \
         {SCHEMA_SNAPSHOT_GROWTH_CEILING:.1}x) — derivation is walking \
         documents again"
    );
}

#[test]
fn committed_map_filter_speedup_holds_the_floor() {
    let record_for = |scale: &str| {
        lookup(MAP_SNAPSHOT, "name", scale, "speedup")
            .unwrap_or_else(|| panic!("BENCH_map.json has a {scale} record"))
    };
    let speedup = record_for("map_throughput/100x");
    assert!(
        speedup >= MAP_SPEEDUP_FLOOR,
        "committed mapping filter speedup regressed: {speedup:.2}x at 100x \
         is below the {MAP_SPEEDUP_FLOOR:.1}x floor; rerun scripts/bench.sh \
         or find the regression before committing"
    );
    // The smaller scales are informational, but the records must exist
    // and be internally consistent (docs/s on both sides positive).
    for scale in ["map_throughput/10x", "map_throughput/30x", "map_throughput/100x"] {
        let on = lookup(MAP_SNAPSHOT, "name", scale, "filter_on_docs_per_s")
            .unwrap_or_else(|| panic!("{scale} has filter_on_docs_per_s"));
        let off = lookup(MAP_SNAPSHOT, "name", scale, "filter_off_docs_per_s")
            .unwrap_or_else(|| panic!("{scale} has filter_off_docs_per_s"));
        assert!(on > 0.0 && off > 0.0, "{scale} throughput must be positive");
    }
}

#[test]
fn committed_scale_ingest_holds_the_floor_with_agreement() {
    let record = SCALE_SNAPSHOT
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .map(|line| Json::parse(line).expect("BENCH_scale.json line parses"))
        .find(|record| record.get("bench").and_then(Json::as_str) == Some("corpus_scale"))
        .expect("BENCH_scale.json has a corpus_scale record");
    let docs_per_s = record
        .get("docs_per_s")
        .and_then(Json::as_f64)
        .expect("corpus_scale record has docs_per_s");
    assert!(
        docs_per_s >= SCALE_DOCS_PER_S_FLOOR,
        "committed scale ingest regressed: {docs_per_s:.0} docs/s is below \
         the {SCALE_DOCS_PER_S_FLOOR:.0} docs/s floor; rerun scripts/bench.sh \
         on a quiet machine or find the regression before committing"
    );
    // The throughput number only counts if the run also proved the
    // distributed incremental ≡ batch identity and replayed its WAL.
    assert_eq!(
        record.get("agreement").and_then(Json::as_bool),
        Some(true),
        "corpus_scale record does not attest checkpoint agreement"
    );
    let docs = record.get("docs").and_then(Json::as_f64).unwrap_or(0.0);
    let replayed = record
        .get("replay_docs")
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    assert_eq!(
        replayed, docs,
        "corpus_scale record replayed {replayed} of {docs} docs"
    );
}

#[test]
fn committed_lint_pass_stays_fast_and_clean() {
    let files_per_s = lookup(LINT_SNAPSHOT, "name", "lint_throughput", "files_per_s")
        .expect("BENCH_lint.json has a lint_throughput record");
    assert!(
        files_per_s >= LINT_FILES_PER_S_FLOOR,
        "committed lint throughput regressed: {files_per_s:.0} files/s is \
         below the {LINT_FILES_PER_S_FLOOR:.0} files/s floor; rerun \
         scripts/bench.sh on a quiet machine or find the regression \
         before committing"
    );
    // The throughput number only counts for a pass that also came back
    // clean — the same invariant `webre lint --deny-warnings` gates on.
    let findings = lookup(LINT_SNAPSHOT, "name", "lint_throughput", "findings")
        .expect("lint_throughput record has findings");
    assert_eq!(
        findings, 0.0,
        "committed lint snapshot recorded {findings} findings; the \
         workspace must lint clean"
    );
}

/// Floors for the committed `serve_load` record (`BENCH_serve.json`,
/// appended by `webre load --bench-out` via `scripts/bench.sh`): the
/// C10k soak must attest its scale and its liveness invariants, not
/// just its throughput. The healthz ceiling is generous on purpose —
/// the inline fast path answers in microseconds, but on a single-core
/// CI box the load generator's threads share the core with the server,
/// so the client-observed p99 is dominated by scheduler timeslices.
const LOAD_CONNECTIONS_FLOOR: f64 = 10_000.0;
const LOAD_LORIS_FLOOR: f64 = 2_000.0;
const LOAD_HEALTHZ_P99_US_CEILING: f64 = 20_000.0;
const LOAD_HOT_RPS_FLOOR: f64 = 8_000.0;

#[test]
fn committed_load_soak_attests_c10k_liveness() {
    let field = |name: &str| {
        lookup(SERVE_SNAPSHOT, "name", "serve_load", name)
            .unwrap_or_else(|| panic!("BENCH_serve.json serve_load record has {name}"))
    };
    let flag = |name: &str| {
        SERVE_SNAPSHOT
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty())
            .filter_map(|line| Json::parse(line).ok())
            .find(|r| r.get("name").and_then(Json::as_str) == Some("serve_load"))
            .and_then(|r| r.get(name).and_then(Json::as_bool))
            .unwrap_or_else(|| panic!("serve_load record has boolean {name}"))
    };
    // Scale attestation: the committed soak really was the C10k shape.
    assert!(
        field("connections") >= LOAD_CONNECTIONS_FLOOR,
        "committed serve_load ran only {} connections; the soak must \
         drive at least {LOAD_CONNECTIONS_FLOOR} (rerun scripts/bench.sh)",
        field("connections")
    );
    assert!(
        field("loris") >= LOAD_LORIS_FLOOR,
        "committed serve_load ran only {} loris connections (floor {LOAD_LORIS_FLOOR})",
        field("loris")
    );
    // Liveness invariants: these are the postconditions `webre load`
    // itself enforces, re-checked here so the committed snapshot cannot
    // be hand-edited into a green state.
    assert_eq!(field("stalled_workers"), 0.0, "serve_load left a worker hung");
    assert_eq!(
        field("loris_reaped"),
        field("loris_total"),
        "serve_load left slow-loris connections unreaped"
    );
    assert_eq!(
        field("oversized_413"),
        field("oversized_total"),
        "serve_load oversized uploads were not all refused with 413"
    );
    assert!(flag("shed_accounted"), "serve_load shed/reject accounting drifted");
    assert!(flag("byte_identical"), "serve_load identity probe diverged from batch");
    // Performance floors under full mixed load.
    assert!(
        field("healthz_p99_us") <= LOAD_HEALTHZ_P99_US_CEILING,
        "serve_load healthz p99 {}µs exceeds the {LOAD_HEALTHZ_P99_US_CEILING}µs \
         ceiling — the readiness loop is not staying live under load",
        field("healthz_p99_us")
    );
    assert!(
        field("hot_rps") >= LOAD_HOT_RPS_FLOOR,
        "serve_load hot-cache throughput {} rps fell below the \
         {LOAD_HOT_RPS_FLOOR} rps floor under mixed load",
        field("hot_rps")
    );
}

#[test]
fn snapshots_are_well_formed_json_lines() {
    for (name, snapshot) in [
        ("BENCH_pipeline.json", PIPELINE_SNAPSHOT),
        ("BENCH_serve.json", SERVE_SNAPSHOT),
        ("BENCH_scale.json", SCALE_SNAPSHOT),
        ("BENCH_map.json", MAP_SNAPSHOT),
        ("BENCH_lint.json", LINT_SNAPSHOT),
    ] {
        for (i, line) in snapshot.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            assert!(
                Json::parse(line).is_ok(),
                "{name} line {} is not valid JSON: {line:?}",
                i + 1
            );
        }
    }
}
