#!/usr/bin/env bash
# Tier-1 verification: hermetic build + static analysis + full test suite
# + dependency guard.
#
# The workspace must build and test offline with zero registry crates; the
# guard fails if any non-workspace dependency reappears in Cargo.lock (for
# example, someone adding `rand` back instead of using webre-substrate).

set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace matters: the root manifest is both a workspace and the
# webre-suite package, so a bare `cargo build` only builds webre-suite
# and would leave ./target/release/webre stale (or missing).
echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> webre lint --deny-warnings (in-tree static analysis)"
./target/release/webre lint --deny-warnings
# The registry must expose the full rule pack: the CLI expands
# --list-rules from the engine, so a rule accidentally dropped from the
# registry would otherwise stop gating without a trace. The dataflow
# rules (lock-across-blocking, unjoined-thread, unbounded-request-alloc)
# ride the same registry as the original six.
./target/release/webre lint --list-rules > /tmp/webre-rules.$$
rule_count=$(wc -l < /tmp/webre-rules.$$)
[ "$rule_count" -eq 9 ] \
    || { echo "FAIL: lint --list-rules lists $rule_count rules (expected 9)" >&2; cat /tmp/webre-rules.$$ >&2; rm -f /tmp/webre-rules.$$; exit 1; }
for rule in dropped-result lock-across-blocking lock-order no-wall-clock \
            nondet-iter panic-in-hot-path std-only unbounded-request-alloc \
            unjoined-thread; do
    grep -q "^$rule " /tmp/webre-rules.$$ \
        || { echo "FAIL: lint rule $rule missing from --list-rules" >&2; rm -f /tmp/webre-rules.$$; exit 1; }
done
rm -f /tmp/webre-rules.$$
echo "    workspace clean under --deny-warnings; all 9 rules registered"

echo "==> cargo clippy --workspace (default lint levels: deny-level lints fail)"
# Warnings are printed but do not fail the gate; an error-level lint
# (the default `deny` group, correctness bugs) does.
cargo clippy --workspace --offline -q

echo "==> cargo test -q"
cargo test -q

echo "==> webre check (bounded differential/fuzz oracle smoke run)"
./target/release/webre check --iters 50 --seed 1

echo "==> matcher smoke gate (automaton vs naive scanner equivalence)"
# The conversion hot path matches concepts with the Aho-Corasick
# automaton; the naive per-instance scanner is the reference. A deeper
# run than the battery above catches tie-break divergences early.
./target/release/webre check --only matcher-vs-naive --iters 200 --seed 1

echo "==> shard-merge oracle gate (per-shard mining + merge ≡ batch mining)"
# The durable corpus splits documents across shards; this differential
# oracle holds per-shard accretion + table merge to byte-equality with
# mining the unsharded corpus, across random shard counts and routings.
./target/release/webre check --only shard-merge-vs-batch --iters 100 --seed 1

echo "==> map oracle gate (served /map ≡ batch planner, byte-identical)"
# POST /map answered under concurrent clients must match the sequential
# batch planner byte-for-byte — mapped XML, canonical edit script, cost
# and tier — across randomized reject budgets.
./target/release/webre check --only map-vs-batch --iters 100 --seed 1

echo "==> scale smoke gate (multi-process sharded ingest, durable, merged ≡ batch)"
scale_dir=$(mktemp -d)
trap 'rm -rf "$scale_dir"' EXIT
./target/release/webre scale --instances 2 --docs 5000 --checkpoints 2 \
    --data-dir "$scale_dir/corpus" > "$scale_dir/scale.json"
grep -q '"agreement":true' "$scale_dir/scale.json" \
    || { echo "FAIL: scale run did not report checkpoint agreement" >&2; cat "$scale_dir/scale.json" >&2; exit 1; }
grep -q '"replay_docs":5000' "$scale_dir/scale.json" \
    || { echo "FAIL: scale replay recovered the wrong doc count" >&2; cat "$scale_dir/scale.json" >&2; exit 1; }
trap - EXIT
rm -rf "$scale_dir"
echo "    multi-process ingest, checkpoint agreement and WAL replay all verified"

echo "==> serve smoke gate (HTTP round-trip against the release binary)"
smoke_dir=$(mktemp -d)
serve_log="$smoke_dir/serve.log"
./target/release/webre serve --addr 127.0.0.1:0 --workers 2 > "$serve_log" &
serve_pid=$!
cleanup_serve() { kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"; }
trap cleanup_serve EXIT
# The banner line carries the ephemeral port: "serving on http://HOST:PORT (...)"
port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's|.*http://[^:]*:\([0-9]*\).*|\1|p' "$serve_log")
    [ -n "$port" ] && break
    sleep 0.05
done
[ -n "$port" ] || { echo "FAIL: serve did not print its address" >&2; cat "$serve_log" >&2; exit 1; }
base="http://127.0.0.1:$port"
# Conversion over HTTP must be byte-identical to the committed golden.
curl -sf -X POST --data-binary @tests/fixtures/resume_clean.html "$base/convert" -o "$smoke_dir/got.xml"
diff -u tests/fixtures/resume_clean.expected.xml "$smoke_dir/got.xml" \
    || { echo "FAIL: served XML diverges from golden fixture" >&2; exit 1; }
# A repeat must be answered from the cache; /metrics proves it.
curl -sf -X POST --data-binary @tests/fixtures/resume_clean.html "$base/convert" -o /dev/null
curl -sf "$base/metrics" > "$smoke_dir/metrics.txt"
grep -q '^cache_hits_total [1-9]' "$smoke_dir/metrics.txt" \
    || { echo "FAIL: no cache hit recorded in /metrics" >&2; cat "$smoke_dir/metrics.txt" >&2; exit 1; }
grep -q '^requests_total{endpoint="convert"} 2' "$smoke_dir/metrics.txt" \
    || { echo "FAIL: convert request count wrong in /metrics" >&2; exit 1; }
# Each series once: a scraper rejects a repeated line key (the text
# before the last space).
dup_keys=$(sed 's/ [^ ]*$//' "$smoke_dir/metrics.txt" | sort | uniq -d)
[ -z "$dup_keys" ] \
    || { echo "FAIL: duplicate /metrics series keys: $dup_keys" >&2; exit 1; }
# Mapping as a service: before any corpus, /map must 404; after accreting
# the golden fixture, POST /map must return exactly the bytes the batch
# planner (`webre map --json`) produces over the same one-document corpus.
map_status=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    --data-binary @tests/fixtures/resume_clean.html "$base/map")
[ "$map_status" = "404" ] \
    || { echo "FAIL: /map before any schema answered $map_status (expected 404)" >&2; exit 1; }
curl -sf -X POST --data-binary @tests/fixtures/resume_clean.html "$base/corpus/docs" > /dev/null
curl -sf -X POST --data-binary @tests/fixtures/resume_clean.html "$base/map" -o "$smoke_dir/served-map.json"
./target/release/webre map tests/fixtures/resume_clean.html --json > "$smoke_dir/batch-map.json"
diff -u "$smoke_dir/batch-map.json" "$smoke_dir/served-map.json" \
    || { echo "FAIL: served /map diverges from the batch planner" >&2; exit 1; }
# Graceful drain: /shutdown must cause a clean exit.
curl -sf -X POST "$base/shutdown" > /dev/null
wait "$serve_pid" || { echo "FAIL: serve exited non-zero after /shutdown" >&2; exit 1; }
trap - EXIT
rm -rf "$smoke_dir"
echo "    serve round-trip, cache hit and graceful drain all verified"

echo "==> load smoke gate (readiness loop, admission control, loris reaping)"
# `webre load` spawns its own serve child and drives mixed hot / cold /
# slow-loris / oversized / abruptly-closed traffic at it, then enforces
# its liveness postconditions itself (exit 1 on any failure): zero hung
# workers, every loris reaped within 2x the read budget, shed/reject
# accounting exact, every oversized upload refused with 413, and a
# /convert response byte-identical to the batch engine. A short soak is
# enough here — the full C10k shape runs in scripts/bench.sh and its
# committed record is held by the regression guard.
ulimit -n 20000 2>/dev/null || true
./target/release/webre load --connections 500 --loris 50 --duration 2
echo "    load soak postconditions all held (see table above)"

echo "==> loris-liveness oracle gate (server stays honest while under loris attack)"
./target/release/webre check --only loris-liveness --iters 10 --seed 1

echo "==> trace smoke gate (--trace-out emits valid chrome://tracing JSON)"
trace_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir"' EXIT
./target/release/webre generate --count 4 --seed 11 --out-dir "$trace_dir/docs"
./target/release/webre run "$trace_dir"/docs/*.html \
    --out-dir "$trace_dir/out" --trace-out "$trace_dir/trace.json" > /dev/null
# The trace must parse as JSON and cover every pipeline stage the run
# exercises: all four restructuring rules plus mining and DTD derivation.
python3 - "$trace_dir/trace.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
names = {event["name"] for event in doc["traceEvents"]}
required = {"tokenization-rule", "concept-instance-rule", "grouping-rule",
            "consolidation-rule", "mine-frequent-paths", "derive-dtd"}
missing = required - names
assert not missing, f"trace missing stages: {sorted(missing)}"
PY
# Captured to a file, not piped into `grep -q`: an early-exiting grep
# closes the pipe and the binary dies on SIGPIPE mid-print.
./target/release/webre stats "$trace_dir/trace.json" > "$trace_dir/stats.txt"
grep -q 'mine-frequent-paths' "$trace_dir/stats.txt" \
    || { echo "FAIL: webre stats did not summarize the trace" >&2; exit 1; }
# Tracing must be provably non-perturbing: the dedicated differential
# oracle re-runs the pipeline traced vs untraced and compares bytes.
./target/release/webre check --only trace-noop --iters 50 --seed 1
trap - EXIT
rm -rf "$trace_dir"
echo "    trace export, stats summary and trace-noop oracle all verified"

echo "==> perfbench gate (the repository benchmark builds and self-tests unmodified)"
# perfbench is a Cargo package of its own (own workspace and lock) and the
# one consumer outside the workspace whose calls pin public names and
# signatures (the rule functions, MapPlanner::plan,
# LiveCorpus::snapshot_obs, ...). Nothing else here builds it. Cargo
# rewrites perfbench/Cargo.lock when a workspace crate's internal
# dependencies change, so the committed lock is put back afterwards and
# the gate leaves perfbench/ as it found it.
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
trap 'cp "$perfbench_lock" perfbench/Cargo.lock; rm -f "$perfbench_lock"' EXIT
CARGO_TARGET_DIR=target/perfbench \
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
cp "$perfbench_lock" perfbench/Cargo.lock
trap - EXIT
rm -f "$perfbench_lock"

echo "==> dependency guard (Cargo.lock must contain only workspace crates)"
# Registry/git dependencies carry a `source = ...` line in Cargo.lock;
# path-only workspace members never do.
if grep -n '^source = ' Cargo.lock; then
    echo "FAIL: Cargo.lock contains non-workspace dependencies (see above)" >&2
    exit 1
fi
# Belt and braces: every [[package]] name must be a workspace crate.
bad=$(grep '^name = ' Cargo.lock | grep -v '^name = "webre' || true)
if [ -n "$bad" ]; then
    echo "FAIL: non-workspace package(s) in Cargo.lock:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "OK: build, tests and dependency guard all passed"
