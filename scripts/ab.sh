#!/usr/bin/env bash
# Interleaved base/change runs of one repository-benchmark workload.
#
#   scripts/ab.sh --workload corpus-rw [--pairs 10] [--base REV] [--seed 1]
#
# Checks out the base revision (default: HEAD, the parent of an
# uncommitted change) in a git worktree under target/ab/. Then runs, for
# i = seed .. seed+pairs-1,
#
#   bash perfbench/run.sh --workload W --seed i --seconds S --trace 0
#
# once per side, alternating which side runs first (base first in even
# pairs), where S is BENCHMARK.json's run_seconds. Each side builds into
# its own CARGO_TARGET_DIR through run.sh, before its first timed run.
# Prints, for each end-to-end metric of BENCHMARK.json, both sides' value
# in every pair, each side's median and quartiles, the change's win count
# (ties count for neither side) and a verdict:
#
#   gain        the change wins at least 9 of every 10 pairs and the
#               medians differ by more than the base's quartile distance;
#   worse       the change's median is worse than the base's by more than
#               the metric's bound;
#   within      neither, with the base's quartile distance inside the
#               bound;
#   unresolved  neither, with the base's spread wider than the bound.
#
# Runs that fail or report failed requests are listed and left out of the
# table. Raw results stay in target/ab/runs/<timestamp>/. Nothing under
# perfbench/ is changed: its lock file is put back after each run.
# Remove the base worktree with `git worktree remove target/ab/base-<sha>`.
set -euo pipefail

workload=""
pairs=10
base_rev="HEAD"
seed=1
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --base) base_rev="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        *) echo "ab.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ -z "$workload" ]; then
    echo "usage: scripts/ab.sh --workload W [--pairs N] [--base REV] [--seed I]" >&2
    exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)
base_sha=$(git rev-parse --short "$base_rev")
ab="$root/target/ab"
base_dir="$ab/base-$base_sha"
mkdir -p "$ab"
if [ ! -d "$base_dir" ]; then
    git worktree add --detach "$base_dir" "$base_sha" >&2
fi
runs="$ab/runs/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$runs"

# side name → checkout and build directory.
dir_of() { if [ "$1" = base ]; then echo "$base_dir"; else echo "$root"; fi; }
target_of() { echo "$ab/build-$1"; }

# One benchmark run of one side; its result line goes to $runs/<side>-<seed>.json.
# perfbench's lock file, which the build rewrites, is put back.
run() {
    local side="$1" s="$2" dir target out lock status=0
    dir=$(dir_of "$side")
    target=$(target_of "$side")
    out="$runs/$side-$s"
    lock=$(mktemp)
    cp "$dir/perfbench/Cargo.lock" "$lock"
    (cd "$dir" && CARGO_TARGET_DIR="$target" bash perfbench/run.sh --workload "$workload" \
        --seed "$s" --seconds "$seconds" --trace 0 >"$out.stdout" 2>"$out.stderr") || status=$?
    cp "$lock" "$dir/perfbench/Cargo.lock"
    rm -f "$lock"
    tail -n 1 "$out.stdout" >"$out.json" || true
    echo "ab.sh: $side seed $s exit $status" >&2
    echo "$status" >"$out.status"
}

echo "ab.sh: base $base_sha ($base_dir), change = working tree; $pairs pairs of $workload, ${seconds}s" >&2
for ((p = 0; p < pairs; p++)); do
    s=$((seed + p))
    if ((p % 2 == 0)); then
        run base "$s"; run change "$s"
    else
        run change "$s"; run base "$s"
    fi
done

python3 - "$runs" "$workload" "$seed" "$pairs" "$root/BENCHMARK.json" <<'EOF'
import json, math, os, sys

runs, workload, seed, pairs, bench = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
metrics = json.load(open(bench))["end_to_end"]

def load(side, s):
    path = os.path.join(runs, f"{side}-{s}")
    status = open(path + ".status").read().strip()
    try:
        result = json.loads(open(path + ".json").read())
    except (OSError, ValueError):
        return None, f"exit {status}, no result line"
    if status != "0" or result.get("failed", 1) != 0:
        return None, f"exit {status}, {result.get('failed')} of {result.get('attempted')} requests failed"
    return result["metrics"], None

def pct(values, q):
    # Nearest rank, as perfbench reports its percentiles.
    v = sorted(values)
    return v[min(max(math.ceil(q * len(v)), 1), len(v)) - 1]

pairs_ok, problems = [], []
for s in range(seed, seed + pairs):
    base, why_b = load("base", s)
    change, why_c = load("change", s)
    for side, why in (("base", why_b), ("change", why_c)):
        if why:
            problems.append(f"seed {s} {side}: {why}")
    if base and change:
        pairs_ok.append((s, base, change))

print(f"workload {workload}: {len(pairs_ok)} of {pairs} pairs complete")
for p in problems:
    print(f"  not counted: {p}")
if not pairs_ok:
    sys.exit(1)
for m in metrics:
    name, unit, better, bound = m["name"], m["unit"], m["better"], m["bound"]
    b = [base[name]["value"] for _, base, _ in pairs_ok]
    c = [change[name]["value"] for _, _, change in pairs_ok]
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(b, c))
    bq1, bmed, bq3 = pct(b, 0.25), pct(b, 0.5), pct(b, 0.75)
    cq1, cmed, cq3 = pct(c, 0.25), pct(c, 0.5), pct(c, 0.75)
    iqr = bq3 - bq1
    worse_by = (cmed - bmed) if better == "lower" else (bmed - cmed)
    if wins * 10 >= 9 * len(b) and -worse_by > iqr:
        verdict = "gain"
    elif worse_by > bound * abs(bmed):
        verdict = "worse"
    elif iqr <= bound * abs(bmed):
        verdict = "within"
    else:
        verdict = "unresolved"
    print(f"\n{name} ({unit}, {better} is better, bound {bound:.0%})")
    print("  seed      base    change")
    for (s, _, _), x, y in zip(pairs_ok, b, c):
        print(f"  {s:>4} {x:>9.4g} {y:>9.4g}")
    print(f"  base   median {bmed:.4g}  quartiles {bq1:.4g} .. {bq3:.4g}")
    print(f"  change median {cmed:.4g}  quartiles {cq1:.4g} .. {cq3:.4g}")
    print(f"  change wins {wins} of {len(b)}; verdict: {verdict}")
EOF
