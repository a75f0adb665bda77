#!/usr/bin/env bash
# Alternating-pairs comparison of the repo benchmark between a parent
# revision and the working tree (choosing-metrics guide, section 8).
#
#   scripts/bench_pairs.sh PARENT_REV [--pairs N] [--workload W]...
#                          [--seconds S] [--seed K]
#
# Builds the benchmark of PARENT_REV (a clean export under
# target/bench-pairs/) and of the working tree, then runs N pairs per
# workload with `--trace 0`, alternating which side runs first. Every run's
# result line goes to target/bench-pairs/runs-<parent>-<time>.jsonl. For
# each workload and end-to-end metric of BENCHMARK.json it prints both
# sides' medians and quartiles, the change's wins (ties count for neither)
# and whether the gain rule holds: wins >= 9/10 of the pairs and a median
# gap, in the better direction, wider than the parent's interquartile range.
#
# Defaults: 10 pairs, every workload in BENCHMARK.json, the benchmark's
# own run length and seed. Needs git, cargo and python3; runs offline.
set -euo pipefail

usage() {
    sed -n '5,6p' "$0" | sed 's/^# *//' >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$1
shift
pairs=10
workloads=()
extra=()
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=${2:?--pairs needs a value}; shift 2 ;;
        --workload) workloads+=("${2:?--workload needs a value}"); shift 2 ;;
        --seconds|--seed) extra+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
        *) usage ;;
    esac
done

root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$parent_rev^{commit}")
bench=crates/bench/src/bin/benchmark
out_dir=target/bench-pairs
parent_tree=$out_dir/${sha:0:12}
mkdir -p "$out_dir"
if [ ! -d "$parent_tree" ]; then
    mkdir -p "$parent_tree.tmp"
    git archive "$sha" | tar -x -C "$parent_tree.tmp"
    mv "$parent_tree.tmp" "$parent_tree"
fi

build() {
    echo "building the benchmark in $1" >&2
    cargo build --release --offline --quiet --manifest-path "$1/$bench/Cargo.toml"
}
build "$parent_tree"
build "$root"
exe_parent=$parent_tree/$bench/target/release/benchmark
exe_change=$root/$bench/target/release/benchmark

if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c \
        'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

log=$out_dir/runs-${sha:0:12}-$(date +%Y%m%d-%H%M%S).jsonl
run() { # side exe workload pair
    local line
    line=$("$2" --workload "$3" ${extra[@]+"${extra[@]}"} --trace 0 | tail -n 1)
    printf '{"side": "%s", "workload": "%s", "pair": %d, "result": %s}\n' \
        "$1" "$3" "$4" "$line" >>"$log"
    echo "pair $4 $3 $1: $line" | cut -c1-160 >&2
}
for ((i = 1; i <= pairs; i++)); do
    for w in "${workloads[@]}"; do
        if ((i % 2)); then
            run parent "$exe_parent" "$w" "$i"
            run change "$exe_change" "$w" "$i"
        else
            run change "$exe_change" "$w" "$i"
            run parent "$exe_parent" "$w" "$i"
        fi
    done
done

echo "runs: $log"
python3 - "$log" <<'PY'
import json, math, sys

spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(l) for l in open(sys.argv[1])]

def quantile(xs, p):  # linear interpolation, as the benchmark's stats.rs
    xs = sorted(xs)
    h = p * (len(xs) - 1)
    lo, hi = math.floor(h), math.ceil(h)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])

def summary(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

print(f"{'workload':<16} {'metric':<13} {'parent median [q1, q3]':<32} "
      f"{'change median [q1, q3]':<32} {'wins':<6} {'change':>7}  rule")
for w in dict.fromkeys(r["workload"] for r in runs):
    by_pair = {}
    for r in runs:
        if r["workload"] == w:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
    full = [p for p in by_pair.values() if len(p) == 2]
    failed = sum(p[s].get("failed", 0) for p in full for s in p)
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["parent"]["metrics"][name]["value"] for p in full]
        chg = [p["change"]["metrics"][name]["value"] for p in full]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        pq = [quantile(par, q) for q in (0.25, 0.5, 0.75)]
        cq = [quantile(chg, q) for q in (0.25, 0.5, 0.75)]
        gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        holds = wins * 10 >= 9 * len(full) and gap > pq[2] - pq[0]
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse = rel if lower else -rel
        verdict = "gain" if holds else "no gain"
        if worse > m["bound"]:
            verdict += f", worse than the {m['bound']:.0%} bound"
        print(f"{w:<16} {name:<13} {summary(pq):<32} {summary(cq):<32} "
              f"{wins:>2}/{len(full):<3} {rel:>+7.1%}  {verdict}")
    print(f"{w:<16} failed checks over {2 * len(full)} runs: {failed}")
PY
