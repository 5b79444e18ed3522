#!/usr/bin/env bash
# Runs the whole benchmark twice on one build with one seed, prints for every
# end-to-end metric x workload the relative difference between the two sets
# next to the metric's bound from BENCHMARK.json, and exits non-zero if any
# difference is outside its bound.
#
#   benchmark/repeat.sh [SEED] [extra pi-benchmark flags, e.g. --seconds 8]
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
[ "$#" -gt 0 ] && shift
manifest=benchmark/Cargo.toml
out="${CARGO_TARGET_DIR:-benchmark/target}/benchmark"
mkdir -p "$out"

cargo build --release --offline --manifest-path "$manifest"
for set in a b; do
    echo "== set $set (seed $seed) ==" >&2
    cargo run --release --offline --quiet --manifest-path "$manifest" -- --seed "$seed" "$@" \
        | tail -n 1 > "$out/repeat-$set.json"
done

python3 - "$out/repeat-a.json" "$out/repeat-b.json" BENCHMARK.json <<'EOF'
import json, sys

a, b, spec = (json.load(open(p)) for p in sys.argv[1:4])
outside = 0
if not (a["correct"] and b["correct"]):
    print("a set reported incorrect outputs")
    outside += 1
print(f"{'workload':<22} {'metric':<16} {'set a':>12} {'set b':>12} {'diff':>8} {'bound':>6}")
for workload, first in a["workloads"].items():
    second = b["workloads"][workload]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        x = first["metrics"][name]["value"]
        y = second["metrics"][name]["value"]
        diff = (y - x) / x if x else 0.0
        flag = ""
        if abs(diff) > metric["bound"]:
            flag = "  OUTSIDE"
            outside += 1
        print(f"{workload:<22} {name:<16} {x:>12.4f} {y:>12.4f} {diff:>+8.3f} {metric['bound']:>6.2f}{flag}")
print(f"{outside} metric(s) outside their bound")
sys.exit(1 if outside else 0)
EOF
