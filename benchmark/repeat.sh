#!/usr/bin/env bash
# Repeatability check and baseline writer.
#
# Runs every workload of BENCHMARK.json twice with the same seed and once
# with another, exactly as the driver would (one invocation per workload),
# then one traced run per workload. Fails if any end-to-end metric of the two
# same-seed runs differs by more than its bound, if the other-seed run lands
# outside the bound of the first, or if any run reports failed requests or a
# violated output check. Writes the first trajectory point,
# benchmark/baseline/BENCH_11.json (ROADMAP's BENCH_<n>.json lives here
# because the benchmark PR may only touch its own directory).
#
#   benchmark/repeat.sh [seed] [other-seed]
set -euo pipefail
cd "$(dirname "$0")/.."   # the repo root, so .cargo/config.toml applies

seed=${1:-11}
other=${2:-12}
target=${CARGO_TARGET_DIR:-target/benchmark}
out=benchmark/out/repeat
mkdir -p "$out" benchmark/baseline

cargo build --release --manifest-path benchmark/Cargo.toml --target-dir "$target"
bin="$target/release/einet-benchmark"
seconds=$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")
workloads=$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")

for run in "same1:$seed" "same2:$seed" "other:$other"; do
  for w in $workloads; do
    echo "== ${run%%:*} seed ${run##*:} $w"
    "$bin" --workload "$w" --seed "${run##*:}" --seconds "$seconds" --trace 0 | tail -n 1 || true
    cp "benchmark/out/report-$w.json" "$out/${run%%:*}-$w.json"
  done
done
for w in $workloads; do
  echo "== traced $w"
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 | tail -n 1 || true
  cp "benchmark/out/report-$w-traced.json" "$out/traced-$w.json"
done

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
python3 - "$out" "$seed" "$other" "$commit" <<'EOF'
import json, os, sys

out, seed, other, commit = sys.argv[1:5]
spec = json.load(open("BENCHMARK.json"))
bench = {"issue": 11, "commit": commit, "nproc": os.cpu_count(),
         "run_seconds": spec["run_seconds"], "seed": int(seed), "other_seed": int(other),
         "workloads": {}}
bad = []
for w in (x["name"] for x in spec["workloads"]):
    runs = {r: json.load(open(f"{out}/{r}-{w}.json")) for r in ("same1", "same2", "other", "traced")}
    for name, run in runs.items():
        if not run["correct"] or run["failed"]:
            bad.append(f"{w} {name}: correct={run['correct']} failed={run['failed']}")
    for m in spec["end_to_end"]:
        first = runs["same1"]["metrics"][m["name"]]["value"]
        for name in ("same2", "other"):
            value = runs[name]["metrics"][m["name"]]["value"]
            worse = (value - first) / first if m["better"] == "lower" else (first - value) / first
            # Same seed: the two runs must agree either way. Other seed: must
            # not be worse than the first run by more than the bound.
            off = abs(worse) if name == "same2" else worse
            if off > m["bound"]:
                bad.append(f"{w} {m['name']}: {name} {value:.4f} vs {first:.4f} "
                           f"({off * 100:.1f}% > {m['bound'] * 100:.0f}%)")
    bench["workloads"][w] = {"end_to_end": runs["same1"], "end_to_end_repeat": runs["same2"],
                             "end_to_end_other_seed": runs["other"], "per_layer": runs["traced"]}
json.dump(bench, open("benchmark/baseline/BENCH_11.json", "w"), indent=1, sort_keys=True)
print("wrote benchmark/baseline/BENCH_11.json")
if bad:
    print("NOT REPEATABLE:")
    print("\n".join("  " + b for b in bad))
    sys.exit(1)
print("repeatable: every end-to-end metric within its bound, failed = 0 everywhere")
EOF
