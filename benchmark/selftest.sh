#!/usr/bin/env bash
# Smoke self-test of the benchmark harness. Runs all four workloads with
# --smoke (measured windows shrunk 20x) plus one traced run, then checks:
#  - the last stdout line is the result JSON, every run is correct, and it
#    carries exactly the metrics BENCHMARK.json names, each with its unit
#    (end_to_end untraced, per_layer traced), also printed as "metric" lines;
#  - the trace is well formed: every parent exists, every child lies inside
#    its parent, and self times are >= 0; the per-layer self times that
#    dfsim_bench prints match the ones recomputed from the trace and sum
#    to the root span.
# The timed part (after the build) should finish in under 30 s.
#
# Usage, from anywhere: bash benchmark/selftest.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=.bench_build/selftest
python3 benchmark/run.py --workload none --seed 1 >/dev/null 2>&1 || true
mkdir -p "$out"

start=$(date +%s)
for w in medium_un_t1 medium_adv_t4 medium_lowload_t4 registry_medium; do
  python3 benchmark/run.py --workload "$w" --seed 1 --trace 0 --smoke \
    > "$out/$w.txt" 2> "$out/$w.err"
done
python3 benchmark/run.py --workload medium_adv_t4 --seed 1 --trace 1 --smoke \
  --trace-out "$out/trace.json" > "$out/traced.txt" 2> "$out/traced.err"
elapsed=$(( $(date +%s) - start ))

python3 - "$out" "$elapsed" <<'EOF'
import json, os, sys

out, elapsed = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
errors = []

def check_output(path, expected):
    lines = open(path).read().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{path}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{path}: not correct ({result['failed']} of "
                      f"{result['attempted']} failed)")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        errors.append(f"{path}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    printed = {l.split()[1]: l.split()[3] for l in lines if l.startswith("metric ")}
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or printed.get(name) != unit:
            errors.append(f"{path}: {name} unit {got.get('unit')}/"
                          f"{printed.get(name)}, expected {unit}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{path}: {name} has no numeric value")

end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
for w in bench["workloads"]:
    check_output(os.path.join(out, w["name"] + ".txt"), end_to_end)
check_output(os.path.join(out, "traced.txt"), per_layer)

events = json.load(open(os.path.join(out, "trace.json")))["traceEvents"]
spans = {e["args"]["span"]: e for e in events}
if sorted(spans) != list(range(len(events))):
    errors.append("trace: span ids are not 0..n-1")
child_us = {i: 0.0 for i in spans}
roots = 0.0
tol = 0.002  # the trace prints microseconds with 3 decimals
for i, e in spans.items():
    p = e["args"]["parent"]
    if p == -1:
        roots += e["dur"]
        continue
    if p not in spans or p == i:
        errors.append(f"trace: span {i} ({e['name']}) has no parent {p}")
        continue
    parent = spans[p]
    if (e["ts"] < parent["ts"] - tol or
            e["ts"] + e["dur"] > parent["ts"] + parent["dur"] + 2 * tol):
        errors.append(f"trace: span {i} ({e['name']}) is outside its parent "
                      f"{p} ({parent['name']})")
    child_us[p] += e["dur"]
layer_self = {}
for i, e in spans.items():
    self_us = e["dur"] - child_us[i]
    if self_us < -len(events) * tol:
        errors.append(f"trace: span {i} ({e['name']}) self time {self_us} us")
    layer = e["name"].split(".")[0]
    layer_self[layer] = layer_self.get(layer, 0.0) + self_us
# dfsim_bench's own per-layer summary must agree with the trace and add up
# to the root span.
printed = {l.split()[1]: float(l.split()[2]) * 1e6
           for l in open(os.path.join(out, "traced.txt")) if l.startswith("self_s ")}
if sorted(printed) != sorted(layer_self):
    errors.append(f"trace: self_s layers {sorted(printed)} vs {sorted(layer_self)}")
for layer, us in printed.items():
    if us < 0 or abs(us - layer_self.get(layer, 0.0)) > len(events) * tol:
        errors.append(f"trace: self_s {layer} = {us} us, trace gives "
                      f"{layer_self.get(layer)} us")
if abs(sum(printed.values()) - roots) > len(events) * tol:
    errors.append(f"trace: self_s sums to {sum(printed.values())} us, "
                  f"the root span lasts {roots} us")

print(f"selftest: 5 runs in {elapsed} s, {len(events)} spans")
if elapsed > 30:
    errors.append(f"smoke runs took {elapsed} s (budget 30 s)")
for e in errors:
    print("FAIL", e)
sys.exit(1 if errors else 0)
EOF
echo "selftest: PASS"
