#!/usr/bin/env bash
# Emits BENCH_micro.json: the combined google-benchmark JSON of the micro
# benches (counters, allocator, topology). End-to-end and per-layer perf
# records come from benchmark/ (see benchmark/README.md).
#
# Usage: scripts/bench_baseline.sh [build-dir] [micro-out]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_micro.json}"
MIN_TIME="${DFSIM_BENCH_MIN_TIME:-0.2}"

if [[ ! -d "$BUILD_DIR" ]]; then
  echo "error: build dir '$BUILD_DIR' not found (run cmake first)" >&2
  exit 1
fi

benches=(micro_counters micro_allocator micro_topology)
for b in "${benches[@]}"; do
  if [[ ! -x "$BUILD_DIR/$b" ]]; then
    echo "error: $BUILD_DIR/$b missing — build with google-benchmark available" >&2
    exit 1
  fi
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

for b in "${benches[@]}"; do
  echo "== $b ==" >&2
  "$BUILD_DIR/$b" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_out="$tmpdir/$b.json" \
    --benchmark_out_format=json >&2
done

# Merge: one object keyed by bench binary, preserving full benchmark JSON.
python3 - "$OUT" "$tmpdir" "${benches[@]}" <<'EOF'
import json, sys
out, tmpdir, benches = sys.argv[1], sys.argv[2], sys.argv[3:]
merged = {}
for b in benches:
    with open(f"{tmpdir}/{b}.json") as f:
        merged[b] = json.load(f)
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
print(f"wrote {out}")
EOF
