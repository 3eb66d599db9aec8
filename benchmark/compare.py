#!/usr/bin/env python3
"""Run and compare two sets of benchmark results.

Two subcommands:

  compare.py run --a TREE --b TREE --out DIR [--pairs 10] [--trace 0]
                 [--workload NAME ...]

      Runs benchmark/run.py in source tree A (the parent commit) and tree B
      (the change) for every workload, in pairs: pair i uses seed i + 1 on
      both sides, and the side that runs first alternates from pair to
      pair. Every run lasts BENCHMARK.json's run_seconds; --trace 1 takes
      the per-layer metrics instead. Each run's standard output is kept as
      DIR/a/<workload>-seed<N>-trace<T>.txt (and DIR/b/...). For a
      same-commit check give the same tree twice.

  compare.py report DIR [--same]

      For every (workload, metric) present in DIR/a and DIR/b: each side's
      median and quartiles, the spread (interquartile distance over the
      median) and the change's win share over the pairs. End-to-end
      metrics are judged against their bound in the repository's
      BENCHMARK.json:

        gain        the change wins >= 90% of the pairs and the medians
                    differ by more than the parent's interquartile distance
        regression  the change's median is worse by more than the bound
        unresolved  a side's spread exceeds the bound (unless every run of
                    the change beats every run of the parent)
        ok          none of the above

      With --same both sides are one commit: every spread must stay within
      its bound, the medians must agree within it, every run must be
      correct, and runs with the same seed must report identical simulated
      statistics (accepted_load, latency metrics, digest). Per-layer
      metrics (traced runs) carry no bound and are listed for reading only.

      Every run also gets an ops_failed_pct row (100 * failed / attempted);
      a run with a failed operation fails the report in either mode.

Runs whose host fingerprints differ are never compared: the tool stops.
Exit status: 0 when the report passes (no regression, or --same holds),
1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# Simulated statistics: deterministic per (workload, seed), so equal seeds
# must give equal values on one commit.
MODEL_METRICS = ["accepted_load", "latency_mean_cycles", "latency_p99_cycles"]


def parse_run(path):
    """Fields of one saved dfsim_bench output: fingerprint, run line, result."""
    with open(path) as f:
        lines = f.read().splitlines()
    run = {"path": path, "fingerprint": None, "digest": None}
    for line in lines:
        if line.startswith("fingerprint "):
            run["fingerprint"] = json.loads(line[len("fingerprint "):])
        elif line.startswith("run "):
            fields = dict(kv.split("=", 1) for kv in line.split()[1:] if "=" in kv)
            run["workload"] = fields["workload"]
            run["seed"] = int(fields["seed"])
            run["trace"] = int(fields["trace"])
        elif line.startswith("digest "):
            run["digest"] = line.split()[1]
    if not lines or run["fingerprint"] is None or "workload" not in run:
        raise SystemExit(f"{path}: not a benchmark output")
    result = json.loads(lines[-1])
    result["metrics"]["ops_failed_pct"] = {
        "value": 100.0 * result["failed"] / result["attempted"], "unit": "%"}
    run["result"] = result
    return run


def load_side(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".txt"):
            runs.append(parse_run(os.path.join(directory, name)))
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_cmd(args):
    os.makedirs(os.path.join(args.out, "a"), exist_ok=True)
    os.makedirs(os.path.join(args.out, "b"), exist_ok=True)
    trees = {"a": os.path.abspath(args.a), "b": os.path.abspath(args.b)}
    workloads = args.workload or WORKLOADS
    for i in range(args.pairs):
        seed = i + 1
        order = ["a", "b"] if i % 2 == 0 else ["b", "a"]
        for workload in workloads:
            for side in order:
                cmd = ["python3", os.path.join(trees[side], "benchmark", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(BENCHMARK["run_seconds"]),
                       "--trace", str(args.trace)]
                out = os.path.join(args.out, side,
                                   f"{workload}-seed{seed}-trace{args.trace}.txt")
                proc = subprocess.run(cmd, cwd=trees[side], capture_output=True,
                                      text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"{side}: {' '.join(cmd)} failed")
                with open(out, "w") as f:
                    f.write(proc.stdout)
                result = json.loads(proc.stdout.splitlines()[-1])
                print(f"pair {i} {side} {workload} seed={seed} "
                      f"correct={result['correct']}", flush=True)
    return 0


def report_cmd(args):
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    directions = {m["name"]: m["better"]
                  for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    side_a = load_side(os.path.join(args.dir, "a"))
    side_b = load_side(os.path.join(args.dir, "b"))
    ids = {r["fingerprint"]["id"] for r in side_a + side_b}
    if len(ids) != 1:
        raise SystemExit(f"refusing to compare runs from different hosts: {sorted(ids)}")
    print(f"host {ids.pop()}: {side_a[0]['fingerprint']['cpu']}, "
          f"{side_a[0]['fingerprint']['nproc']} cpus, "
          f"{side_a[0]['fingerprint']['compiler']}, "
          f"{side_a[0]['fingerprint']['build_type']}")

    ok = True
    for run in side_a + side_b:
        res = run["result"]
        if not res["correct"] or res["failed"] != 0:
            print(f"FAILED OPERATIONS: {run['path']} ({res['failed']} of {res['attempted']})")
            ok = False

    header = (f"{'workload':18} {'metric':32} {'a median [q1, q3]':34} "
              f"{'b median [q1, q3]':34} {'a/b spread':>13} {'b vs a':>8} "
              f"{'b wins':>7} {'bound':>6}  status")
    print(header)
    keys = sorted({(r["workload"], r["trace"], m) for r in side_a + side_b
                   for m in r["result"]["metrics"]})
    for workload, trace, metric in keys:
        def values(side):
            return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in side
                    if r["workload"] == workload and r["trace"] == trace
                    and metric in r["result"]["metrics"]}
        va, vb = values(side_a), values(side_b)
        if not va or not vb:
            continue
        a_list, b_list = list(va.values()), list(vb.values())
        qa, qb = quartiles(a_list), quartiles(b_list)
        higher = directions.get(metric, "lower") == "higher"
        sign = 1.0 if higher else -1.0
        spread_a = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0
        spread_b = (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0
        delta = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        paired = sorted(set(va) & set(vb))
        wins = sum(1 for s in paired if sign * (vb[s] - va[s]) > 0)
        share = wins / len(paired) if paired else 0.0
        bound = bounds[metric]["bound"] if metric in bounds and trace == 0 else None
        if metric == "ops_failed_pct":
            status = "ok" if not any(a_list + b_list) else "FAILED OPERATIONS"
        elif bound is None:
            status = "info"
        elif args.same:
            status = "ok"
            if max(spread_a, spread_b) > bound:
                status = "SPREAD>BOUND"
            if abs(delta) > bound:
                status = "MEDIANS DIFFER"
            if metric in MODEL_METRICS and any(va[s] != vb[s] for s in paired):
                status = "NOT IDENTICAL"
            ok &= status == "ok"
        else:
            b_beats_all = (min(sign * x for x in b_list) > max(sign * x for x in a_list))
            if max(spread_a, spread_b) > bound and not b_beats_all:
                status = "unresolved"
            elif -delta > bound:
                status = "REGRESSION"
                ok = False
            elif share >= 0.9 and abs(qb[1] - qa[1]) > (qa[2] - qa[0]):
                status = "gain"
            else:
                status = "ok"
        fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
        print(f"{workload:18} {metric:32} {fmt(qa):34} {fmt(qb):34} "
              f"{spread_a*100:5.1f}/{spread_b*100:5.1f}% {delta*100:+7.2f}% "
              f"{wins:3}/{len(paired):<3} {'' if bound is None else bound:>6}  {status}")

    if args.same:
        digests_a = {(r["workload"], r["seed"]): r["digest"] for r in side_a if r["trace"] == 0}
        for r in side_b:
            key = (r["workload"], r["seed"])
            if r["trace"] == 0 and key in digests_a and digests_a[key] != r["digest"]:
                print(f"DIGEST DIFFERS: {key[0]} seed {key[1]}")
                ok = False
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--a", required=True, help="source tree of the parent commit")
    run.add_argument("--b", required=True, help="source tree of the change")
    run.add_argument("--out", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--workload", action="append", choices=WORKLOADS)
    rep = sub.add_parser("report")
    rep.add_argument("dir")
    rep.add_argument("--same", action="store_true")
    args = parser.parse_args()
    return run_cmd(args) if args.command == "run" else report_cmd(args)


if __name__ == "__main__":
    sys.exit(main())
