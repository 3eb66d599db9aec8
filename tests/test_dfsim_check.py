#!/usr/bin/env python3
"""Meta-test for tools/dfsim_check: each seeded fixture violation under
tests/lint_fixtures/ must be detected by its check, and the repository at
HEAD must be clean under all six checks. Wired in as the `dfsim_check`
ctest, so a check that silently stops firing fails the build."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO, "tools", "dfsim_check", "dfsim_check.py")
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures")

# fixture dir -> (check to run, substring(s) its report must contain)
CASES = {
    "bad_rng": ("CHK-RNG", "undeclared RNG draw site `rng.next_below`"),
    "bad_gate": ("CHK-GATE", "access to `sink_` in Simulator::flush_telemetry"),
    "bad_gate_profiler": ("CHK-GATE", "access to `profiler` in Simulator::cycle "
                                      "(reachable from Simulator::step)"),
    # A listed function, and a topology-templated Simulator phase reached
    # through the Simulator::step closure.
    "bad_alloc": ("CHK-ALLOC", ("push_back in hot-path function "
                                "Engine::route_cycle",
                                "push_back in hot-path function "
                                "Simulator::route_and_allocate")),
    "bad_config": ("CHK-CONFIG", "`router.undocumented` is parsed but not "
                                 "documented"),
    "bad_schema": ("CHK-SCHEMA", "`surprise_field` is written by schema.cpp "
                                 "but not documented"),
    "bad_dispatch": ("CHK-DISPATCH", "engine references `RoutingKind`"),
}


def run(root, checks):
    return subprocess.run(
        [sys.executable, CHECKER, "--root", root, "--checks", checks],
        capture_output=True, text=True)


def main():
    failures = []

    for fixture, (check, needles) in sorted(CASES.items()):
        if isinstance(needles, str):
            needles = (needles,)
        root = os.path.join(FIXTURES, fixture)
        proc = run(root, check)
        out = proc.stdout + proc.stderr
        missing = [n for n in needles if n not in out]
        if proc.returncode != 1:
            failures.append(f"{fixture}: expected exit 1 from {check}, got "
                            f"{proc.returncode}\n{out}")
        elif missing:
            failures.append(f"{fixture}: {check} fired but without the "
                            f"seeded violation; wanted {missing[0]!r} in:\n"
                            f"{out}")
        else:
            print(f"ok  {fixture}: {check} detects the seeded violation")

    proc = run(REPO,
               "CHK-RNG,CHK-GATE,CHK-ALLOC,CHK-CONFIG,CHK-SCHEMA,CHK-DISPATCH")
    if proc.returncode != 0:
        failures.append("HEAD is not clean under dfsim_check:\n"
                        + proc.stdout + proc.stderr)
    else:
        print("ok  HEAD: all six checks clean")

    # The violation messages must carry their check IDs so CI logs and the
    # fixture assertions above stay greppable.
    proc = run(REPO, "nonexistent-check")
    if proc.returncode != 2:
        failures.append(f"unknown check name must exit 2, got "
                        f"{proc.returncode}")
    else:
        print("ok  unknown check name exits 2")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print("  " + f.replace("\n", "\n  "), file=sys.stderr)
        return 1
    print(f"\ndfsim_check meta-test: {len(CASES)} fixtures + HEAD clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
