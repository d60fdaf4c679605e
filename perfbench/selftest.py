#!/usr/bin/env python3
"""Self-test of the benchmark: its exact counters repeat exactly.

Runs the traced benchmark twice per workload with the same seed and asserts
that the counters a change may cite as counts are identical, and that both
runs verified every output.  Takes a few minutes; run from the root of a
checkout with either of::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent

#: Counters that are exact for a given seed, on every workload.
EXACT_COUNTERS = (
    "sim.events",
    "training.chunks",
    "endpoint.phases",
    "network.reserves",
    "network.transfers",
    "runner.cache_hits",
    "runner.cache_misses",
    "service.requests",
    "service.executed",
)


def traced_run(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_counters_repeat(workload: str, seed: int = 7) -> None:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    for run in (first, second):
        assert run["correct"] and run["failed"] == 0, run
    for name in EXACT_COUNTERS:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        assert a == b, f"{workload}: {name} differs between runs: {a} != {b}"


def test_paper_grid_counters_repeat():
    check_counters_repeat("paper-grid-64")


def test_fidelity_counters_repeat():
    check_counters_repeat("fidelity-32")


def test_daemon_counters_repeat():
    check_counters_repeat("sweep-daemon")


if __name__ == "__main__":
    for workload in ("paper-grid-64", "fidelity-32", "sweep-daemon"):
        check_counters_repeat(workload)
        print(f"{workload}: exact counters repeat")
