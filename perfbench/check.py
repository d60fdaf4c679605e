"""Correctness gate: simulated outputs compared exactly with references.

``references.json`` holds, for every job any workload can run, the
simulated statistics recorded on the commit that defined the benchmark;
``python3 perfbench/record.py`` rewrites it and ``hit_payloads.json``.  A
change that only speeds the simulator up must leave every one of them
bit-identical, so the comparison is exact.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runner import SimJob
from workloads import job_key

REFERENCES = Path(__file__).resolve().parent / "references.json"
HIT_PAYLOADS = Path(__file__).resolve().parent / "hit_payloads.json"

TRAINING_FIELDS = (
    "iteration_time_us",
    "total_time_us",
    "exposed_comm_us",
    "bytes_injected",
    "collectives_issued",
)
DRIVE_FIELDS = ("duration_ns", "bytes_injected", "memory_read_bytes", "memory_write_bytes")

#: Paper-reported average speedup of ACE over the best baseline
#: (Section VI); the repository holds no hardware measurements, so this
#: is the only accuracy reference the model can be set against.
PAPER_ACE_SPEEDUP = {"resnet50": 1.41, "gnmt": 1.12, "dlrm": 1.13}
BASELINES = ("baseline_no_overlap", "baseline_comm_opt", "baseline_comp_opt")


def outputs(job: SimJob, value: object) -> List[float]:
    """The checked statistics of one job's result."""
    fields = TRAINING_FIELDS if job.kind == "training" else DRIVE_FIELDS
    return [getattr(value, name) for name in fields]


def load_references() -> Dict[str, List[float]]:
    with REFERENCES.open(encoding="utf-8") as handle:
        return json.load(handle)["outputs"]


def load_hit_payloads() -> Dict[str, dict]:
    with HIT_PAYLOADS.open(encoding="utf-8") as handle:
        return json.load(handle)["payloads"]


def mismatch(references: Dict[str, List[float]], job: SimJob, value: object) -> Optional[str]:
    """``None`` when ``value`` matches the reference exactly, else why not."""
    expected = references.get(job_key(job))
    if expected is None:
        return f"no reference for {job.to_json()}"
    got = outputs(job, value)
    if got != expected:
        return f"{job.to_json()}: got {got}, expected {expected}"
    return None


def ordering_violations(results: Sequence[Tuple[SimJob, object]]) -> List[str]:
    """Ideal <= ACE <= every baseline on total time, per workload."""
    by_workload: Dict[str, Dict[str, float]] = defaultdict(dict)
    for job, value in results:
        by_workload[job.workload][job.system] = value.total_time_us
    problems = []
    for workload, times in sorted(by_workload.items()):
        for baseline in BASELINES:
            if not times["ideal"] <= times["ace"] <= times[baseline]:
                problems.append(
                    f"{workload}: ideal {times['ideal']} <= ace {times['ace']} "
                    f"<= {baseline} {times[baseline]} does not hold"
                )
    return problems


def ace_speedups(results: Sequence[Tuple[SimJob, object]]) -> Dict[str, float]:
    """ACE's iteration-time speedup over the best baseline, per workload."""
    by_workload: Dict[str, Dict[str, float]] = defaultdict(dict)
    for job, value in results:
        by_workload[job.workload][job.system] = value.iteration_time_us
    return {
        workload: min(times[b] for b in BASELINES) / times["ace"]
        for workload, times in by_workload.items()
    }
