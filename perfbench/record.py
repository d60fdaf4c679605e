#!/usr/bin/env python3
"""Record the benchmark's reference data from the current simulator.

Run from the root of a checkout, only when a change is meant to alter
simulated results::

    python3 perfbench/record.py

It simulates every job of the two inline workloads and the daemon
workload's whole network-drive universe, serially, and writes

* ``references.json`` — the checked outputs of every job;
* ``hit_payloads.json`` — the encoded results of the inline jobs, which
  prime the cache the inline workloads' hit path is measured on.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from check import HIT_PAYLOADS, REFERENCES, outputs  # noqa: E402
from repro.runner.serialization import encode_result  # noqa: E402
from workloads import drive_universe, fidelity_jobs, job_key, paper_grid_jobs  # noqa: E402


def write_json(path: Path, name: str, entries: dict) -> None:
    """``{"repro_version": ..., name: {key: entry}}`` with one entry per line."""
    lines = [
        f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(entries)
    ]
    body = ",\n".join(lines)
    path.write_text(
        f'{{"repro_version": {json.dumps(repro.__version__)}, {json.dumps(name)}: {{\n{body}\n}}}}\n',
        encoding="utf-8",
    )
    print(f"wrote {path}")


def main() -> int:
    inline = paper_grid_jobs() + fidelity_jobs()
    jobs = inline + drive_universe()
    recorded, payloads = {}, {}
    for index, job in enumerate(jobs, 1):
        value = job.execute()
        recorded[job_key(job)] = outputs(job, value)
        if index <= len(inline):
            payloads[job_key(job)] = encode_result(value)
        if index % 100 == 0:
            print(f"{index}/{len(jobs)} jobs", flush=True)
    write_json(REFERENCES, "outputs", recorded)
    write_json(HIT_PAYLOADS, "payloads", payloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
