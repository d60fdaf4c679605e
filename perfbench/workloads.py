"""Job sets of the three benchmark workloads.

Every job the simulator receives is built here from the benchmark's seed;
the simulator never sees the seed itself.

* ``paper-grid-64`` — the paper's own evaluation: the five Table VI systems
  x {resnet50, gnmt, dlrm} at 64 NPUs, compiled from the shipped
  ``paper-full`` manifest (full-scale chunks, symmetric network, roofline
  compute).  The seed only permutes the order of each pass.
* ``fidelity-32`` — the small-scale rung of the ``auto`` fidelity ladder:
  ACE at 32 NPUs with ``backend="auto"`` and ``compute="auto"`` (detailed
  per-link network, execution-unit compute), one training iteration each,
  for the three built-in workloads and two shipped traces.  The seed only
  permutes the order.
* ``sweep-daemon`` — cheap network-drive specs from a fixed universe: the
  seed picks the primed (cache-hit) population, the order of never-seen
  specs, and the order of requests inside each block.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Iterator, List, Sequence, Tuple

from repro.runner import SimJob, network_drive_job, trace_job, training_job
from repro.scenarios import find_scenario, scenario_jobs
from repro.units import KB, MB

INLINE_WORKLOADS = ("paper-grid-64", "fidelity-32")

PAPER_GRID_NPUS = 64
FIDELITY_NPUS = 32
FIDELITY_WORKLOADS = ("resnet50", "gnmt", "dlrm")
FIDELITY_TRACES = ("moe-transformer", "dlrm-micro")
#: One iteration halves a pass, so a run fits several passes.
FIDELITY_ITERATIONS = 1

#: Network-drive universe the daemon's requests are drawn from.  It is
#: fixed (seed-independent) so that references can be recorded for every
#: spec a run may send.
DRIVE_SYSTEMS = ("baseline_no_overlap", "baseline_comm_opt", "baseline_comp_opt", "ace", "ideal")
DRIVE_OPS = ("all_reduce", "reduce_scatter", "all_gather", "all_to_all")
DRIVE_TOPOLOGIES = ((4, 2, 2), (2, 4, 2))
DRIVE_PAYLOADS = tuple(16 * MB + step * 512 * KB for step in range(32))
DRIVE_CHUNK_BYTES = 64 * KB

#: Daemon request blocks: each block holds exactly this many requests, of
#: which ``BLOCK_MISSES`` are never-seen specs and the rest repeat the
#: primed population.
PRIMED_SPECS = 32
BLOCK_REQUESTS = 100
BLOCK_MISSES = 20


def job_key(job: SimJob) -> str:
    """Version-independent key of a job spec, used for the references."""
    return hashlib.sha256(job.to_json().encode("utf-8")).hexdigest()[:20]


def paper_grid_jobs() -> List[SimJob]:
    """The ``paper-full`` manifest's cells at 64 NPUs, in manifest order."""
    return [
        job
        for job in scenario_jobs(find_scenario("paper-full"))
        if job.num_npus == PAPER_GRID_NPUS
    ]


def fidelity_jobs() -> List[SimJob]:
    """ACE on the auto ladder's small-scale rung, built-ins then traces."""
    options = dict(
        num_npus=FIDELITY_NPUS, backend="auto", compute="auto", iterations=FIDELITY_ITERATIONS
    )
    jobs = [training_job("ace", name, **options) for name in FIDELITY_WORKLOADS]
    jobs += [trace_job("ace", name, **options) for name in FIDELITY_TRACES]
    return jobs


def inline_jobs(workload: str) -> List[SimJob]:
    if workload == "paper-grid-64":
        return paper_grid_jobs()
    if workload == "fidelity-32":
        return fidelity_jobs()
    raise ValueError(f"{workload!r} is not an inline workload")


def drive_universe() -> List[SimJob]:
    """Every network-drive spec the daemon workload can request."""
    return [
        network_drive_job(
            system,
            payload,
            topology=topology,
            chunk_bytes=DRIVE_CHUNK_BYTES,
            op=op,
        )
        for system, op, topology, payload in itertools.product(
            DRIVE_SYSTEMS, DRIVE_OPS, DRIVE_TOPOLOGIES, DRIVE_PAYLOADS
        )
    ]


class DaemonRequests:
    """Seeded request generator for the daemon's closed loop.

    ``primed`` is cached during set-up; :meth:`block` returns the k-th block
    of request specs, each block a seeded shuffle of ``BLOCK_REQUESTS -
    BLOCK_MISSES`` repeats of primed specs and ``BLOCK_MISSES`` specs never
    requested before in the run.
    """

    def __init__(self, seed: int, universe: Sequence[SimJob]) -> None:
        self._rng = random.Random(seed)
        order = list(universe)
        self._rng.shuffle(order)
        self.primed = order[:PRIMED_SPECS]
        self._fresh: Iterator[SimJob] = iter(order[PRIMED_SPECS:])
        #: Blocks the universe can supply before specs would repeat.
        self.max_blocks = (len(order) - PRIMED_SPECS) // BLOCK_MISSES

    def block(self) -> List[Tuple[SimJob, bool]]:
        """The next block as ``(job, never_seen)`` pairs."""
        hits = [
            (self._rng.choice(self.primed), False)
            for _ in range(BLOCK_REQUESTS - BLOCK_MISSES)
        ]
        misses = [(next(self._fresh), True) for _ in range(BLOCK_MISSES)]
        requests = hits + misses
        self._rng.shuffle(requests)
        return requests
