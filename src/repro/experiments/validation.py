"""Paired model-validation sweeps over either model axis of a job spec.

The paper validates its fast symmetric-node network model against a
detailed per-link simulation on small systems, then sweeps at scale with
the fast model.  This harness is the repo's analogue of that methodology,
applied to whichever model axis a comparison declares:

* ``backends`` — network models, on training and network-drive cells of at
  most 32 NPUs (the detailed model is the validation vehicle and is only
  affordable on small systems), within 5 %.
  ``scenarios/backend-validation.json`` pairs ``symmetric`` with
  ``detailed``; ``scenarios/hybrid-scale.json`` bounds ``hybrid`` against
  ``detailed`` the same way.
* ``computes`` — kernel-timing models, on paper-scale training cells
  (network-drive jobs have no compute model), within 10 %.
  ``scenarios/compute-validation.json`` pairs ``roofline`` with
  ``execution-unit``; the execution-unit model's occupancy derate and
  exposed DMA fill/drain are pure additions on top of the roofline bounds,
  so that pair's ``slowdown_frac`` must never be negative.

Every cell runs once per side of the pair through one
:class:`~repro.runner.SweepRunner` batch and yields one comparison row.
``a_`` columns belong to the first name of the pair, ``b_`` columns to the
second:

* ``time_rel_err`` — end-to-end time (iteration or collective completion),
  relative to the second model's;
* ``exposed_delta_frac`` — exposed-communication disagreement as a fraction
  of the time.  Exposed communication is a small residual (when compute
  stalls vs when collectives finish), so a sub-percent-of-iteration wiggle
  can be a large fraction of the residual itself without meaning either
  model is wrong: the bound gates it against the big quantity;
* ``exposed_rel_err`` — the residual's own relative error, reported so it
  stays visible but not gated;
* ``slowdown_frac`` — signed ``(b - a) / a`` time difference.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compute.backend import validate_compute_backend_name
from repro.errors import ConfigurationError
from repro.experiments.common import FAST_CHUNK_BYTES
from repro.network.backend import validate_backend_name
from repro.network.topology import topology_from_spec
from repro.runner import SimJob, SweepRunner, default_runner, network_drive_job, training_job
from repro.units import MB

DRIVE_PAYLOAD_BYTES = 8 * MB
DRIVE_CHUNK_BYTES = 1 * MB


@dataclass(frozen=True)
class Axis:
    """What one comparison axis varies, and how its agreement is bounded."""

    #: The :class:`~repro.runner.SimJob` field the two sides of a pair set.
    job_field: str
    #: Rejects an unknown model name with a ConfigurationError.
    validate_name: Callable[[str], object]
    #: Maximum relative disagreement (the model-validation bound).
    tolerance: float
    #: Largest platform a cell may use; ``None`` = no cap.
    max_npus: Optional[int]
    #: Default (workload, num_npus) training cells.
    training_cells: Tuple[Tuple[str, int], ...]
    #: Default (fabric spec, collective op) drive cells; ``None`` = the axis
    #: does not apply to network-drive jobs.
    drive_cells: Optional[Tuple[Tuple[str, str], ...]]


#: The comparison axes, keyed by the sweep axis name a manifest declares.
#: GNMT is validated at 8 NPUs only on the network axis because its
#: detailed-model run is by far the slowest cell.
AXES: Dict[str, Axis] = {
    "backends": Axis(
        job_field="backend",
        validate_name=validate_backend_name,
        tolerance=0.05,
        max_npus=32,
        training_cells=(
            ("resnet50", 8),
            ("resnet50", 16),
            ("resnet50", 32),
            ("dlrm", 8),
            ("dlrm", 16),
            ("gnmt", 8),
        ),
        drive_cells=(
            ("torus:4x2x1", "all_reduce"),
            ("torus:4x2x2", "all_reduce"),
            ("torus:4x4x2", "all_reduce"),
            ("torus:4x2x2", "all_to_all"),
            ("switch:16", "all_reduce"),
            ("fc:16", "all_reduce"),
        ),
    ),
    "computes": Axis(
        job_field="compute",
        validate_name=validate_compute_backend_name,
        tolerance=0.10,
        max_npus=None,
        training_cells=(
            ("resnet50", 8),
            ("resnet50", 16),
            ("resnet50", 32),
            ("dlrm", 8),
            ("dlrm", 16),
            ("gnmt", 8),
            ("gnmt", 16),
        ),
        drive_cells=None,
    ),
}


def _resolve_pair(
    backends: Optional[Sequence[str]], computes: Optional[Sequence[str]]
) -> Tuple[Axis, Tuple[str, str]]:
    """The declared axis and its validated pair of two distinct names."""
    declared = [
        (name, pair)
        for name, pair in (("backends", backends), ("computes", computes))
        if pair is not None
    ]
    if len(declared) != 1:
        raise ConfigurationError(
            f"a comparison declares exactly one of {sorted(AXES)}, "
            f"got {[name for name, _ in declared]}"
        )
    name, pair = declared[0]
    pair = tuple(str(model) for model in pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ConfigurationError(
            f"{name} comparison needs exactly two distinct names, got {pair!r}"
        )
    axis = AXES[name]
    for model in pair:
        axis.validate_name(model)
    return axis, pair


def _check_size(axis: Axis, num_npus: int, cell: str) -> None:
    if axis.max_npus is not None and num_npus > axis.max_npus:
        raise ConfigurationError(
            f"{axis.job_field} comparisons are defined for <= {axis.max_npus} NPUs, "
            f"got a {num_npus}-NPU cell {cell}"
        )


def comparison_jobs(
    system: str = "ace",
    backends: Optional[Sequence[str]] = None,
    computes: Optional[Sequence[str]] = None,
    training_cells: Optional[Sequence[Tuple[str, int]]] = None,
    drive_cells: Optional[Sequence[Tuple[str, str]]] = None,
    iterations: int = 2,
) -> List[SimJob]:
    """Paired job specs: each cell once per side of the pair, first side first.

    Exactly one of ``backends`` / ``computes`` names the pair.  Omitted cell
    lists default to the axis's cells (:data:`AXES`).  Cells larger than the
    axis's NPU cap, and drive cells on an axis without them, are rejected up
    front with a ConfigurationError.
    """
    axis, pair = _resolve_pair(backends, computes)
    if training_cells is None:
        training_cells = axis.training_cells
    if drive_cells is None:
        drive_cells = axis.drive_cells or ()
    elif drive_cells and axis.drive_cells is None:
        raise ConfigurationError(
            f"{axis.job_field} comparisons take training cells only: "
            f"network-drive jobs have no {axis.job_field} model"
        )
    jobs: List[SimJob] = []
    for workload, num_npus in training_cells:
        _check_size(axis, num_npus, f"for {workload!r}")
        for model in pair:
            jobs.append(
                training_job(
                    system,
                    workload,
                    num_npus=num_npus,
                    iterations=iterations,
                    chunk_bytes=FAST_CHUNK_BYTES.get(workload),
                    **{axis.job_field: model},
                )
            )
    for fabric, op in drive_cells:
        _check_size(axis, topology_from_spec(fabric).num_nodes, f"on {fabric!r}")
        for model in pair:
            jobs.append(
                network_drive_job(
                    system,
                    DRIVE_PAYLOAD_BYTES,
                    fabric=fabric,
                    chunk_bytes=DRIVE_CHUNK_BYTES,
                    op=op,
                    **{axis.job_field: model},
                )
            )
    return jobs


def _row(job: SimJob, pair: Tuple[str, str], a, b) -> Dict[str, object]:
    """One comparison row for ``job``'s cell from its two results."""
    if job.kind == "training":
        cell = f"{job.workload}@{job.num_npus}"
        ta, tb = a.total_time_ns, b.total_time_ns
        ea, eb = a.exposed_comm_ns, b.exposed_comm_ns
        ca, cb = a.total_compute_ns, b.total_compute_ns
    else:
        # A lone collective is all exposed communication and no compute.
        cell = f"{job.op}@{job.fabric}"
        ta, tb = a.duration_ns, b.duration_ns
        ea, eb = ta, tb
        ca = cb = 0.0
    return {
        "kind": job.kind,
        "cell": cell,
        "system": job.system,
        "a": pair[0],
        "b": pair[1],
        "a_time_us": ta / 1e3,
        "b_time_us": tb / 1e3,
        "a_exposed_us": ea / 1e3,
        "b_exposed_us": eb / 1e3,
        "a_compute_us": ca / 1e3,
        "b_compute_us": cb / 1e3,
        "time_rel_err": abs(ta - tb) / max(tb, 1e-9),
        "exposed_delta_frac": abs(ea - eb) / max(ta, tb, 1e-9),
        "exposed_rel_err": abs(ea - eb) / max(ea, eb, 1e-9),
        "slowdown_frac": (tb - ta) / max(ta, 1e-9),
    }


def run_comparison(
    system: str = "ace",
    backends: Optional[Sequence[str]] = None,
    computes: Optional[Sequence[str]] = None,
    training_cells: Optional[Sequence[Tuple[str, int]]] = None,
    drive_cells: Optional[Sequence[Tuple[str, str]]] = None,
    iterations: int = 2,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """Run every cell on both sides of the pair; one comparison row per cell.

    Arguments are those of :func:`comparison_jobs`; ``runner`` defaults to
    :func:`~repro.runner.default_runner`.
    """
    jobs = comparison_jobs(
        system=system,
        backends=backends,
        computes=computes,
        training_cells=training_cells,
        drive_cells=drive_cells,
        iterations=iterations,
    )
    pair = _resolve_pair(backends, computes)[1]
    results = (runner or default_runner()).run_values(jobs)
    return [
        _row(jobs[index], pair, results[index], results[index + 1])
        for index in range(0, len(jobs), 2)
    ]


def max_disagreement(rows: Sequence[Dict[str, object]]) -> float:
    """The largest agreement metric across all rows (what the bound gates)."""
    return max(max(float(row["time_rel_err"]), float(row["exposed_delta_frac"])) for row in rows)


def min_slowdown(rows: Sequence[Dict[str, object]]) -> float:
    """The most negative signed slowdown of the second model over the first."""
    return min(float(row["slowdown_frac"]) for row in rows)


def main(argv: Optional[Sequence[str]] = None) -> None:  # pragma: no cover - CLI entry point
    """Print one comparison's table and its worst-case disagreement."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    for name in AXES:
        group.add_argument(f"--{name}", nargs=2, metavar=("A", "B"), help=f"compare two {name}")
    args = parser.parse_args(argv)
    rows = run_comparison(backends=args.backends, computes=args.computes)
    tolerance = AXES["backends" if args.backends else "computes"].tolerance
    header = (
        "kind",
        "cell",
        "a_time_us",
        "b_time_us",
        "a_exposed_us",
        "b_exposed_us",
        "time_rel_err",
        "exposed_delta_frac",
        "slowdown_frac",
    )

    def fmt(row, key):
        value = row[key]
        return f"{value:.4f}" if isinstance(value, float) else str(value)

    widths = {h: max(len(h), *(len(fmt(r, h)) for r in rows)) for h in header}
    print(f"a = {rows[0]['a']}, b = {rows[0]['b']}")
    print("  ".join(h.ljust(widths[h]) for h in header))
    for row in rows:
        print("  ".join(fmt(row, h).ljust(widths[h]) for h in header))
    worst = max_disagreement(rows)
    print()
    print(
        f"worst-case disagreement: {worst:.4f} "
        f"({'within' if worst <= tolerance else 'OUTSIDE'} the "
        f"{tolerance:.0%} validation tolerance); "
        f"min slowdown of b over a: {min_slowdown(rows):+.4f}"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
