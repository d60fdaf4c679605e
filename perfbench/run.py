#!/usr/bin/env python3
"""Repository benchmark of the ACE co-simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid-64 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``
with no instrumentation; ``--trace 1`` runs the same workload with spans
around every layer (see ``tracing.py``) and reports the per-layer metrics,
the tracing overhead and how much of the traced time the layers account
for.  Every time is scaled to a reference host speed with the probe in
``hostspeed.py``.  Every simulated output is compared exactly with
``references.json``.
Human-readable tables go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from hostspeed import REFERENCE_PROBE_S, HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 7
#: The daemon's set-up (pool start and priming) takes seconds, so fewer.
DAEMON_SETUP_REPEATS = 5
#: Each reported tail percentile keeps at least this many samples beyond it.
TAIL_SAMPLES = 10
#: An untraced inline run makes at least this many simulated passes.
MIN_PASSES = 2
#: Seconds of cache hits served after each simulated pass of an inline
#: workload (whole rounds, one hit per job each).
INLINE_HIT_PHASE_S = 1.5
#: Clock of the inline workloads' simulated jobs: CPU seconds of this
#: process, so time the host gives to other guests is left out.  The jobs
#: are single-threaded and do no I/O, so it is their wall time otherwise.
#: Each job is then scaled to reference host speed (``hostspeed.py``).
JOB_CLOCK = time.process_time

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import repro.runner, repro.scenarios, repro.service; "
    "print(time.perf_counter() - t)"
)


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_per_key(samples: Sequence[Dict[int, float]]) -> Dict[int, float]:
    """Each key's median value over samples keyed by job index."""
    values: Dict[int, List[float]] = {}
    for sample in samples:
        for index, seconds in sample.items():
            values.setdefault(index, []).append(seconds)
    return {index: statistics.median(seconds) for index, seconds in values.items()}


def import_seconds() -> float:
    """Import time of the simulator's public packages in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def peak_rss_mb(child_pids: Sequence[int] = ()) -> float:
    """Peak resident memory of this process plus the given live children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            total_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return total_kb / 1024.0


@dataclass
class Report:
    """Values, units and sample counts for one run."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    values: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.values[name] = value
        self.samples[name] = samples

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.errors.append(problem)

    def latency(self, prefix: str, seconds: List[float], samples: int) -> None:
        """p50 and p95 in ms of ``seconds``, taken from ``samples`` timings.

        p95 wants ``TAIL_SAMPLES`` values beyond it.
        """
        if len(seconds) < 20 * TAIL_SAMPLES:
            self.notes.append(
                f"{prefix}_ms_p95 is over {len(seconds)} values, fewer than "
                f"{20 * TAIL_SAMPLES} for {TAIL_SAMPLES} beyond it"
            )
        self.put(f"{prefix}_ms_p50", 1e3 * percentile(seconds, 50), samples)
        self.put(f"{prefix}_ms_p95", 1e3 * percentile(seconds, 95), samples)


# ---------------------------------------------------------------------------
# Inline workloads (paper-grid-64, fidelity-32)
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    #: CPU seconds spent inside ``SimJob.execute`` over the pass.
    cpu_s: float
    #: The same, scaled to reference host speed.
    wall_s: float
    #: Scaled seconds of each verified job, by its index in the job set.
    job_s: Dict[int, float]
    results: list


class HitPath:
    """Serves the inline job set from a primed disk cache, in phases.

    The cache is primed with the recorded encoded result of every job
    (``hit_payloads.json``).  A phase is ``INLINE_HIT_PHASE_S`` seconds of
    whole rounds, each serving every job once in a seeded order through
    ``SweepRunner`` with a fresh runner and cache object (as a re-run in a
    new process would see it), so every hit reads and decodes the on-disk
    entry.  Phases run between simulated passes, never inside one; every
    hit is verified off the clock, and a phase's times are scaled by the
    host speed sampled before and after it.
    """

    def __init__(self, cache_dir: Path, jobs, rng, references, report: Report, speed: HostSpeed) -> None:
        from check import load_hit_payloads
        from repro.runner import ResultCache
        from workloads import job_key

        payloads = load_hit_payloads()
        store = ResultCache(cache_dir)
        for job in jobs:
            store.store(job, payloads[job_key(job)])
        self.cache_dir = cache_dir
        self.jobs = jobs
        self.rng = rng
        self.references = references
        self.report = report
        self.speed = speed
        #: One ``{job index: scaled seconds}`` per round.
        self.rounds: List[Dict[int, float]] = []

    def phase(self) -> None:
        from check import mismatch
        from repro.runner import ResultCache, SweepRunner

        before = self.speed.sample()
        rounds: List[Dict[int, float]] = []
        deadline = time.perf_counter() + INLINE_HIT_PHASE_S
        while time.perf_counter() < deadline:
            served: Dict[int, float] = {}
            for index in self.rng.sample(range(len(self.jobs)), len(self.jobs)):
                job = self.jobs[index]
                runner = SweepRunner(workers=1, cache=ResultCache(self.cache_dir))
                began = time.perf_counter()
                outcome = runner.run([job])[0]
                elapsed = time.perf_counter() - began
                self.report.attempted += 1
                if not outcome.ok or not outcome.from_cache:
                    self.report.fail(f"{job.to_json()}: cache hit expected, got {outcome.error!r}")
                    continue
                problem = mismatch(self.references, job, outcome.value)
                if problem is not None:
                    self.report.fail(problem)
                    continue
                served[index] = elapsed
            rounds.append(served)
        scale = self.speed.scale(before, self.speed.sample())
        for served in rounds:
            self.rounds.append({index: scale * s for index, s in served.items()})


def simulate_pass(
    jobs, rng: random.Random, references, report: Report, ordered: bool, speed: HostSpeed
) -> Pass:
    """Execute every job once, in a seeded order, verifying each off the clock.

    Jobs are timed in CPU seconds of this process (``JOB_CLOCK``), each
    scaled by the host speed sampled right before and right after it.
    ``ordered`` also checks Ideal <= ACE <= each baseline over the pass.
    """
    from check import mismatch, ordering_violations

    job_s: Dict[int, float] = {}
    cpu_s = 0.0
    verified = []
    before = speed.sample()
    for index in rng.sample(range(len(jobs)), len(jobs)):
        job = jobs[index]
        report.attempted += 1
        began = JOB_CLOCK()
        try:
            value = job.execute()
        except Exception as exc:  # a failing job is counted, not fatal
            report.fail(f"{job.to_json()}: {exc!r}")
            before = speed.sample()
            continue
        elapsed = JOB_CLOCK() - began
        after = speed.sample()
        scale, before = speed.scale(before, after), after
        problem = mismatch(references, job, value)
        if problem is not None:
            report.fail(problem)
            continue
        cpu_s += elapsed
        job_s[index] = scale * elapsed
        verified.append((job, value))
    if ordered and len(verified) == len(jobs):
        for problem in ordering_violations(verified):
            report.fail(problem)
    return Pass(cpu_s, sum(job_s.values()), job_s, verified)


def run_passes(
    jobs, rng, references, report, seconds: float, ordered: bool, speed: HostSpeed,
    first=None, after_pass=None, least: int = 1,
):
    """Whole passes within about ``seconds`` (at least ``least``), sized by the first.

    ``after_pass()`` runs after every pass.  Only the last pass keeps its
    results, so the live heap, and with it garbage-collection cost, does
    not grow with the number of passes.
    """
    passes = [first or simulate_pass(jobs, rng, references, report, ordered, speed)]
    target = max(least, int(seconds // passes[0].cpu_s))
    while True:
        if after_pass is not None:
            after_pass()
        if len(passes) >= target:
            return passes
        passes[-1].results = []
        passes.append(simulate_pass(jobs, rng, references, report, ordered, speed))


def note_accuracy(last: Pass, report: Report) -> None:
    from check import PAPER_ACE_SPEEDUP, ace_speedups

    speedups = ace_speedups(last.results)
    for workload, paper in PAPER_ACE_SPEEDUP.items():
        report.notes.append(
            f"model accuracy: ACE over best baseline on {workload} = "
            f"{speedups[workload]:.3f}x (paper average {paper:.2f}x)"
        )


def inline_setup(workload: str, speed: HostSpeed) -> Tuple[list, float, List[float]]:
    """Build the job set ``SETUP_REPEATS`` times; returns jobs, median set-up, compile times.

    Times are scaled to reference host speed.
    """
    from workloads import inline_jobs

    totals, compiles = [], []
    before = speed.sample()
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        began = time.perf_counter()
        jobs = inline_jobs(workload)
        compiled = time.perf_counter() - began
        after = speed.sample()
        scale, before = speed.scale(before, after), after
        compiles.append(scale * compiled)
        totals.append(scale * (imported + compiled))
    return jobs, statistics.median(totals), compiles


def run_inline(
    workload: str, seed: int, seconds: float, trace: bool, references, report: Report, workdir: Path
) -> None:
    rng = random.Random(seed)
    ordered = workload == "paper-grid-64"
    speed = HostSpeed()
    jobs, setup_s, compiles = inline_setup(workload, speed)
    gc.collect()
    if not trace:
        hits = HitPath(workdir / "hits", jobs, rng, references, report, speed)
        passes = run_passes(
            jobs, rng, references, report, seconds, ordered, speed,
            after_pass=hits.phase, least=MIN_PASSES,
        )
        if ordered:
            note_accuracy(passes[-1], report)
        miss_s = median_per_key([p.job_s for p in passes])
        hit_s = median_per_key(hits.rounds)
        cpu_s = sum(p.cpu_s for p in passes)
        report.put("setup_s", setup_s, SETUP_REPEATS)
        report.put("jobs_per_s", len(miss_s) / sum(miss_s.values()), sum(len(p.job_s) for p in passes))
        report.latency("hit", list(hit_s.values()), sum(len(r) for r in hits.rounds))
        report.latency("miss", list(miss_s.values()), sum(len(p.job_s) for p in passes))
        report.put("peak_rss_mb", peak_rss_mb())
        report.notes.append(
            f"{len(passes)} pass(es) of {len(jobs)} jobs, {len(hits.rounds)} hit round(s); "
            f"jobs_per_s and the hit and miss percentiles use each job's median scaled time"
        )
        report.notes.append(
            f"host probe median {speed.median_ms():.2f} ms (reference {1e3 * REFERENCE_PROBE_S:g} ms); "
            f"unscaled jobs_per_s {sum(len(p.job_s) for p in passes) / cpu_s:.4g}"
        )
        return

    from tracing import LayerTracer, install_layer_spans

    untraced = simulate_pass(jobs, rng, references, report, ordered, speed)
    untraced.results = []
    tracer = LayerTracer()
    install_layer_spans(tracer)
    try:
        first = simulate_pass(jobs, rng, references, report, ordered, speed)
        passes = run_passes(
            jobs, rng, references, report, max(first.cpu_s, seconds - untraced.cpu_s), ordered,
            speed, first,
        )
    finally:
        tracer.uninstall()
    if ordered:
        note_accuracy(passes[-1], report)
    totals = tracer.totals()
    scale = sum(p.wall_s for p in passes) / sum(p.cpu_s for p in passes)
    layer_metrics(report, totals, len(passes), scale, speed)
    events = report.values["sim.events"]
    traced_wall = sum(p.wall_s for p in passes)
    report.put("sim.host_us_per_event", 1e6 * untraced.wall_s / events if events else 0.0)
    report.put("scenarios.compile_s", statistics.median(compiles) if ordered else 0.0, SETUP_REPEATS)
    report.put("trace.untraced_wall_s", untraced.wall_s)
    report.put("trace.wall_s", traced_wall / len(passes), len(passes))
    report.put("trace.overhead_s", traced_wall / len(passes) - untraced.wall_s, len(passes))
    # Time left in the root span (SimJob.execute) is work no layer span covers.
    root_s = totals.span_s["runner.execute"]
    attributed = sum(totals.self_s.values()) - totals.self_s["runner.execute"]
    report.put("trace.attributed_frac", attributed / root_s, len(passes))
    report.notes.append(
        f"1 untraced + {len(passes)} traced pass(es) of {len(jobs)} jobs; per-layer values are per pass"
    )


def layer_metrics(report: Report, totals, passes: int, scale: float, speed: HostSpeed) -> None:
    """Per-pass counts and self times of the simulation layers.

    Times are multiplied by ``scale``, the traced phase's factor to
    reference host speed.
    """

    def per_pass(value: float) -> float:
        exact = value / passes
        return int(exact) if float(exact).is_integer() else exact

    calls, counts, self_s = totals.calls, totals.counts, totals.self_s
    times = {
        "sim.run_self_s": self_s["sim.run"],
        "training.loop_s": self_s["training.loop"] + self_s["training.issue"],
        "training.init_s": self_s["training.init"],
        "collectives.plan_s": self_s["collectives.plan"],
        "endpoint.self_s": totals.layer_self_s("endpoint"),
        "core.self_s": totals.layer_self_s("core"),
        "memory.self_s": totals.layer_self_s("memory"),
        "network.reserve_s": self_s["network.reserve"],
        "network.transfer_s": self_s["network.transfer"],
        "compute.self_s": self_s["compute.kernel"],
        "traces.load_lower_s": totals.layer_self_s("traces"),
        "workloads.build_s": self_s["workloads.build"],
        "config.build_s": self_s["config.build"],
        "runner.self_s": totals.layer_self_s("runner"),
        "runner.execute_s": totals.span_s["runner.execute"],
        "runner.cache_lookup_s": self_s["runner.lookup"],
        "runner.cache_store_s": self_s["runner.store"],
        "service.run_jobs_s": totals.span_s["service.run_jobs"],
    }
    values = {
        "sim.events": counts["sim.events"],
        "training.collectives": calls["training.issue"],
        "training.chunks": counts["training.chunks"],
        "collectives.plans": calls["collectives.plan"],
        "endpoint.phases": calls["endpoint.phase"],
        "endpoint.chunk_ops": calls["endpoint.chunk"],
        "core.phases": calls["core.phase"],
        "memory.dma_transfers": calls["memory.dma"],
        "network.reserves": calls["network.reserve"],
        "network.transfers": calls["network.transfer"],
        "compute.kernels": calls["compute.kernel"],
        "runner.cache_hits": counts["runner.cache_hits"],
        "runner.cache_misses": counts["runner.cache_misses"],
    }
    values.update({name: scale * value for name, value in times.items()})
    for name, value in values.items():
        report.put(name, per_pass(value), passes)
    report.put("host.probe_ms", speed.median_ms(), len(speed.samples))
    lookups = counts["runner.cache_hits"] + counts["runner.cache_misses"]
    report.put("runner.cache_hit_ratio", counts["runner.cache_hits"] / lookups if lookups else 0.0)
    for name in (
        "service.requests",
        "service.executed",
        "service.singleflight_hits",
        "service.dedup_rate",
        "service.transport_ms_p50",
        "service.queue_wait_ms_p50",
    ):
        report.put(name, 0)


# ---------------------------------------------------------------------------
# sweep-daemon
# ---------------------------------------------------------------------------


def daemon_setup(seed: int, references, report: Report, workdir: Path, speed: HostSpeed):
    """Start, prime and (but for the last) stop the daemon ``DAEMON_SETUP_REPEATS`` times.

    Set-up times are scaled to reference host speed.
    """
    from daemon import Daemon, prime
    from workloads import DaemonRequests, drive_universe

    totals = []
    before = speed.sample()
    for repeat in range(DAEMON_SETUP_REPEATS):
        imported = import_seconds()
        began = time.perf_counter()
        requests = DaemonRequests(seed, drive_universe())
        daemon = Daemon(workdir / f"cache-{repeat}")
        try:
            failed = prime(daemon, requests.primed, references)
        except BaseException:
            daemon.stop()
            raise
        elapsed = imported + time.perf_counter() - began
        after = speed.sample()
        totals.append(speed.scale(before, after) * elapsed)
        before = after
        report.attempted += len(requests.primed)
        for _ in range(failed):
            report.fail("primed job failed or mismatched its reference")
        if repeat + 1 < DAEMON_SETUP_REPEATS:
            daemon.stop()
    return daemon, requests, statistics.median(totals)


def add_loop(report: Report, loop) -> None:
    report.attempted += loop.attempted
    report.failed += loop.failed
    report.errors += loop.errors


def run_daemon(
    seed: int, seconds: float, trace: bool, references, report: Report, workdir: Path
) -> None:
    from daemon import CLIENTS, DispatchLog, closed_loop, stop_resource_tracker

    speed = HostSpeed(cpus=2)
    try:
        daemon, requests, setup_s = daemon_setup(seed, references, report, workdir, speed)
    except BaseException:
        speed.close()
        raise
    try:
        if not trace:
            loop = closed_loop(daemon, requests, references, seconds, speed)
            add_loop(report, loop)
            verified = loop.attempted - loop.failed
            report.put("setup_s", setup_s, DAEMON_SETUP_REPEATS)
            report.put("jobs_per_s", verified / loop.wall_s, verified)
            report.latency("hit", loop.hit_s, len(loop.hit_s))
            report.latency("miss", loop.miss_s, len(loop.miss_s))
            report.put("peak_rss_mb", peak_rss_mb(daemon.worker_pids()))
            report.notes.append(
                f"{loop.blocks} block(s) of 100 requests from {CLIENTS} closed-loop clients"
            )
            report.notes.append(
                f"host probe median {speed.median_ms():.2f} ms (reference {1e3 * REFERENCE_PROBE_S:g} ms); "
                f"unscaled jobs_per_s {verified / loop.raw_wall_s:.4g}"
            )
            return

        from tracing import LayerTracer, install_layer_spans

        untraced = closed_loop(daemon, requests, references, seconds / 2, speed)
        add_loop(report, untraced)
        admin = daemon.client()
        before = admin.stats()
        log = DispatchLog()
        log.install()
        tracer = LayerTracer()
        install_layer_spans(tracer)
        try:
            traced = closed_loop(daemon, requests, references, seconds / 2, speed, log)
        finally:
            tracer.uninstall()
            log.uninstall()
        add_loop(report, traced)
        after = admin.stats()
    finally:
        daemon.stop()
        speed.close()
        stop_resource_tracker()

    totals = tracer.totals()
    blocks = traced.blocks
    scale = traced.wall_s / traced.raw_wall_s
    layer_metrics(report, totals, blocks, scale, speed)
    report.put("runner.execute_s", traced.execute_s / blocks, blocks)
    delta = {key: after[key] - before[key] for key in ("requests", "jobs", "executed", "singleflight_hits")}
    for key in ("requests", "executed", "singleflight_hits"):
        value = delta[key] / blocks
        report.put(f"service.{key}", int(value) if value.is_integer() else value, blocks)
    report.put("service.dedup_rate", delta["singleflight_hits"] / delta["jobs"], delta["jobs"])
    report.put("service.transport_ms_p50", 1e3 * percentile(traced.transport_s, 50), len(traced.transport_s))
    report.put("service.queue_wait_ms_p50", 1e3 * percentile(traced.queue_wait_s, 50), len(traced.queue_wait_s))
    report.put("sim.host_us_per_event", 0.0)
    report.put("scenarios.compile_s", 0.0)
    untraced_block = untraced.wall_s / untraced.blocks
    traced_block = traced.wall_s / blocks
    report.put("trace.untraced_wall_s", untraced_block, untraced.blocks)
    report.put("trace.wall_s", traced_block, blocks)
    report.put("trace.overhead_s", traced_block - untraced_block, blocks)
    # Server-side request handling over what the clients waited; the rest
    # is socket, JSON and client time that no server span covers.
    waited = sum(traced.hit_s) + sum(traced.miss_s)
    report.put("trace.attributed_frac", scale * totals.span_s["service.run_jobs"] / waited, blocks)
    report.notes.append(
        f"{untraced.blocks} untraced + {blocks} traced block(s) of 100 requests; "
        f"per-layer values are per block; simulation layers run in spawned pool "
        f"workers and are not traced here"
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def emit(report: Report, metric_specs: List[Dict[str, str]]) -> Dict[str, object]:
    names = [spec["name"] for spec in metric_specs]
    missing = sorted(set(names) - set(report.values))
    extra = sorted(set(report.values) - set(names))
    if missing or extra:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: missing {missing}, extra {extra}")
    width = max(len(name) for name in names)
    for spec in metric_specs:
        name = spec["name"]
        print(f"  {name:<{width}}  {report.values[name]:>14.6g} {spec['unit']:<8} n={report.samples[name]}")
    failed_frac = report.failed / report.attempted if report.attempted else 1.0
    print(f"  {'failed_frac':<{width}}  {failed_frac:>14.6g} {'ratio':<8} n={report.attempted}")
    for note in report.notes:
        print(f"  note: {note}")
    for problem in report.errors[:5]:
        print(f"  FAILED: {problem}")
    return {
        "correct": report.failed == 0 and report.attempted > 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            spec["name"]: {"value": report.values[spec["name"]], "unit": spec["unit"]}
            for spec in metric_specs
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    from check import load_references
    from workloads import INLINE_WORKLOADS

    references = load_references()
    report = Report()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.workload in INLINE_WORKLOADS:
            run_inline(args.workload, args.seed, args.seconds, bool(args.trace), references, report, workdir)
        else:
            run_daemon(args.seed, args.seconds, bool(args.trace), references, report, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    mode = "per_layer" if args.trace else "end_to_end"
    print(f"{args.workload} seed={args.seed} {mode}:")
    result = emit(report, spec[mode])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
