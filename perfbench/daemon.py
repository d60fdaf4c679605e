"""The ``sweep-daemon`` workload: a warm daemon under a closed loop.

An in-process :class:`~repro.service.SweepService` behind a
:class:`~repro.service.ServiceServer` on localhost, with a spawn-started
pool and a fresh disk cache primed during set-up.  Requests come in
blocks; in a block, ``CLIENTS`` client threads each send single-job
``run_jobs`` requests through their own :class:`~repro.service.ServiceClient`,
one at a time (closed loop: a client's next request leaves only after its
previous reply arrived).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.runner import ResultCache, SimJob
from repro.runner.serialization import decode_result
from repro.service import ServiceClient, ServiceServer, SweepService
from check import mismatch
from hostspeed import HostSpeed
from workloads import BLOCK_REQUESTS, DaemonRequests

CLIENTS = 2
WORKERS = max(1, min(2, os.cpu_count() or 1))
HOST = "127.0.0.1"
#: How long a block waits for its last replies.
JOIN_GRACE_S = 60.0


class Daemon:
    """A started service, its server thread and a client for admin calls."""

    def __init__(self, cache_dir: Path) -> None:
        self.service = SweepService(
            workers=WORKERS, cache=ResultCache(cache_dir), mp_start_method="spawn"
        ).start()
        self.server = ServiceServer(self.service, host=HOST, port=0)
        self.thread = self.server.start_background()
        self.host, self.port = self.server.address

    def client(self) -> ServiceClient:
        return ServiceClient(host=self.host, port=self.port)

    def worker_pids(self) -> List[int]:
        return [
            child.pid
            for child in multiprocessing.active_children()
            if child.name != HostSpeed.HELPER_NAME
        ]

    def stop(self) -> None:
        self.server.stop()
        self.thread.join(timeout=30)


def stop_resource_tracker() -> None:
    """Wait for the resource tracker the spawn pool started.

    The tracker would otherwise exit only after this process does; stopping
    it here means no process the run started outlives it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def prime(daemon: Daemon, jobs: List[SimJob], references) -> int:
    """Simulate and cache the primed population; returns failed jobs."""
    outcomes = daemon.client().run_jobs([job.to_dict() for job in jobs])
    failed = 0
    for job, outcome in zip(jobs, outcomes):
        if outcome["status"] != "ok" or mismatch(
            references, job, decode_result(outcome["payload"])
        ):
            failed += 1
    return failed


@dataclass
class LoopResult:
    """What the closed loop observed, per request class.

    Times are scaled to reference host speed (``hostspeed.py``), except
    ``raw_wall_s``.
    """

    #: Seconds the blocks took, without the host-speed samples between them.
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    blocks: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    hit_s: List[float] = field(default_factory=list)
    miss_s: List[float] = field(default_factory=list)
    #: Client latency minus the worker's own ``duration_s``, per miss.
    queue_wait_s: List[float] = field(default_factory=list)
    #: Σ worker ``duration_s`` of the misses.
    execute_s: float = 0.0
    #: Client latency minus the server's dispatch span, per request
    #: (filled only when :class:`DispatchLog` is installed).
    transport_s: List[float] = field(default_factory=list)

    def add(self, block: "LoopResult", scale: float) -> None:
        """Adds one unscaled block, scaling its times by ``scale``."""
        self.wall_s += scale * block.wall_s
        self.raw_wall_s += block.wall_s
        self.blocks += block.blocks
        self.attempted += block.attempted
        self.failed += block.failed
        self.errors += block.errors
        self.execute_s += scale * block.execute_s
        for name in ("hit_s", "miss_s", "queue_wait_s", "transport_s"):
            getattr(self, name).extend(scale * value for value in getattr(block, name))


class DispatchLog:
    """Records each ``ServiceServer.dispatch`` duration by request spec."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: Dict[str, Deque[float]] = defaultdict(deque)
        self._original: Optional[Callable] = None

    @staticmethod
    def key(spec: Dict[str, object]) -> str:
        return json.dumps(spec, sort_keys=True)

    def install(self) -> None:
        original = ServiceServer.__dict__["dispatch"]
        self._original = original
        log = self

        def dispatch(server, request):
            start = time.perf_counter()
            response = original(server, request)
            elapsed = time.perf_counter() - start
            jobs = request.get("jobs")
            if isinstance(jobs, list) and len(jobs) == 1:
                with log._lock:
                    log._spans[log.key(jobs[0])].append(elapsed)
            return response

        ServiceServer.dispatch = dispatch

    def uninstall(self) -> None:
        if self._original is not None:
            ServiceServer.dispatch = self._original
            self._original = None

    def pop(self, spec: Dict[str, object]) -> Optional[float]:
        with self._lock:
            spans = self._spans.get(self.key(spec))
            return spans.popleft() if spans else None


def closed_loop(
    daemon: Daemon,
    requests: DaemonRequests,
    references,
    seconds: float,
    speed: HostSpeed,
    dispatch_log: Optional[DispatchLog] = None,
) -> LoopResult:
    """Run whole request blocks, one after another, for about ``seconds``.

    A new block starts only while time remains and the universe still has
    never-seen specs.  The host speed is sampled between blocks, while the
    daemon is idle, and each block's times are scaled by the samples on
    either side of it.
    """
    result = LoopResult()
    deadline = time.perf_counter() + seconds
    before = speed.sample()
    while time.perf_counter() < deadline and result.blocks < requests.max_blocks:
        block = run_block(daemon, requests.block(), references, dispatch_log)
        after = speed.sample()
        result.add(block, speed.scale(before, after))
        before = after
    return result


def run_block(
    daemon: Daemon,
    block: List[Tuple[SimJob, bool]],
    references,
    dispatch_log: Optional[DispatchLog],
) -> LoopResult:
    """One block from ``CLIENTS`` closed-loop threads; times are unscaled.

    Replies are verified after the block, so verification does not compete
    with the daemon's threads, which share this process, while requests
    are timed.
    """
    result = LoopResult(blocks=1)
    lock = threading.Lock()
    pending: Deque[Tuple[SimJob, bool, dict]] = deque(
        (job, never_seen, job.to_dict()) for job, never_seen in block
    )
    replies: list = []

    def next_request() -> Optional[Tuple[SimJob, bool, dict]]:
        with lock:
            return pending.popleft() if pending else None

    def client_thread() -> None:
        client = daemon.client()
        while True:
            request = next_request()
            if request is None:
                return
            job, never_seen, spec = request
            sent = time.perf_counter()
            try:
                outcome = client.run_jobs([spec])[0]
            except Exception as exc:  # counted as a failed request
                outcome = {"status": "error", "payload": repr(exc)}
            latency = time.perf_counter() - sent
            span = dispatch_log.pop(spec) if dispatch_log is not None else None
            with lock:
                replies.append((job, never_seen, latency, span, outcome))

    start = time.perf_counter()
    threads = [threading.Thread(target=client_thread, daemon=True) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_GRACE_S)
        if thread.is_alive():
            raise RuntimeError("a client thread is stuck on a daemon request")
    result.wall_s = time.perf_counter() - start
    if len(replies) != BLOCK_REQUESTS:
        raise RuntimeError(f"{len(replies)} replies in a block of {BLOCK_REQUESTS}")

    for job, never_seen, latency, span, outcome in replies:
        result.attempted += 1
        if outcome["status"] != "ok":
            problem = f"{job.to_json()}: {outcome['payload']}"
        elif outcome["from_cache"] == never_seen:
            problem = f"{job.to_json()}: from_cache={outcome['from_cache']} for never_seen={never_seen}"
        else:
            problem = mismatch(references, job, decode_result(outcome["payload"]))
        if problem is not None:
            result.failed += 1
            result.errors.append(problem)
            continue
        if never_seen:
            result.miss_s.append(latency)
            result.queue_wait_s.append(latency - outcome["duration_s"])
            result.execute_s += outcome["duration_s"]
        else:
            result.hit_s.append(latency)
        if span is not None:
            result.transport_s.append(latency - span)
    return result
