"""The sweep daemon: warm worker pool + single-flight dedup + shared cache.

:class:`SweepService` is the engine, independent of any transport:

* **Warm worker pool** — a ``ProcessPoolExecutor`` created once at
  :meth:`~SweepService.start`, whose workers pre-import the simulator
  (:func:`repro.runner.pool.warm_worker`).  Every batch after the first
  runs at pure simulation cost; nothing re-spawns or re-imports per
  request.
* **Single-flight table** — a ``spec_hash -> Future`` map under one lock.
  A job whose hash is already executing *attaches* to the in-flight future
  instead of re-simulating, so two concurrent clients submitting
  overlapping sweeps simulate each unique spec exactly once.  The
  completion path stores the result in the cache *before* removing the
  table entry (the store outside the lock, the removal under it), so
  there is no window in which a third request would find neither.
* **Shared cache** — a :class:`~repro.runner.ResultCache` (shard-aware on
  disk, write-through in memory) consulted before the table; a daemon with
  a persistent ``REPRO_CACHE_DIR`` serves repeat sweeps without touching
  the pool at all.

:class:`ServiceServer` wraps the engine in a threaded localhost TCP server
speaking the :mod:`repro.service.protocol` line protocol; each client
connection is handled on its own thread, which is what lets concurrent
requests meet in the single-flight table.  :func:`serve` is the blocking
entry point behind ``python -m repro serve``.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import socketserver
import threading
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError, ServiceError
from repro.runner.cache import ResultCache, cache_from_env
from repro.runner.job import SimJob
from repro.runner.pool import _execute_payload, _resolve_workers, warm_worker
from repro.service.protocol import (
    PROTOCOL_VERSION,
    daemon_address_from_env,
    error_response,
    recv_message,
    send_message,
)

#: Type of a worker result: ("ok", encoded_payload, seconds) or
#: ("error", traceback_text, seconds) — the runner's wire triple.
ExecResult = Tuple[str, object, float]


@dataclass
class ServiceStats:
    """Lifetime counters for one :class:`SweepService`."""

    requests: int = 0
    jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    singleflight_hits: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Counters plus the derived single-flight dedup rate.

        ``dedup_rate`` is the fraction of submitted jobs that attached to an
        already-in-flight execution instead of simulating — the quantity the
        acceptance benchmark reports and the service tests assert on.
        """
        return {
            "requests": self.requests,
            "jobs": self.jobs,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "singleflight_hits": self.singleflight_hits,
            "errors": self.errors,
            "dedup_rate": self.singleflight_hits / self.jobs if self.jobs else 0.0,
        }


class SweepService:
    """Execute SimJob batches on a persistent pool with single-flight dedup.

    ``mode="process"`` (the default) runs jobs on a warm
    ``ProcessPoolExecutor``; ``mode="thread"`` uses threads in-process —
    cheaper to start, used by the test suite and by benchmarks that measure
    the dedup/caching layers rather than raw simulation throughput.
    ``execute_fn`` (tests only) replaces the job-execution function so
    single-flight races can be orchestrated deterministically; it forces
    thread mode, since an arbitrary callable may not be picklable.
    """

    def __init__(
        self,
        workers: Union[int, str, None] = "auto",
        cache: Optional[ResultCache] = None,
        mode: str = "process",
        mp_start_method: Optional[str] = None,
        execute_fn: Optional[Callable[[str], ExecResult]] = None,
    ) -> None:
        if mode not in ("process", "thread"):
            raise ServiceError(f"unknown service mode {mode!r}; expected 'process' or 'thread'")
        self.workers = _resolve_workers(workers)
        self.cache = cache if cache is not None else cache_from_env()
        self.mode = "thread" if execute_fn is not None else mode
        self.mp_start_method = mp_start_method
        self._execute_fn = execute_fn or _execute_payload
        self._executor: Optional[concurrent.futures.Executor] = None
        self._inflight: Dict[str, concurrent.futures.Future] = {}
        # Reentrant: a fast job's completion callback can run synchronously
        # inside _submit (add_done_callback on an already-done future), i.e.
        # on a thread that already holds the lock.
        self._lock = threading.RLock()
        self._stats = ServiceStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SweepService":
        """Create the warm pool now (idempotent) and return ``self``.

        Called eagerly by :func:`serve` so the daemon is warm before the
        first request arrives; :meth:`run_jobs` also calls it lazily.
        """
        if self._executor is None:
            if self.mode == "process":
                context = multiprocessing.get_context(self.mp_start_method)
                self._executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=context,
                    initializer=warm_worker,
                )
            else:
                self._executor = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="sweep-service",
                )
        return self

    def close(self) -> None:
        """Shut the pool down (idempotent); in-flight jobs are completed."""
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True)

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_jobs(self, jobs: Sequence[SimJob]) -> List[Dict[str, object]]:
        """Execute a batch and return index-aligned wire outcome dicts.

        Each outcome carries ``status`` ("ok"/"error"), the encoded
        ``payload`` (or traceback text), ``spec_hash``, ``duration_s``, and
        the provenance flags ``from_cache`` / ``deduplicated``.  Identical
        specs — within this batch or across concurrent batches — are
        simulated once: later arrivals attach to the in-flight future.
        """
        self.start()
        outcomes: List[Optional[Dict[str, object]]] = [None] * len(jobs)
        waits: List[Tuple[int, str, concurrent.futures.Future, bool]] = []
        with self._lock:
            self._stats.requests += 1
        for index, job in enumerate(jobs):
            key = self.cache.key_for(job)
            with self._lock:
                self._stats.jobs += 1
                payload = self.cache.lookup(job, key=key)
                if payload is not None:
                    self._stats.cache_hits += 1
                    outcomes[index] = {
                        "status": "ok",
                        "payload": payload,
                        "spec_hash": key,
                        "duration_s": 0.0,
                        "from_cache": True,
                        "deduplicated": False,
                    }
                    continue
                future = self._inflight.get(key)
                if future is not None:
                    self._stats.singleflight_hits += 1
                    deduplicated = True
                else:
                    self._stats.executed += 1
                    future = self._submit(job, key)
                    deduplicated = False
            waits.append((index, key, future, deduplicated))
        for index, key, future, deduplicated in waits:
            status, payload, duration = future.result()
            outcomes[index] = {
                "status": status,
                "payload": payload,
                "spec_hash": key,
                "duration_s": duration,
                "from_cache": False,
                "deduplicated": deduplicated,
            }
        return outcomes  # type: ignore[return-value]

    def _submit(self, job: SimJob, key: str) -> concurrent.futures.Future:
        """Dispatch one unique job to the pool; returns the attachable future.

        Called with the lock held.  The returned future resolves to the wire
        triple *after* the completion bookkeeping ran.  Completion stores
        the result in the cache *before* it drops the single-flight entry,
        so a request always observes the key in at least one of cache /
        in-flight table (briefly in both).  The store runs outside the lock:
        a disk write must not stall the cached hits every request serves
        under it.

        A ``submit`` that raises (e.g. a broken pool) registers nothing and
        resolves to the job's ``"error"`` outcome, so a retry of the same
        spec submits afresh instead of attaching to a future that never
        completes.
        """
        assert self._executor is not None
        done: concurrent.futures.Future = concurrent.futures.Future()

        def _complete(finished: concurrent.futures.Future) -> None:
            try:
                status, payload, duration = finished.result()
            except Exception:
                # A worker died (e.g. BrokenProcessPool) — surface it as a
                # per-job error outcome rather than poisoning the service.
                status, payload, duration = "error", traceback.format_exc(), 0.0
            if status == "ok":
                self.cache.store(job, payload, key=key)
            with self._lock:
                if status != "ok":
                    self._stats.errors += 1
                self._inflight.pop(key, None)
            done.set_result((status, payload, duration))

        try:
            raw = self._executor.submit(self._execute_fn, job.to_json())
        except Exception:
            self._stats.errors += 1
            done.set_result(("error", traceback.format_exc(), 0.0))
            return done
        # Register after submit succeeded but before the callback is
        # attached: a job that already finished runs _complete synchronously
        # inside add_done_callback, and it must find (and pop) this entry.
        self._inflight[key] = done
        raw.add_done_callback(_complete)
        return done

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Service counters plus the shared cache's counters."""
        with self._lock:
            payload = self._stats.as_dict()
            payload["inflight"] = len(self._inflight)
            payload["workers"] = self.workers
            payload["mode"] = self.mode
            payload["cache"] = self.cache.stats
        return payload


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------


class _RequestHandler(socketserver.StreamRequestHandler):
    """One client connection: a loop of request line -> response line."""

    def handle(self) -> None:  # noqa: D102 - socketserver hook
        while True:
            try:
                request = recv_message(self.rfile)
            except ServiceError as exc:
                send_message(self.connection, error_response(str(exc)))
                return
            if request is None:
                return
            response = self.server.dispatch(request)  # type: ignore[attr-defined]
            try:
                send_message(self.connection, response)
            except OSError:
                return  # client went away mid-response
            if request.get("op") == "shutdown":
                return


class ServiceServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front end for a :class:`SweepService`.

    Each connection runs on its own thread, so concurrent clients reach
    :meth:`SweepService.run_jobs` concurrently and meet in the single-flight
    table.  Bind to port 0 to let the OS pick a free port (tests do);
    :attr:`address` reports the bound address either way.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        service: SweepService,
        host: Optional[str] = None,
        port: Optional[int] = None,
    ) -> None:
        host, port = daemon_address_from_env(host, port)
        self.service = service
        super().__init__((host, port), _RequestHandler)

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port) pair."""
        return self.server_address[0], self.server_address[1]

    def start_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (for tests/benchmarks)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop the accept loop, close the socket, and shut the pool down."""
        self.shutdown()
        self.server_close()
        self.service.close()

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        """Route one protocol request to the service; never raises."""
        version = request.get("v", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            return error_response(
                f"protocol version mismatch: client speaks {version!r}, "
                f"server speaks {PROTOCOL_VERSION}"
            )
        op = request.get("op")
        try:
            if op == "ping":
                import repro

                return {
                    "ok": True,
                    "server": {
                        "package_version": repro.__version__,
                        "protocol": PROTOCOL_VERSION,
                        "pid": os.getpid(),
                        "workers": self.service.workers,
                        "mode": self.service.mode,
                    },
                }
            if op == "run_jobs":
                specs = request.get("jobs")
                if not isinstance(specs, list):
                    return error_response("run_jobs needs a 'jobs' list of job specs")
                jobs = [SimJob.from_dict(spec) for spec in specs]
                return {"ok": True, "outcomes": self.service.run_jobs(jobs)}
            if op == "stats":
                return {"ok": True, "stats": self.service.stats()}
            if op == "shutdown":
                threading.Thread(target=self.shutdown, daemon=True).start()
                return {"ok": True, "stopping": True}
            return error_response(f"unknown op {op!r}")
        except ReproError as exc:
            # Bad job specs and other library-level failures poison only this
            # request; simulation errors inside a job travel as outcomes.
            return error_response(str(exc))


def serve(
    host: Optional[str] = None,
    port: Optional[int] = None,
    workers: Union[int, str, None] = "auto",
    cache: Optional[ResultCache] = None,
    mp_start_method: Optional[str] = None,
) -> None:
    """Run the sweep daemon until interrupted (``python -m repro serve``).

    The pool is warmed *before* the socket starts accepting, so even the
    first client request runs at warm-batch latency.
    """
    service = SweepService(
        workers=workers, cache=cache, mp_start_method=mp_start_method
    ).start()
    server = ServiceServer(service, host=host, port=port)
    bound_host, bound_port = server.address
    where = (
        f"{service.cache.directory}" if service.cache.directory is not None else "memory"
    )
    print(
        f"sweep daemon listening on {bound_host}:{bound_port} "
        f"({service.workers} warm worker(s), cache: {where})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
        stats = service.stats()
        print(
            f"sweep daemon stopped: {stats['requests']} request(s), "
            f"{stats['jobs']} job(s), {stats['executed']} executed, "
            f"{stats['cache_hits']} cache hit(s), "
            f"{stats['singleflight_hits']} single-flight hit(s)",
            flush=True,
        )
