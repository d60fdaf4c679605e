"""The sweep service: single-flight dedup, socket transport, thin client.

The headline guarantees under test:

* two concurrent requests submitting the same spec hash simulate it exactly
  once — the second attaches to the in-flight future (single-flight), and
  the dedup rate is reported in the service stats,
* daemon-served results are byte-identical to inline execution (same spec
  hashes, same encoded payloads),
* the client's ``--daemon`` fallback semantics: ``off`` never connects,
  ``auto`` falls back inline when no daemon answers, ``require`` raises,
* per-job failures travel as error outcomes; malformed requests fail the
  request without touching the pool.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.runner import (
    ResultCache,
    SimJob,
    SweepRunner,
    encode_result,
    network_drive_job,
    training_job,
)
from repro.service import (
    DaemonRunner,
    ServiceClient,
    ServiceServer,
    SweepService,
    daemon_runner_from_env,
)
from repro.service.protocol import PROTOCOL_VERSION
from repro.units import KB, MB


def small_batch():
    """Two cheap training cells plus one network drive."""
    return [
        training_job("ace", "resnet50", num_npus=8, iterations=1, chunk_bytes=MB),
        training_job("ideal", "resnet50", num_npus=8, iterations=1, chunk_bytes=MB),
        network_drive_job("ace", 4 * MB, topology=(2, 2, 2), chunk_bytes=256 * KB),
    ]


@pytest.fixture()
def live_server():
    """A thread-mode daemon on an OS-assigned port, torn down after the test."""
    service = SweepService(workers=2, cache=ResultCache(), mode="thread")
    server = ServiceServer(service, port=0)
    server.start_background()
    try:
        yield server
    finally:
        server.stop()


def client_for(server: ServiceServer) -> ServiceClient:
    host, port = server.address
    return ServiceClient(host=host, port=port)


# ---------------------------------------------------------------------------
# Single-flight deduplication (deterministic, via an injected executor)
# ---------------------------------------------------------------------------


class TestSingleFlight:
    def test_concurrent_identical_jobs_execute_once(self):
        """The second request attaches to the first's in-flight future."""
        release = threading.Event()
        executions = []

        def slow_execute(payload_json):
            executions.append(payload_json)
            assert release.wait(timeout=30), "test gate never released"
            return ("ok", {"__result__": "json", "value": len(executions)}, 0.01)

        service = SweepService(workers=4, cache=ResultCache(), execute_fn=slow_execute)
        job = network_drive_job("ace", MB, topology=(2, 2, 2))
        results = []

        def submit():
            results.append(service.run_jobs([job]))

        threads = [threading.Thread(target=submit) for _ in range(3)]
        for thread in threads:
            thread.start()
        # Wait until the one real execution is in flight and every other
        # request had a chance to attach to it.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            stats = service.stats()
            if stats["executed"] == 1 and stats["singleflight_hits"] == 2:
                break
            time.sleep(0.01)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        service.close()

        assert len(executions) == 1
        stats = service.stats()
        assert stats["executed"] == 1
        assert stats["singleflight_hits"] == 2
        assert stats["jobs"] == 3
        assert stats["dedup_rate"] == pytest.approx(2 / 3)
        payloads = [outcome[0]["payload"] for outcome in results]
        assert payloads[0] == payloads[1] == payloads[2]
        flags = sorted(outcome[0]["deduplicated"] for outcome in results)
        assert flags == [False, True, True]

    def test_in_batch_duplicates_attach(self):
        service = SweepService(workers=2, cache=ResultCache(), mode="thread")
        job = network_drive_job("ace", MB, topology=(2, 2, 2))
        outcomes = service.run_jobs([job, job, job])
        service.close()
        assert [o["status"] for o in outcomes] == ["ok"] * 3
        stats = service.stats()
        assert stats["executed"] == 1
        # A fast job may finish (and be cached) before the loop reaches its
        # duplicates; either absorption path counts, simulation happened once.
        assert stats["singleflight_hits"] + stats["cache_hits"] == 2
        # All three wire payloads are the same encoded result.
        assert outcomes[0]["payload"] == outcomes[1]["payload"] == outcomes[2]["payload"]

    def test_completed_jobs_are_served_from_cache_not_reexecuted(self):
        service = SweepService(workers=2, cache=ResultCache(), mode="thread")
        job = network_drive_job("ace", MB, topology=(2, 2, 2))
        service.run_jobs([job])
        outcomes = service.run_jobs([job])
        service.close()
        assert outcomes[0]["from_cache"] is True
        stats = service.stats()
        assert stats["executed"] == 1
        assert stats["cache_hits"] == 1

    def test_errors_are_not_cached_and_retry(self):
        service = SweepService(workers=2, cache=ResultCache(), mode="thread")
        bad = training_job("ace", "no_such_workload", num_npus=8, iterations=1)
        first = service.run_jobs([bad])
        second = service.run_jobs([bad])
        service.close()
        assert first[0]["status"] == "error"
        assert "no_such_workload" in str(first[0]["payload"])
        assert second[0]["from_cache"] is False
        stats = service.stats()
        assert stats["errors"] == 2
        assert stats["executed"] == 2  # retried, not served from cache


class _BrokenPool(concurrent.futures.Executor):
    """An executor whose every submit fails the way a dead process pool does."""

    def __init__(self) -> None:
        self.submits = 0

    def submit(self, fn, *args, **kwargs):
        self.submits += 1
        raise BrokenProcessPool("a worker process died")


def _run_in_thread(service, jobs, timeout=30):
    """``service.run_jobs(jobs)``, failing the test instead of hanging."""
    results = []

    def run():
        try:
            results.append(service.run_jobs(jobs))
        except Exception as exc:  # reported below on the test's thread
            results.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "run_jobs blocked"
    assert not isinstance(results[0], Exception), f"run_jobs raised {results[0]!r}"
    return results[0]


class TestFailureBookkeeping:
    def test_failed_submit_is_an_error_and_leaves_no_inflight_entry(self):
        service = SweepService(workers=1, cache=ResultCache(), mode="thread")
        pool = _BrokenPool()
        service._executor = pool
        job = network_drive_job("ace", MB, topology=(2, 2, 2))

        first = _run_in_thread(service, [job])
        assert first[0]["status"] == "error"
        assert "BrokenProcessPool" in first[0]["payload"]
        assert service.stats()["inflight"] == 0
        assert service.stats()["errors"] == 1

        # The retry submits afresh rather than attaching to a dead entry.
        again = _run_in_thread(service, [job])
        assert again[0]["status"] == "error"
        assert again[0]["deduplicated"] is False
        assert pool.submits == 2

        # Once the pool is healthy again the same spec runs normally.
        service._executor = None
        healed = _run_in_thread(service, [job])
        service.close()
        assert healed[0]["status"] == "ok"
        assert service.stats()["inflight"] == 0

    def test_result_is_cached_outside_the_lock_before_the_entry_drops(self):
        release = threading.Event()
        observed = {}

        def gated_execute(payload_json):
            assert release.wait(timeout=30), "test gate never released"
            return ("ok", {"__result__": "json", "value": 1}, 0.01)

        class ProbeCache(ResultCache):
            def store(self, job, payload, key=None):
                observed["inflight"] = key in service._inflight
                # Another thread can take the service lock while the store
                # runs, so the store is not holding it.
                acquired = []

                def try_lock():
                    if service._lock.acquire(timeout=5):
                        service._lock.release()
                        acquired.append(True)

                probe = threading.Thread(target=try_lock)
                probe.start()
                probe.join()
                observed["lock_free"] = bool(acquired)
                super().store(job, payload, key=key)

        service = SweepService(workers=1, cache=ProbeCache(), execute_fn=gated_execute)
        job = network_drive_job("ace", MB, topology=(2, 2, 2))
        results = []
        runner = threading.Thread(target=lambda: results.append(service.run_jobs([job])))
        runner.start()
        deadline = time.monotonic() + 30
        while service.stats()["inflight"] != 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        runner.join(timeout=30)
        service.close()
        assert results[0][0]["status"] == "ok"
        assert observed == {"inflight": True, "lock_free": True}
        assert service.stats()["inflight"] == 0


# ---------------------------------------------------------------------------
# Socket transport
# ---------------------------------------------------------------------------


class TestSocketServer:
    def test_ping_reports_identity(self, live_server):
        import repro

        server_info = client_for(live_server).ping()
        assert server_info["package_version"] == repro.__version__
        assert server_info["protocol"] == PROTOCOL_VERSION
        assert server_info["workers"] == 2

    def test_run_jobs_round_trip_matches_inline(self, live_server):
        jobs = small_batch()
        daemon = DaemonRunner(client_for(live_server))
        outcomes = daemon.run(jobs)
        inline = SweepRunner(workers=1).run(jobs)
        assert all(o.ok for o in outcomes)
        for served, local in zip(outcomes, inline):
            # Byte-identical: identical encoded payloads either path.
            assert encode_result(served.value) == encode_result(local.value)

    def test_two_clients_share_cache_and_singleflight(self, live_server):
        jobs = small_batch()
        first = DaemonRunner(client_for(live_server))
        second = DaemonRunner(client_for(live_server))
        first.run_values(jobs)
        second.run_values(jobs)
        assert second.stats.cache_hits == len(jobs)
        stats = client_for(live_server).stats()
        # Across both clients each unique spec simulated exactly once.
        assert stats["executed"] == len(jobs)
        assert stats["jobs"] == 2 * len(jobs)

    def test_concurrent_clients_each_unique_spec_runs_once(self, live_server):
        jobs = small_batch()
        runners = [DaemonRunner(client_for(live_server)) for _ in range(2)]
        errors = []

        def drive(runner):
            try:
                runner.run_values(jobs)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(r,)) for r in runners]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        stats = client_for(live_server).stats()
        assert stats["executed"] == len(jobs)
        assert stats["cache_hits"] + stats["singleflight_hits"] == len(jobs)

    def test_malformed_job_spec_fails_the_request(self, live_server):
        client = client_for(live_server)
        with pytest.raises(ServiceError, match="unknown SimJob fields"):
            client.run_jobs([{"kind": "training", "bogus_field": 1}])

    def test_unknown_op_is_rejected(self, live_server):
        client = client_for(live_server)
        with pytest.raises(ServiceError, match="unknown op"):
            client.request({"op": "frobnicate"})

    def test_protocol_version_mismatch_is_rejected(self, live_server):
        client = client_for(live_server)
        with pytest.raises(ServiceError, match="protocol version mismatch"):
            client.request({"op": "ping", "v": 999})

    def test_job_error_travels_as_outcome(self, live_server):
        daemon = DaemonRunner(client_for(live_server))
        jobs = [
            training_job("ace", "no_such_workload", num_npus=8, iterations=1),
            network_drive_job("ace", MB, topology=(2, 2, 2)),
        ]
        outcomes = daemon.run(jobs)
        assert [o.ok for o in outcomes] == [False, True]
        assert "no_such_workload" in outcomes[0].error
        assert daemon.stats.errors == 1


# ---------------------------------------------------------------------------
# Scenario execution through the daemon
# ---------------------------------------------------------------------------


class TestScenarioThroughDaemon:
    def test_paper_fast_report_is_byte_identical_to_inline(self, live_server):
        from repro.scenarios import find_scenario, run_scenario

        scenario = find_scenario("paper-fast")
        daemon_report = run_scenario(scenario, runner=DaemonRunner(client_for(live_server)))
        inline_report = run_scenario(scenario, runner=SweepRunner(workers=1))

        def comparable(report):
            return [
                {k: v for k, v in row.items() if k not in ("wall_s", "from_cache")}
                for row in report["results"]
            ]

        assert comparable(daemon_report) == comparable(inline_report)
        assert daemon_report["invariants"] == inline_report["invariants"]


# ---------------------------------------------------------------------------
# Client fallback semantics
# ---------------------------------------------------------------------------


class TestDaemonFallback:
    def test_off_never_connects(self, monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON", "off")
        assert daemon_runner_from_env() is None
        assert daemon_runner_from_env(mode="off") is None

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_DAEMON", raising=False)
        assert daemon_runner_from_env() is None

    def test_auto_falls_back_when_unreachable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON_PORT", "1")  # nothing listens here
        assert daemon_runner_from_env(mode="auto") is None

    def test_require_raises_when_unreachable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON_PORT", "1")
        with pytest.raises(ServiceError, match="cannot reach sweep daemon"):
            daemon_runner_from_env(mode="require")

    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigurationError, match="unknown daemon mode"):
            daemon_runner_from_env(mode="sometimes")

    def test_auto_uses_a_live_daemon(self, live_server):
        host, port = live_server.address
        runner = daemon_runner_from_env(mode="auto", host=host, port=port)
        assert isinstance(runner, DaemonRunner)
        assert runner.run_one(network_drive_job("ace", MB, topology=(2, 2, 2)))

    def test_env_address_is_used(self, live_server, monkeypatch):
        host, port = live_server.address
        monkeypatch.setenv("REPRO_DAEMON", "require")
        monkeypatch.setenv("REPRO_DAEMON_HOST", host)
        monkeypatch.setenv("REPRO_DAEMON_PORT", str(port))
        runner = daemon_runner_from_env()
        assert isinstance(runner, DaemonRunner)

    def test_bad_port_env_raises_service_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON_PORT", "not-a-port")
        with pytest.raises(ServiceError, match="REPRO_DAEMON_PORT"):
            daemon_runner_from_env(mode="auto")


# ---------------------------------------------------------------------------
# DaemonRunner is a SweepRunner
# ---------------------------------------------------------------------------


class TestDaemonRunnerInterface:
    def test_is_a_sweep_runner(self, live_server):
        runner = DaemonRunner(client_for(live_server))
        assert isinstance(runner, SweepRunner)

    def test_rejects_non_jobs(self, live_server):
        from repro.errors import SimulationError

        runner = DaemonRunner(client_for(live_server))
        with pytest.raises(SimulationError, match="SimJob"):
            runner.run(["not a job"])

    def test_stats_account_cache_dedup_and_executed(self, live_server):
        job = network_drive_job("ace", 2 * MB, topology=(2, 2, 2))
        runner = DaemonRunner(client_for(live_server))
        runner.run([job, job])  # one executed, one absorbed (dedup or cache)
        runner.run([job])  # served from the daemon cache
        stats = runner.stats.as_dict()
        assert stats["jobs"] == 3
        assert stats["executed"] == 1
        assert stats["deduplicated"] + stats["cache_hits"] == 2
        assert stats["cache_hits"] >= 1  # the second batch is a sure hit


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_parser_accepts_serve_and_daemon_flags(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--workers", "2"])
        assert args.command == "serve"
        assert args.port == 0
        args = parser.parse_args(["run", "paper-fast", "--daemon", "require"])
        assert args.daemon == "require"

    def test_run_daemon_require_fails_without_daemon(self, monkeypatch, tmp_path):
        from repro.cli import main

        monkeypatch.setenv("REPRO_DAEMON_PORT", "1")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "paper-fast", "--daemon", "require"]) == 1


# ---------------------------------------------------------------------------
# Wire protocol details
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_spec_hash_travels_on_outcomes(self, live_server):
        job = network_drive_job("ace", MB, topology=(2, 2, 2))
        outcomes = client_for(live_server).run_jobs([job.to_dict()])
        assert outcomes[0]["spec_hash"] == job.spec_hash()

    def test_jobs_round_trip_canonically(self, live_server):
        job = training_job(
            "ace", "resnet50", num_npus=8, iterations=1, backend="symmetric"
        )
        # What the daemon executes is rebuilt from the wire dict; the rebuilt
        # job must canonicalise identically or cache keys would diverge.
        rebuilt = SimJob.from_dict(job.to_dict())
        assert rebuilt.to_json() == job.to_json()
        assert rebuilt.spec_hash() == job.spec_hash()
