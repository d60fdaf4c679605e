"""Host speed probe: scales measured times to a reference host speed.

The benchmark runs on virtual machines that share their physical cores
with other guests, and the speed a guest gets drifts by a third or more
over minutes.  Process CPU time does not remove that: the slowdown comes
from contention the guest cannot see.  So the benchmark times a fixed
pure-Python probe (object allocation, dict and heap work, as in the
simulator's event loop) right before and right after each measured unit,
and reports every time scaled by ``REFERENCE_PROBE_S / probe``: the time
the unit would take on a host where the probe takes ``REFERENCE_PROBE_S``.
The probe is part of the benchmark, so on the same host a change to the
simulator moves the scaled times by the same share as the raw ones.

``perfbench/README.md`` gives the run-to-run spread with and without the
scaling.
"""

from __future__ import annotations

import heapq
import multiprocessing
import statistics
import time
from typing import List

#: Probe time of the reference host speed.
REFERENCE_PROBE_S = 0.025
#: Probe executions per sample; a sample is their median.
PROBE_REPEATS = 3
PROBE_NODES = 8_000
PROBE_TABLE = 200_000


class _Node:
    __slots__ = ("index", "key")

    def __init__(self, index: int, key: int) -> None:
        self.index = index
        self.key = key


def _probe(table: List[int]) -> int:
    """Allocate nodes, index them in a dict, order them through a heap."""
    heap: list = []
    nodes: dict = {}
    for i in range(PROBE_NODES):
        node = _Node(i, i * 7919 % 1000)
        nodes[i * 2654435761 % 1_000_003] = node
        heapq.heappush(heap, (node.key, i, node))
    total = 0
    while heap:
        node = heapq.heappop(heap)[2]
        total += table[node.index * 7919 % len(table)]
    return total + len(nodes)


def _timed_probe(table: List[int]) -> float:
    """Median CPU seconds of ``PROBE_REPEATS`` probe executions."""
    times = []
    for _ in range(PROBE_REPEATS):
        began = time.process_time()
        _probe(table)
        times.append(time.process_time() - began)
    return statistics.median(times)


def _helper_main(conn) -> None:
    """Second-CPU prober: times the probe whenever asked, until told to stop."""
    table = list(range(PROBE_TABLE))
    while conn.recv():
        conn.send(_timed_probe(table))


class HostSpeed:
    """Probe samples of one run, and the scale factors derived from them.

    With ``cpus=2`` a helper process runs the probe at the same time as this
    one and a sample is the mean of the two, which measures how much of two
    CPUs the host gives: the daemon workload keeps a pool worker busy beside
    the process serving cache hits.  :meth:`close` stops the helper.
    """

    HELPER_NAME = "hostspeed-helper"

    def __init__(self, cpus: int = 1) -> None:
        #: Every sample taken, in seconds of process CPU time.
        self.samples: List[float] = []
        self._table = list(range(PROBE_TABLE))
        self._helper = None
        if cpus > 1:
            context = multiprocessing.get_context("spawn")
            self._conn, child = context.Pipe()
            self._helper = context.Process(
                target=_helper_main, args=(child,), name=self.HELPER_NAME, daemon=True
            )
            self._helper.start()
            child.close()

    def sample(self) -> float:
        """One host-speed sample, in probe seconds."""
        if self._helper is not None:
            self._conn.send(True)
        probe = _timed_probe(self._table)
        if self._helper is not None:
            probe = (probe + self._conn.recv()) / 2
        self.samples.append(probe)
        return probe

    def close(self) -> None:
        if self._helper is not None:
            self._conn.send(False)
            self._helper.join(timeout=30)
            if self._helper.is_alive():
                self._helper.kill()
                self._helper.join()
            self._conn.close()
            self._helper = None

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that scales a time bracketed by two samples to reference speed."""
        return 2 * REFERENCE_PROBE_S / (before + after)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)
