"""Collective executor: runs collective operations over the fabric and endpoint.

The executor is the simulator's equivalent of the communication runtime
(oneCCL / NCCL in the baselines, the ACE control program with ACE): it accepts
collective operations from the training loop, splits them into chunks
(Table III), admits chunks into the endpoint pipeline subject to the
endpoint's capacity, and walks each chunk through the phases of its
topology-aware plan, reserving endpoint processing and link bandwidth as it
goes.

Scheduling follows the paper: pending collectives are served LIFO by default
(the collectives of the first layers, issued last during back-propagation,
have the highest priority because the next forward pass needs them first);
FIFO is available for comparison.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.collectives.base import CollectiveOp, CollectivePlan
from repro.collectives.planner import AUTO, algorithm_implements, plan_collective
from repro.config.system import SystemConfig
from repro.endpoint.base import Endpoint, PhaseWork
from repro.endpoint.factory import make_endpoint
from repro.errors import ConfigurationError, SchedulingError
from repro.network.backend import NetworkBackend, make_network_backend
from repro.network.messages import split_payload
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.process import Signal

_collective_ids = itertools.count()

#: A compiled chunk walk: the plan's stages in execution order, each a tuple
#: of ``(work, on_fabric)`` pairs — the phase's endpoint work for one chunk
#: size and whether its bytes go out on a fabric dimension.
ChunkWalk = Tuple[Tuple[Tuple[PhaseWork, bool], ...], ...]


@dataclass
class CollectiveHandle:
    """Tracking object for one issued collective operation."""

    id: int
    name: str
    op: CollectiveOp
    payload_bytes: int
    issued_at: float
    done: Signal
    num_chunks: int
    chunks_completed: int = 0
    completed_at: Optional[float] = None
    plan: Optional[CollectivePlan] = None
    #: Set once the collective's launch overhead has been charged (on the
    #: admission of its first chunk).
    launched: bool = False

    @property
    def finished(self) -> bool:
        return self.completed_at is not None

    @property
    def duration_ns(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


@dataclass
class _PendingCollective:
    handle: CollectiveHandle
    chunk_sizes: Deque[int] = field(default_factory=deque)


class CollectiveExecutor:
    """Chunk-level collective execution over a pluggable network backend.

    The backend is chosen by name (``backend=`` argument, falling back to
    ``system.network_backend``): ``"symmetric"`` for the fast analytical
    model, ``"detailed"`` for the contention-aware per-link model, ``"auto"``
    for the size heuristic.  A pre-built backend instance may be passed as
    ``fabric=``; it must have been built for the same topology the executor
    is given.
    """

    def __init__(
        self,
        sim: Simulator,
        system: SystemConfig,
        topology: Topology,
        endpoint: Optional[Endpoint] = None,
        fabric: Optional[NetworkBackend] = None,
        chunk_bytes: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.system = system
        self.topology = topology
        self.endpoint = endpoint or make_endpoint(system)
        if fabric is not None:
            if backend is not None:
                raise ConfigurationError(
                    f"pass either a pre-built fabric or a backend name, not "
                    f"both (got fabric={type(fabric).__name__} and "
                    f"backend={backend!r})"
                )
            fabric_topology = getattr(fabric, "topology", None)
            if (
                fabric_topology is None
                or fabric_topology.cache_key() != topology.cache_key()
            ):
                fabric_name = (
                    fabric_topology.name if fabric_topology is not None else "<none>"
                )
                raise ConfigurationError(
                    f"fabric/topology mismatch: the supplied fabric was built "
                    f"for topology {fabric_name!r} but the executor was given "
                    f"topology {topology.name!r}; build the fabric for the "
                    f"same topology (or omit fabric= and let the executor "
                    f"build it)"
                )
            self.fabric = fabric
        else:
            self.fabric = make_network_backend(
                backend or system.network_backend,
                topology,
                system.network,
                auto_threshold=system.network_backend_auto_threshold,
            )
        self.chunk_bytes = chunk_bytes or system.ace.chunk_bytes
        if self.chunk_bytes <= 0:
            raise SchedulingError("chunk_bytes must be positive")
        self.scheduling = system.collective_scheduling
        # Configure the endpoint for the dominant (all-reduce) plan up front;
        # ACE programs its FSMs for these phases plus all-to-all.
        self._plans: Dict[CollectiveOp, CollectivePlan] = {}
        self._walks: Dict[Tuple[CollectiveOp, int], ChunkWalk] = {}
        if topology.num_nodes > 1:
            self.endpoint.configure(self._plan(CollectiveOp.ALL_REDUCE))
        #: Collectives with chunks still to admit, in issue order; one is
        #: dropped the moment its last chunk is admitted.
        self._pending: Deque[_PendingCollective] = deque()
        self._inflight_chunks = 0
        self._handles: List[CollectiveHandle] = []

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def _plan(self, op: CollectiveOp) -> CollectivePlan:
        """Plan for ``op``, honouring the system's collective-algorithm knob.

        The knob pins the algorithm only for the operations it implements; a
        workload's other collectives (e.g. DLRM's all-to-all when an
        all-reduce algorithm is pinned) fall back to auto selection rather
        than failing the whole simulation.
        """
        if op not in self._plans:
            algorithm = self.system.collective_algorithm
            if algorithm != AUTO and not algorithm_implements(algorithm, op):
                algorithm = AUTO
            self._plans[op] = plan_collective(
                op,
                self.topology,
                algorithm=algorithm,
                network=self.system.network,
            )
        return self._plans[op]

    def _walk(self, op: CollectiveOp, chunk_size: int) -> ChunkWalk:
        """The compiled walk of one ``chunk_size`` chunk of ``op``, built once.

        Everything a stage needs that does not change from chunk to chunk —
        the plan's stages, each phase's :class:`PhaseWork` (with its global
        phase index and first/last-stage flags) and whether the phase sends
        on a fabric dimension — is computed here instead of per event.
        """
        key = (op, chunk_size)
        walk = self._walks.get(key)
        if walk is None:
            stages = self._plan(op).stages()
            last = len(stages) - 1
            phase_index = 0
            compiled = []
            for stage_index, stage in enumerate(stages):
                steps = []
                for phase in stage:
                    work = PhaseWork.from_phase(
                        phase,
                        phase_index=phase_index,
                        chunk_bytes=chunk_size,
                        is_first=stage_index == 0,
                        is_last=stage_index == last,
                    )
                    on_fabric = work.send_bytes > 0 and self.fabric.has_dimension(
                        phase.dimension
                    )
                    steps.append((work, on_fabric))
                    phase_index += 1
                compiled.append(tuple(steps))
            walk = self._walks[key] = tuple(compiled)
        return walk

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def issue(
        self,
        op: Union[str, CollectiveOp],
        payload_bytes: int,
        name: str = "",
    ) -> CollectiveHandle:
        """Issue a collective at the current simulation time."""
        op = CollectiveOp(op)
        if payload_bytes <= 0:
            raise SchedulingError(f"collective payload must be positive, got {payload_bytes}")
        handle_id = next(_collective_ids)
        label = name or f"{op.value}-{handle_id}"
        plan = self._plan(op)
        if self.topology.num_nodes <= 1 or not plan.phases:
            # Single-node "collective": nothing to communicate.
            handle = CollectiveHandle(
                id=handle_id,
                name=label,
                op=op,
                payload_bytes=payload_bytes,
                issued_at=self.sim.now,
                done=Signal(f"{label}.done"),
                num_chunks=0,
                completed_at=self.sim.now,
                plan=plan,
            )
            handle.done.fire(self.sim, handle)
            self._handles.append(handle)
            return handle
        chunk_sizes = split_payload(payload_bytes, self.chunk_bytes)
        handle = CollectiveHandle(
            id=handle_id,
            name=label,
            op=op,
            payload_bytes=payload_bytes,
            issued_at=self.sim.now,
            done=Signal(f"{label}.done"),
            num_chunks=len(chunk_sizes),
            plan=plan,
        )
        self._handles.append(handle)
        self._pending.append(_PendingCollective(handle, deque(chunk_sizes)))
        self._try_admit()
        return handle

    # ------------------------------------------------------------------
    # Admission and chunk execution
    # ------------------------------------------------------------------
    def _try_admit(self) -> None:
        """Admit chunks up to the endpoint's capacity.

        ``_pending`` holds only collectives with chunks left, so the policy
        picks an end of it directly: LIFO serves the newest collective, FIFO
        the oldest.
        """
        capacity = self.endpoint.chunk_capacity()
        pending = self._pending
        lifo = self.scheduling == "lifo"
        while pending and self._inflight_chunks < capacity:
            collective = pending[-1] if lifo else pending[0]
            chunk_size = collective.chunk_sizes.popleft()
            if not collective.chunk_sizes:
                if lifo:
                    pending.pop()
                else:
                    pending.popleft()
            self._admit_chunk(collective.handle, chunk_size)

    def _admit_chunk(self, handle: CollectiveHandle, chunk_size: int) -> None:
        """Admit one chunk: it will walk its plan stages as an event chain.

        Every resource reservation is made at the simulation time the stage
        actually starts (not at admission time), so FIFO resources are always
        requested in chronological order and idle gaps are never skipped over.
        """
        self._inflight_chunks += 1
        start = self.sim.now
        if not handle.launched:
            # Per-collective launch cost: communication-kernel launch and
            # scheduling for the baselines, the NPU-AFI command interface for
            # ACE, nothing for the ideal system.
            start += self.system.collective_launch_overhead_ns
            handle.launched = True
        admitted_at = self.sim.now
        self.sim.schedule_at(start, self._start_chunk, handle, chunk_size, admitted_at)

    def _start_chunk(self, handle: CollectiveHandle, chunk_size: int, admitted_at: float) -> None:
        staged = self.endpoint.ingress(chunk_size, self.sim.now)
        walk = self._walk(handle.op, chunk_size)
        self.sim.schedule_at(
            staged, self._start_stage, handle, walk, chunk_size, 0, admitted_at
        )

    def _start_stage(
        self,
        handle: CollectiveHandle,
        walk: ChunkWalk,
        chunk_size: int,
        stage_index: int,
        admitted_at: float,
    ) -> None:
        """Run one stage of the chunk's walk; chain the next stage at its finish."""
        now = self.sim.now
        if stage_index >= len(walk):
            done_at = self.endpoint.egress(chunk_size, now)
            self.endpoint.activity.record(admitted_at, done_at)
            self.sim.schedule_at(done_at, self._chunk_done, handle)
            return
        if self.fabric.event_driven:
            self._start_event_stage(handle, walk, chunk_size, stage_index, admitted_at)
            return
        stage_finish = now
        for work, on_fabric in walk[stage_index]:
            finish = self.endpoint.process_phase(work, now)
            if on_fabric:
                reservation = self.fabric.reserve(
                    work.dimension, work.send_bytes, now, steps=work.steps
                )
                finish = max(finish, reservation.finish)
            stage_finish = max(stage_finish, finish)
        self.sim.schedule_at(
            stage_finish, self._start_stage, handle, walk, chunk_size, stage_index + 1, admitted_at
        )

    def _start_event_stage(
        self,
        handle: CollectiveHandle,
        walk: ChunkWalk,
        chunk_size: int,
        stage_index: int,
        admitted_at: float,
    ) -> None:
        """:meth:`_start_stage` for a backend whose transfers are events.

        Completion-token pattern: the issuing frame holds one token so a
        backend whose ``transfer()`` delivers ``on_complete`` synchronously
        cannot drain the count to zero (and schedule the next stage twice)
        while transfers are still being issued.  Each transfer's completion
        folds ``max(endpoint ready, network finish)`` into the stage's
        running finish time and releases its token; the last release
        schedules the next stage.
        """
        sim = self.sim
        now = sim.now
        outstanding = 1
        stage_finish = now

        def release(finish: float) -> None:
            nonlocal outstanding, stage_finish
            stage_finish = max(stage_finish, finish)
            outstanding -= 1
            if outstanding == 0:
                sim.schedule_at(
                    max(stage_finish, sim.now),
                    self._start_stage,
                    handle,
                    walk,
                    chunk_size,
                    stage_index + 1,
                    admitted_at,
                )

        for work, on_fabric in walk[stage_index]:
            ready = self.endpoint.process_phase(work, now)
            if on_fabric:
                outstanding += 1
                self.fabric.transfer(
                    sim,
                    work.dimension,
                    work.send_bytes,
                    work.steps,
                    lambda network_finish, ready=ready: release(
                        max(ready, network_finish)
                    ),
                )
                continue
            stage_finish = max(stage_finish, ready)
        # Release the issuing frame's token.
        release(stage_finish)

    def _chunk_done(self, handle: CollectiveHandle) -> None:
        self._inflight_chunks -= 1
        handle.chunks_completed += 1
        if handle.chunks_completed >= handle.num_chunks and not handle.finished:
            handle.completed_at = self.sim.now
            handle.done.fire(self.sim, handle)
        self._try_admit()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def handles(self) -> List[CollectiveHandle]:
        return list(self._handles)

    @property
    def outstanding(self) -> int:
        """Number of issued collectives that have not completed."""
        return sum(1 for h in self._handles if not h.finished)

    @property
    def inflight_chunks(self) -> int:
        return self._inflight_chunks

    def all_done_signal(self) -> Signal:
        """A signal that fires once every currently-issued collective completes."""
        from repro.sim.process import all_of

        signals = [h.done for h in self._handles if not h.finished]
        return all_of(self.sim, signals, name="all-collectives-done")

    def total_bytes_injected(self) -> float:
        return self.fabric.bytes_injected

    def stats(self) -> Dict[str, float]:
        return {
            "collectives_issued": float(len(self._handles)),
            "bytes_injected": self.fabric.bytes_injected,
            "endpoint_memory_read_bytes": self.endpoint.memory_read_bytes,
            "endpoint_memory_write_bytes": self.endpoint.memory_write_bytes,
        }
