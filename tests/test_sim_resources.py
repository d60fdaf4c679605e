"""Bandwidth and slot resources."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ResourceError
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource, Reservation, SlotResource
from repro.sim.trace import IntervalTracer


class TestBandwidthResource:
    def test_serialization_time(self):
        pipe = BandwidthResource("p", bandwidth_gbps=100.0)
        r = pipe.reserve(1000.0, earliest_start=0.0)
        assert r.start == 0.0
        assert r.finish == pytest.approx(10.0)

    def test_latency_added_to_finish_not_occupancy(self):
        pipe = BandwidthResource("p", bandwidth_gbps=100.0, latency_ns=5.0)
        first = pipe.reserve(1000.0, 0.0)
        second = pipe.reserve(1000.0, 0.0)
        assert first.finish == pytest.approx(15.0)
        # The second transfer starts when the first finishes serializing (10),
        # not when its latency elapses (15).
        assert second.start == pytest.approx(10.0)
        assert second.finish == pytest.approx(25.0)

    def test_fifo_queuing(self):
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        a = pipe.reserve(100.0, 0.0)
        b = pipe.reserve(50.0, 0.0)
        assert a.finish == pytest.approx(100.0)
        assert b.start == pytest.approx(100.0)
        assert b.finish == pytest.approx(150.0)

    def test_idle_gap_respected(self):
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        pipe.reserve(10.0, 0.0)
        late = pipe.reserve(10.0, 100.0)
        assert late.start == pytest.approx(100.0)

    def test_statistics(self):
        pipe = BandwidthResource("p", bandwidth_gbps=2.0)
        pipe.reserve(100.0, 0.0)
        pipe.reserve(100.0, 0.0)
        assert pipe.bytes_moved == pytest.approx(200.0)
        assert pipe.busy_time == pytest.approx(100.0)
        assert pipe.requests == 2
        assert pipe.utilization(200.0) == pytest.approx(0.5)
        assert pipe.achieved_bandwidth_gbps(100.0) == pytest.approx(2.0)

    def test_tracer_records_busy_intervals(self):
        tracer = IntervalTracer("t")
        pipe = BandwidthResource("p", bandwidth_gbps=1.0, trace=tracer)
        pipe.reserve(10.0, 0.0)
        pipe.reserve(10.0, 50.0)
        assert tracer.busy_time(0.0, 100.0) == pytest.approx(20.0)

    def test_invalid_parameters(self):
        with pytest.raises(ResourceError):
            BandwidthResource("p", bandwidth_gbps=0.0)
        with pytest.raises(ResourceError):
            BandwidthResource("p", bandwidth_gbps=1.0, latency_ns=-1.0)
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        with pytest.raises(ResourceError):
            pipe.reserve(-1.0, 0.0)

    def test_event_mode_transfer(self):
        sim = Simulator()
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        finished = []
        pipe.transfer(sim, 42.0, lambda r: finished.append(r.finish))
        sim.run()
        assert finished == [pytest.approx(42.0)]

    def test_reset(self):
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        pipe.reserve(10.0, 0.0)
        pipe.reset()
        assert pipe.busy_time == 0.0
        assert pipe.bytes_moved == 0.0
        assert pipe.next_free == 0.0

    def test_queuing_delay_reported(self):
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        pipe.reserve(100.0, 0.0)
        queued = pipe.reserve(10.0, 0.0)
        assert queued.queuing_delay == pytest.approx(100.0)


class TestReservation:
    def test_is_immutable(self):
        reservation = BandwidthResource("p", bandwidth_gbps=1.0).reserve(10.0, 0.0)
        for name in ("start", "finish", "num_bytes", "requested"):
            with pytest.raises(AttributeError):
                setattr(reservation, name, 1.0)
        with pytest.raises(AttributeError):
            reservation.extra = 1.0

    def test_reserve_records_the_requested_start(self):
        pipe = BandwidthResource("p", bandwidth_gbps=2.0, latency_ns=5.0)
        pipe.reserve(100.0, 10.0)
        queued = pipe.reserve(40.0, 30.0)
        assert queued == Reservation(start=60.0, finish=85.0, num_bytes=40.0, requested=30.0)
        assert queued.requested == 30.0
        assert queued.queuing_delay == 30.0
        assert queued.duration == 25.0

    def test_requested_defaults_to_none(self):
        reservation = Reservation(start=4.0, finish=9.0, num_bytes=5.0)
        assert reservation.requested is None
        assert reservation.queuing_delay == 0.0
        assert reservation.duration == 5.0

    def test_no_negative_queuing_delay(self):
        early = Reservation(start=4.0, finish=9.0, num_bytes=5.0, requested=6.0)
        assert early.queuing_delay == 0.0


_REQUESTS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(
    requests=_REQUESTS,
    bandwidth=st.floats(min_value=0.5, max_value=500.0),
    latency=st.floats(min_value=0.0, max_value=1e3),
)
def test_reserve_and_reserve_times_book_identically(requests, bandwidth, latency):
    """The record-building and bare-pair entry points share one FIFO."""
    pipes = [
        BandwidthResource("p", bandwidth, latency, trace=IntervalTracer("p"))
        for _ in range(2)
    ]
    for num_bytes, earliest in requests:
        reservation = pipes[0].reserve(num_bytes, earliest)
        assert (reservation.start, reservation.finish) == pipes[1].reserve_times(
            num_bytes, earliest
        )
        assert reservation.requested == earliest
        assert reservation.num_bytes == num_bytes
    assert pipes[0].next_free == pipes[1].next_free
    assert pipes[0].busy_time == pipes[1].busy_time
    assert pipes[0].bytes_moved == pipes[1].bytes_moved
    assert pipes[0].requests == pipes[1].requests == len(requests)
    assert pipes[0].trace.intervals == pipes[1].trace.intervals


class TestSlotResource:
    def test_parallel_slots(self):
        slots = SlotResource("s", 2)
        _, s1, f1 = slots.acquire(0.0, 10.0)
        _, s2, f2 = slots.acquire(0.0, 10.0)
        _, s3, f3 = slots.acquire(0.0, 10.0)
        assert (s1, s2) == (0.0, 0.0)
        assert s3 == pytest.approx(10.0)
        assert f3 == pytest.approx(20.0)

    def test_earliest_available(self):
        slots = SlotResource("s", 1)
        slots.acquire(0.0, 10.0)
        assert slots.earliest_available(0.0) == pytest.approx(10.0)
        assert slots.earliest_available(20.0) == pytest.approx(20.0)

    def test_utilization(self):
        slots = SlotResource("s", 2)
        slots.acquire(0.0, 10.0)
        slots.acquire(0.0, 10.0)
        assert slots.utilization(10.0) == pytest.approx(1.0)
        assert slots.utilization(20.0) == pytest.approx(0.5)

    def test_invalid(self):
        with pytest.raises(ResourceError):
            SlotResource("s", 0)
        slots = SlotResource("s", 1)
        with pytest.raises(ResourceError):
            slots.acquire(0.0, -1.0)

    def test_reset(self):
        slots = SlotResource("s", 1)
        slots.acquire(0.0, 10.0)
        slots.reset()
        assert slots.busy_time == 0.0
        assert slots.earliest_available(0.0) == 0.0
