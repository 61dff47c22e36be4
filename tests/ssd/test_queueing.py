"""Tests for the event-driven SSD queueing simulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.cell_array import FlashGeometry
from repro.flash.timing import FlashTimings
from repro.ssd.queueing import (
    IoRequest,
    RequestKind,
    SsdQueueingSimulator,
    cm_search_wave,
    simulate_cm_search,
)
from tests.oracles import per_event_phases_run


@pytest.fixture
def geometry():
    return FlashGeometry(channels=2, dies_per_channel=2)


@pytest.fixture
def timings():
    return FlashTimings()


class TestSingleRequest:
    def test_read_latency(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings)
        sim.submit(IoRequest(RequestKind.READ, channel=0, die=0))
        result = sim.run()
        expected = timings.t_read_slc + timings.page_transfer_time()
        assert result.makespan == pytest.approx(expected)
        assert result.requests[0].latency == pytest.approx(expected)

    def test_program_latency(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings)
        sim.submit(IoRequest(RequestKind.PROGRAM, channel=0, die=0))
        result = sim.run()
        expected = timings.page_transfer_time() + timings.t_program_slc
        assert result.makespan == pytest.approx(expected)

    def test_cm_search_latency(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings, word_bits=32)
        sim.submit(IoRequest(RequestKind.CM_SEARCH, channel=0, die=0))
        result = sim.run()
        expected = 2 * timings.page_transfer_time() + 32 * timings.t_bop_add
        assert result.makespan == pytest.approx(expected)

    def test_multi_page_read(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings)
        sim.submit(IoRequest(RequestKind.READ, channel=0, die=0, pages=4))
        result = sim.run()
        expected = 4 * (timings.t_read_slc + timings.page_transfer_time())
        assert result.makespan == pytest.approx(expected)

    def test_out_of_range_channel_rejected(self, geometry):
        sim = SsdQueueingSimulator(geometry)
        with pytest.raises(ValueError):
            sim.submit(IoRequest(RequestKind.READ, channel=5, die=0))

    def test_out_of_range_die_rejected(self, geometry):
        sim = SsdQueueingSimulator(geometry)
        with pytest.raises(ValueError):
            sim.submit(IoRequest(RequestKind.READ, channel=0, die=9))


class TestContention:
    def test_same_die_serializes(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings)
        sim.submit(IoRequest(RequestKind.READ, channel=0, die=0))
        sim.submit(IoRequest(RequestKind.READ, channel=0, die=0))
        result = sim.run()
        single = timings.t_read_slc + timings.page_transfer_time()
        assert result.makespan >= timings.t_read_slc * 2
        assert result.makespan > single

    def test_different_dies_overlap_flash_time(self, geometry, timings):
        """Two reads on different dies of one channel: the tR portions
        overlap, only the bus transfers serialize."""
        sim = SsdQueueingSimulator(geometry, timings)
        sim.submit(IoRequest(RequestKind.READ, channel=0, die=0))
        sim.submit(IoRequest(RequestKind.READ, channel=0, die=1))
        result = sim.run()
        serial = 2 * (timings.t_read_slc + timings.page_transfer_time())
        expected = timings.t_read_slc + 2 * timings.page_transfer_time()
        assert result.makespan == pytest.approx(expected)
        assert result.makespan < serial

    def test_different_channels_fully_parallel(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings)
        sim.submit(IoRequest(RequestKind.READ, channel=0, die=0))
        sim.submit(IoRequest(RequestKind.READ, channel=1, die=0))
        result = sim.run()
        single = timings.t_read_slc + timings.page_transfer_time()
        assert result.makespan == pytest.approx(single)

    def test_arrival_offset_respected(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings)
        sim.submit(IoRequest(RequestKind.READ, channel=0, die=0, arrival=1.0))
        result = sim.run()
        assert result.requests[0].start >= 1.0
        assert result.makespan == pytest.approx(
            1.0 + timings.t_read_slc + timings.page_transfer_time()
        )

    def test_fcfs_order_on_die(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings)
        first = IoRequest(RequestKind.READ, channel=0, die=0, tag="first")
        second = IoRequest(RequestKind.READ, channel=0, die=0, tag="second")
        sim.submit(first)
        sim.submit(second)
        sim.run()
        assert first.finish <= second.start + timings.page_transfer_time()


class TestStatistics:
    def test_busy_accounting(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings)
        sim.submit(IoRequest(RequestKind.READ, channel=0, die=0))
        result = sim.run()
        assert result.die_busy[(0, 0)] == pytest.approx(timings.t_read_slc)
        assert result.channel_busy[0] == pytest.approx(timings.page_transfer_time())

    def test_utilization_bounds(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings)
        for i in range(8):
            sim.submit(IoRequest(RequestKind.READ, channel=0, die=i % 2))
        result = sim.run()
        assert 0.0 < result.die_utilization(0, 0) <= 1.0

    def test_empty_run(self, geometry):
        sim = SsdQueueingSimulator(geometry)
        result = sim.run()
        assert result.makespan == 0.0
        assert result.mean_latency == 0.0

    def test_run_drains_queue(self, geometry, timings):
        sim = SsdQueueingSimulator(geometry, timings)
        sim.submit(IoRequest(RequestKind.READ, channel=0, die=0))
        first = sim.run()
        second = sim.run()
        assert len(first.requests) == 1
        assert len(second.requests) == 0


class TestCmSearchWave:
    def test_wave_stripes_round_robin(self, geometry):
        requests = cm_search_wave(geometry, slots=4)
        pairs = {(r.channel, r.die) for r in requests}
        assert len(pairs) == 4  # 2 channels x 2 dies all used

    def test_wave_wraps_after_all_pairs(self, geometry):
        requests = cm_search_wave(geometry, slots=5)
        assert (requests[0].channel, requests[0].die) == (
            requests[4].channel,
            requests[4].die,
        )

    def test_single_slot_matches_closed_form(self, timings):
        geometry = FlashGeometry(channels=2, dies_per_channel=2)
        result = simulate_cm_search(1, geometry, timings)
        expected = 2 * timings.page_transfer_time() + 32 * timings.t_bop_add
        assert result.makespan == pytest.approx(expected)

    def test_one_wave_overlaps_across_dies(self, timings):
        """A full wave (one slot per die) costs barely more than one
        slot: bop_add runs concurrently on every die."""
        geometry = FlashGeometry(channels=2, dies_per_channel=2)
        one = simulate_cm_search(1, geometry, timings).makespan
        full = simulate_cm_search(4, geometry, timings).makespan
        assert full < 1.2 * one

    def test_two_waves_roughly_double(self, timings):
        geometry = FlashGeometry(channels=2, dies_per_channel=2)
        one_wave = simulate_cm_search(4, geometry, timings).makespan
        two_waves = simulate_cm_search(8, geometry, timings).makespan
        assert two_waves == pytest.approx(2 * one_wave, rel=0.1)

    def test_paper_geometry_wave(self):
        """The Table-3 geometry runs 64 concurrent slots per wave."""
        geometry = FlashGeometry()  # 8 channels x 8 dies
        result = simulate_cm_search(64, geometry)
        single = simulate_cm_search(1, geometry)
        assert result.makespan < 1.5 * single.makespan

    @given(st.integers(min_value=1, max_value=32))
    @settings(max_examples=15, deadline=None)
    def test_makespan_monotone_in_slots(self, slots):
        geometry = FlashGeometry(channels=2, dies_per_channel=2)
        smaller = simulate_cm_search(slots, geometry).makespan
        larger = simulate_cm_search(slots + 1, geometry).makespan
        assert larger >= smaller

    @given(st.integers(min_value=1, max_value=16))
    @settings(max_examples=10, deadline=None)
    def test_work_conservation(self, slots):
        """Total die busy time equals slots x per-slot bop time."""
        geometry = FlashGeometry(channels=2, dies_per_channel=2)
        timings = FlashTimings()
        result = simulate_cm_search(slots, geometry, timings)
        total_die = sum(result.die_busy.values())
        assert total_die == pytest.approx(slots * 32 * timings.t_bop_add)


class TestPhasesBuiltOncePerRequest:
    @staticmethod
    def _stream(seed):
        rnd = random.Random(seed)
        kinds = list(RequestKind)
        return [
            IoRequest(
                kind=rnd.choice(kinds),
                channel=rnd.randrange(2),
                die=rnd.randrange(2),
                # repeated arrival times force ready-time ties
                arrival=rnd.choice([0.0, 0.0, 1e-5, 2.5e-5, rnd.random() * 1e-4]),
                pages=rnd.randint(1, 3),
                tag=f"q{i % 5}",
            )
            for i in range(120)
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_same_floats_in_same_order_as_per_event_loop(self, geometry, timings, seed):
        def run(loop):
            sim = SsdQueueingSimulator(geometry, timings, word_bits=17)
            sim.submit_many(self._stream(seed))
            result = loop(sim)
            return (
                [(r.tag, r.kind, r.channel, r.die, r.start, r.finish) for r in result.requests],
                result.makespan,
                list(result.channel_busy.items()),
                list(result.die_busy.items()),
            )

        got = run(SsdQueueingSimulator.run)
        assert got == run(per_event_phases_run)
        assert {kind for _, kind, *_ in got[0]} == set(RequestKind)

    def test_phases_called_once_per_request(self, geometry, timings, monkeypatch):
        calls = []
        real = SsdQueueingSimulator._phases
        monkeypatch.setattr(
            SsdQueueingSimulator,
            "_phases",
            lambda self, req: calls.append(req) or real(self, req),
        )
        sim = SsdQueueingSimulator(geometry, timings)
        stream = self._stream(0)
        sim.submit_many(stream)
        assert len(sim.run().requests) == len(stream)
        assert len(calls) == len(stream)
