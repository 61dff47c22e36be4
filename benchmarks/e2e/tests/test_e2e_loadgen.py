"""The load generator and the gate, against fake targets."""

import threading
import time
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np

import loadgen
import run
import workloads
from workloads import Op


def _answer(matches):
    return SimpleNamespace(
        matches=tuple(matches), hom_ops=SimpleNamespace(additions=7),
        num_variants=3, encrypted_db_bytes=400,
    )


def _op(value: int, kind: str = "search") -> Op:
    key = np.array([value & 1] * 8, dtype=np.uint8)
    return Op(kind, (key,), ((value,),))


class EchoTarget:
    """Answers the i-th search with ``answers[i]``, cycling."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.calls = 0

    def search(self, key):
        self.calls += 1
        answer = self.answers[(self.calls - 1) % len(self.answers)]
        if isinstance(answer, Exception):
            raise answer
        return _answer(answer)


class StallingTarget:
    """One worker answers submissions in order, 5 ms each; the first one
    stalls for ``stall_s``.  Later requests queue behind it."""

    def __init__(self, stall_s: float):
        self.stall_s = stall_s
        self.queue = []
        self.cv = threading.Condition()
        self.worker = threading.Thread(target=self._serve, daemon=True)
        self.worker.start()

    def submit(self, key):
        future = Future()
        with self.cv:
            self.queue.append(future)
            self.cv.notify()
        return future

    def _serve(self):
        served = 0
        while True:
            with self.cv:
                while not self.queue:
                    self.cv.wait()
                future = self.queue.pop(0)
            if future is None:
                return
            time.sleep(self.stall_s if served == 0 else 0.005)
            served += 1
            future.set_result(_answer([served]))

    def close(self):
        with self.cv:
            self.queue.append(None)
            self.cv.notify()
        self.worker.join(timeout=5)
        assert not self.worker.is_alive()


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    target = StallingTarget(stall_s=0.2)
    ops = [_op(i + 1) for i in range(8)]
    due = [0.02 * i for i in range(8)]  # all due while the first one stalls
    driver = loadgen.Driver(target, [])
    driver.open_loop(ops, due)
    driver.settle()
    target.close()
    assert [s.outcome for s in driver.samples] == ["ok"] * 8
    last = driver.samples[-1]
    from_submit = (last.t1 - last.t0) * 1e3
    # the generator kept to its schedule, so both clocks start together
    assert max(s.lateness_ms for s in driver.samples) < 15
    assert abs(last.latency_ms - from_submit) < 15
    # ... and the queueing delay behind the stall is in the latency,
    # which a closed loop (next request only after the answer) never sees
    assert last.latency_ms > 60
    assert min(s.latency_ms for s in driver.samples[1:]) > 40


def test_due_time_latency_exceeds_submit_time_latency_when_the_generator_is_late():
    sample = loadgen.Sample(_op(1), "measured", t0=10.030, t1=10.050, outcome="ok",
                            due=10.000)
    assert round(sample.latency_ms) == 50  # from when it was due
    assert round(sample.lateness_ms) == 30
    closed = loadgen.Sample(_op(1), "measured", t0=10.030, t1=10.050, outcome="ok")
    assert round(closed.latency_ms) == 20 and closed.lateness_ms == 0


def test_closed_loop_is_count_bound_without_seconds_and_cycles_with():
    ops = [_op(i) for i in range(5)]
    driver = loadgen.Driver(EchoTarget([[i] for i in range(5)]), [])
    driver.closed_loop(ops, None)
    assert len(driver.samples) == 5
    driver.closed_loop(ops, 0.05)
    driver.settle()
    assert len(driver.samples) > 10
    assert {s.outcome for s in driver.samples} == {"ok"}
    assert driver.answered == {
        "queries": len(driver.samples),
        "hom_adds": 7 * len(driver.samples),
        "variants": 3 * len(driver.samples),
    }


class RequestShedError(Exception):
    pass


def _repeat(driver) -> run.Repeat:
    return run.Repeat(False, driver.samples, 0.1, 0.0, 1.0, 4.0, {}, driver.answered)


def test_gate_trips_on_a_planted_wrong_answer():
    ops = [_op(i) for i in range(6)]
    right = loadgen.Driver(EchoTarget([[i] for i in range(6)]), [])
    right.closed_loop(ops, None)
    right.settle()
    assert run.gate("w", [_repeat(right)]) == []

    wrong = loadgen.Driver(EchoTarget([[0], [1], [2], [99], [4], [5]]), [])
    wrong.closed_loop(ops, None)
    wrong.settle()
    assert [s.outcome for s in wrong.samples].count("mismatch") == 1
    problems = run.gate("w", [_repeat(wrong)])
    assert problems and "not every answer was right" in problems[0]


def test_errors_are_accounted_under_their_own_term_and_still_fail_the_gate():
    ops = [_op(i) for i in range(3)]
    driver = loadgen.Driver(
        EchoTarget([[0], RequestShedError("shed"), RuntimeError("boom")]), []
    )
    driver.closed_loop(ops, None)
    driver.settle()
    assert [s.outcome for s in driver.samples] == ["ok", "shed", "failed"]
    assert driver.samples[1].queries_ok == 0
    assert run.gate("w", [_repeat(driver)])


def test_closed_loop_probes_the_host_for_its_share_of_the_measured_time():
    class SlowTarget(EchoTarget):
        def search(self, key):
            time.sleep(0.02)
            return super().search(key)

    driver = loadgen.Driver(SlowTarget([[i] for i in range(5)]), [])
    driver.closed_loop([_op(i) for i in range(5)], 0.6)
    busy = sum(s.t1 - s.t0 for s in driver.samples)
    probing = sum(p.t1 - p.t0 for p in driver.probes)
    assert 0.5 * loadgen.PROBE_SHARE < probing / busy < 3 * loadgen.PROBE_SHARE
    # probes run between requests, never inside one
    for p in driver.probes:
        assert p.seconds < p.t1 - p.t0  # the first pass is not timed
        assert not any(s.t0 < p.t1 and p.t0 < s.t1 for s in driver.samples)


def test_open_loop_probes_only_while_nothing_is_in_flight_and_never_near_a_due_time():
    target = StallingTarget(stall_s=0.005)  # every answer takes 5 ms
    ops = [_op(i + 1) for i in range(6)]
    due = [0.06 * i for i in range(6)]
    driver = loadgen.Driver(target, [])
    driver.open_loop(ops, due)
    driver.settle()
    target.close()
    first_due = driver.samples[0].due
    inside = [p for p in driver.probes if p.t0 > first_due]
    assert inside  # the gaps between answers and due times were used
    for p in inside:
        assert not any(s.t0 < p.t1 and p.t0 < s.t1 for s in driver.samples)
        assert not any(0 <= s.due - p.t0 < loadgen.PROBE_GUARD_S for s in driver.samples)
    assert max(s.lateness_ms for s in driver.samples) < 15


def test_end_to_end_times_are_host_times_scaled_by_the_probed_host_speed():
    ops = [_op(i) for i in range(4)]
    driver = loadgen.Driver(EchoTarget([[i] for i in range(4)]), [])
    driver.closed_loop(ops, None)
    driver.settle()
    for i, sample in enumerate(driver.samples):  # 10 ms each, 5 ms apart
        sample.t0, sample.t1 = 0.015 * i, 0.015 * i + 0.010
    repeat = _repeat(driver)
    spec = workloads.WORKLOADS["lookup-tcp-closed"]
    plain = run.end_to_end(spec, [repeat])
    assert repeat.speed == 1.0  # no probes: taken as the reference host
    assert round(plain["latency_ms_p50"]["value"], 6) == 10.0
    assert round(plain["qps"]["value"], 6) == round(4 / 0.055, 6)
    # a host at half the reference speed: every probe takes twice as
    # long; two of them lie inside the measured window
    slow = 2 * loadgen.PROBE_REFERENCE_S
    repeat.probes = [
        loadgen.Probe(t0, t0 + slow, slow) for t0 in (0.0101, 0.0251, 9.0)
    ]
    assert repeat.speed == 0.5
    assert round(repeat.probing_s, 9) == round(2 * slow, 9)
    scaled = run.end_to_end(spec, [repeat])
    assert round(scaled["latency_ms_p50"]["value"], 6) == 5.0
    assert round(scaled["setup_s"]["value"], 6) == 0.05
    assert round(scaled["qps"]["value"], 6) == round(4 / (0.055 - 2 * slow) / 0.5, 6)
    assert scaled["server_rss_mib"]["value"] == plain["server_rss_mib"]["value"]
    # an open loop's rate is its schedule's: not scaled, probes not taken out
    opened = run.end_to_end(workloads.WORKLOADS["lookup-tcp-open"], [repeat])
    assert round(opened["qps"]["value"], 6) == round(4 / 0.055, 6)
    assert round(opened["latency_ms_p50"]["value"], 6) == 5.0
