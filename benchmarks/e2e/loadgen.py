"""The load generator: closed and open loops over a search target.

A *target* is anything with ``outsource(db_bits)``, ``search(key)``,
``search_batch(keys)`` and, for the open loop, ``submit(key)`` returning
a future; the TCP client, the in-process session and the tests' fakes
all fit.  The generator runs on the calling thread only; answers are
checked against the precomputed expectation after the clock stops.

The generator also takes the host's speed while it measures: between
requests it times :func:`probe`, a fixed piece of numpy work that no
later change to the program can alter.  A shared host runs everything
15-30% slower for minutes at a time; the probes slow down with the
program, so times divided by them repeat where raw times do not.
"""

from __future__ import annotations

import itertools
import statistics
import time
from concurrent.futures import wait
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from metrics import ROOT
from workloads import Op

#: how long to wait for stragglers after the last open-loop request is sent
DRAIN_TIMEOUT_S = 120.0

#: One probe is fixed work of the two kinds the program does: four int64
#: add + mask passes over 2 MiB operands (memory-bound, as the fused
#: Hom-Add kernel is) and a pure-Python loop (interpreter-bound, as the
#: request path and the device-model replay are).  Recorded beside 50 ms
#: lookups, the program's time moved 0.5x as much as interpreter-bound
#: work alone and 2.3x as much as memory-bound work alone, and 1.0x as
#: much as this mix.
_PROBE_X = np.arange(1 << 18, dtype=np.int64)
_PROBE_Y = _PROBE_X[::-1].copy()
_PROBE_OUT = np.empty_like(_PROBE_X)
_PROBE_PY_STEPS = 8000
#: what one probe took on the builder's host when it was quiet; a host
#: speed of 1.0 is that host, and normalized times read as its times
PROBE_REFERENCE_S = 2.1e-3
#: share of the measured time spent probing
PROBE_SHARE = 0.04
#: open loop: no probe starts closer than this to the next due time
PROBE_GUARD_S = 0.010


@dataclass
class Probe:
    t0: float
    t1: float
    #: the timed part: ``t1 - t0`` less the untimed first pass
    seconds: float


def probe() -> Probe:
    """Run the fixed work once.  The target's work has just pushed the
    operands out of the caches, and what a refill costs moves with the
    neighbours' memory traffic far more than the program does (0.66x in
    the same recording), so one untimed pass brings them back first."""
    t0 = time.perf_counter()
    np.add(_PROBE_X, _PROBE_Y, out=_PROBE_OUT)
    begin = time.perf_counter()
    for _ in range(4):
        np.add(_PROBE_X, _PROBE_Y, out=_PROBE_OUT)
        np.bitwise_and(_PROBE_OUT, 0xFFFF, out=_PROBE_OUT)
    total, seen = 0, {}
    for i in range(_PROBE_PY_STEPS):
        total += i * i & 255
        seen[i & 63] = total
    t1 = time.perf_counter()
    return Probe(t0, t1, t1 - begin)


def host_speed(probes: Sequence[Probe]) -> float:
    """Speed of the host over ``probes`` against the reference host:
    0.8 means everything took 1/0.8 as long.  The median probe, so a
    probe that was descheduled half way does not count."""
    if not probes:
        return 1.0
    return PROBE_REFERENCE_S / statistics.median(p.seconds for p in probes)


#: remote errors that are accounted under their own term of the
#: four-term invariant, by class name so the in-process workload never
#: imports repro.net
_ERROR_OUTCOMES = {
    "RequestShedError": "shed",
    "AdmissionRejectedError": "admit_rejected",
}


@dataclass
class Sample:
    op: Op
    phase: str  # "setup" | "warmup" | "measured"
    t0: float
    t1: float
    #: "ok" | "mismatch" | "failed" | "shed" | "admit_rejected"
    outcome: str
    #: open loop: when the request was due (absolute, same clock)
    due: Optional[float] = None

    @property
    def latency_ms(self) -> float:
        """Client-observed latency; from the due time in an open loop,
        so a stall also charges the requests queued behind it."""
        return (self.t1 - (self.t0 if self.due is None else self.due)) * 1e3

    @property
    def lateness_ms(self) -> float:
        return 0.0 if self.due is None else (self.t0 - self.due) * 1e3

    @property
    def queries_ok(self) -> int:
        return len(self.op.keys) if self.outcome == "ok" else 0


def check(op: Op, result, error: Optional[BaseException]) -> str:
    """Outcome of one search op: its answer against the oracle's."""
    if error is not None:
        return _ERROR_OUTCOMES.get(type(error).__name__, "failed")
    results = result.results if op.kind == "batch" else (result,)
    got = tuple(tuple(int(m) for m in r.matches) for r in results)
    return "ok" if got == op.expected else "mismatch"


class Driver:
    """Issues ops against one target and keeps the samples."""

    def __init__(self, target, dbs: Sequence, tracer=None):
        self.target = target
        self.dbs = dbs
        self.tracer = tracer
        self.samples: List[Sample] = []
        #: results awaiting the post-run check: (sample, result, error)
        self._unchecked: list = []
        #: search requests issued so far; the server numbers its
        #: Session.submit calls the same way, which joins the traces
        self.ordinal = 0
        #: what the answers themselves report, summed over right answers
        self.answered = {"queries": 0, "hom_adds": 0, "variants": 0}
        self.encrypted_db_bytes = 0
        #: every host-speed probe
        self.probes: List[Probe] = []
        self._probe_owed = 0.0
        #: open loop: every request sent before this index has been answered
        self._answered_to = 0

    def _probe_for(self, seconds: float) -> None:
        """Probe for ``seconds`` more; what a whole probe overshoots is
        taken off the next call."""
        self._probe_owed += seconds
        while self._probe_owed > 0:
            self._probe_once()

    def _probe_once(self) -> None:
        self.probes.append(probe())
        self._probe_owed -= self.probes[-1].t1 - self.probes[-1].t0

    def _root(self, op: Op, phase: str, t0: Optional[float] = None):
        self.ordinal += 1
        if self.tracer is None:
            return None
        span = self.tracer.start(ROOT, ordinal=self.ordinal, t0=t0)
        span.attrs["measured"] = int(phase == "measured")
        span.attrs["queries"] = len(op.keys)
        self.tracer.push(span)
        return span

    def call(self, op: Op, phase: str) -> Sample:
        """One synchronous op, timed around the target call."""
        if op.kind == "outsource":
            t0 = time.perf_counter()
            self.target.outsource(self.dbs[op.db])  # a failure here is fatal
            sample = Sample(op, phase, t0, time.perf_counter(), "ok")
            self.samples.append(sample)
            return sample
        span = self._root(op, phase)
        result = error = None
        t0 = time.perf_counter()
        try:
            if op.kind == "batch":
                result = self.target.search_batch(list(op.keys))
            else:
                result = self.target.search(op.keys[0])
        except Exception as exc:  # accounted, never swallowed: see check()
            error = exc
        t1 = time.perf_counter()
        if span is not None:
            self.tracer.pop()
            self.tracer.finish(span)
        sample = Sample(op, phase, t0, t1, "")
        self.samples.append(sample)
        self._unchecked.append((sample, result, error))
        return sample

    def closed_loop(self, ops: Sequence[Op], seconds: Optional[float]) -> None:
        """Next op only after the previous one returned, and after the
        host-speed probes that op pays for (the target is idle then).
        Count-bound (``ops`` once through) without ``seconds``; with it,
        cycle ``ops`` until the budget is spent."""
        stream: Iterable[Op] = ops if seconds is None else itertools.cycle(ops)
        begin = time.perf_counter()
        for op in stream:
            if seconds is not None and time.perf_counter() - begin >= seconds:
                break
            sample = self.call(op, "measured")
            self._probe_for(PROBE_SHARE * (sample.t1 - sample.t0))

    def open_loop(self, ops: Sequence[Op], due: Sequence[float]) -> None:
        """Send the i-th op (cycling ``ops``) at ``due[i]`` whatever the
        target is doing.  A probe would compete with requests in flight,
        so the host's speed is taken before the first due time and then
        in the gaps in which every request sent has been answered."""
        self._probe_for(PROBE_SHARE / 2 * due[-1])
        begin = time.perf_counter() + 0.05
        pending = []
        for op, offset in zip(itertools.cycle(ops), due):
            due_at = begin + offset
            self._idle_until(due_at, pending)
            span = self._root(op, "measured", t0=due_at)
            sample = Sample(op, "measured", time.perf_counter(), 0.0, "", due_at)
            future = self.target.submit(op.keys[0])
            if span is not None:
                self.tracer.pop()
            future.add_done_callback(
                lambda _f, sample=sample, span=span: self._arrived(sample, span)
            )
            self.samples.append(sample)
            pending.append((sample, future))
        wait([f for _, f in pending], timeout=DRAIN_TIMEOUT_S)
        for sample, future in pending:
            if not future.done():
                future.cancel()
                sample.t1 = time.perf_counter()
                self._unchecked.append((sample, None, TimeoutError("no response")))
            elif future.exception() is not None:
                self._unchecked.append((sample, None, future.exception()))
            else:
                self._unchecked.append((sample, future.result(), None))

    def _idle_until(self, due_at: float, pending: Sequence) -> None:
        """Wait for ``due_at``.  While nothing is in flight and the due
        time is further off than ``PROBE_GUARD_S``, the wait pays for
        probes: ``PROBE_SHARE`` of it, as in the closed loop."""
        now = time.perf_counter()
        self._probe_owed = max(self._probe_owed, 0.0) + PROBE_SHARE * max(
            0.0, due_at - now
        )
        while self._probe_owed > 0:
            spare = due_at - time.perf_counter() - PROBE_GUARD_S
            if spare <= 0:
                break
            while self._answered_to < len(pending) and (
                pending[self._answered_to][1].done()
            ):
                self._answered_to += 1
            if self._answered_to < len(pending):
                wait([pending[self._answered_to][1]], timeout=spare)
            else:
                self._probe_once()
        delay = due_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)

    def _arrived(self, sample: Sample, span) -> None:
        sample.t1 = time.perf_counter()
        if span is not None:
            self.tracer.finish(span)

    def settle(self) -> None:
        """Compare every collected answer with the oracle's (outside
        any timed region)."""
        for sample, result, error in self._unchecked:
            sample.outcome = check(sample.op, result, error)
            if sample.outcome != "ok":
                continue
            for answer in result.results if sample.op.kind == "batch" else (result,):
                self.answered["queries"] += 1
                self.answered["hom_adds"] += answer.hom_ops.additions
                self.answered["variants"] += answer.num_variants
                self.encrypted_db_bytes = answer.encrypted_db_bytes
        self._unchecked.clear()
