"""Per-shard circuit breaker: closed → open on repeated crashes,
half-open probe after a cooldown, closed again on a clean probe.

The breaker is deliberately tiny — consecutive-failure threshold, a
monotonic-clock cooldown, and a single-probe half-open gate — because
its job in the sharded engine is narrow: stop feeding tasks to a shard
whose tasks keep crashing, so the batch path can return partial results
from the live shards instead of failing on it again.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Thread-safe three-state breaker.

    ``allow()`` answers "may I run a task right now?": always in
    ``closed``; exactly one probe at a time in ``half-open``; never in
    ``open`` until ``cooldown`` seconds have elapsed (which flips it to
    half-open).  ``record_success``/``record_failure`` feed results
    back; any failure while half-open reopens immediately.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.open_count = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        with self._lock:
            if self._state == CLOSED:
                return True
            self._maybe_half_open()
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probing = False
            self._state = CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            was_half_open = self._state == HALF_OPEN
            self._probing = False
            if was_half_open or self._failures >= self.failure_threshold:
                if self._state != OPEN:
                    self.open_count += 1
                self._state = OPEN
                self._opened_at = self._clock()

    def _maybe_half_open(self) -> None:
        # caller holds the lock
        if self._state == OPEN and self._clock() - self._opened_at >= self.cooldown:
            self._state = HALF_OPEN
            self._probing = False
