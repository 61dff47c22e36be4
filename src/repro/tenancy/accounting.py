"""Per-tenant serving counters and latency percentiles.

One :class:`TenantAccounting` per tenant, updated by the network front
end on every outcome.  The counters mirror the service-level admission
accounting (accepted / completed / shed / admit_rejected / failed), so
summing the per-tenant rows reproduces the global four-term invariant
``offered == completed + shed + admit_rejected + failed`` the load
harness asserts — per-tenant accounting is a *partition* of the global
books, never a second set.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict

from ..utils.stats import percentile


class TenantAccounting:
    """Thread-safe outcome counters + a sliding wall-latency window."""

    def __init__(self, window: int = 512):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=window)
        self.accepted = 0
        self.completed = 0
        self.shed = 0
        self.admit_rejected = 0
        self.failed = 0

    def record_accepted(self) -> None:
        with self._lock:
            self.accepted += 1

    def record_completed(self, latency_seconds: float) -> None:
        with self._lock:
            self.completed += 1
            self._latencies.append(float(latency_seconds))

    def record_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def record_admit_rejected(self) -> None:
        with self._lock:
            self.admit_rejected += 1

    def record_failed(self) -> None:
        with self._lock:
            self.failed += 1

    def latency_percentile(self, pct: float) -> float:
        with self._lock:
            return percentile(list(self._latencies), pct)

    def latency_window(self) -> list:
        """Copy of the sliding latency window (service-wide percentiles
        merge the per-tenant windows)."""
        with self._lock:
            return list(self._latencies)

    def snapshot(self) -> Dict[str, float]:
        """Plain-JSON-types accounting row (the STATS ``tenants_json``
        surface and the load report's per-tenant block)."""
        with self._lock:
            window = list(self._latencies)
            return {
                "accepted": self.accepted,
                "completed": self.completed,
                "shed": self.shed,
                "admit_rejected": self.admit_rejected,
                "failed": self.failed,
                "p50_ms": percentile(window, 50) * 1e3,
                "p99_ms": percentile(window, 99) * 1e3,
            }
