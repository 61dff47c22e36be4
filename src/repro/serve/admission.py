"""Adaptive admission control: per-class p99 budgets with an AIMD target.

The oldest-deadline shedder (:mod:`repro.net.server`) protects the
*queue* — it evicts the most doomed request once the bounded in-flight
window is full.  The :class:`AdmissionController` protects the
*latency budget*: it tracks a sliding window of completed-request wall
latencies per request class (``exact`` / ``wildcard`` / ``batch``) and
adapts a per-class concurrent-admission target the AIMD way — additive
increase while the window's p99 sits inside the class budget,
multiplicative decrease the moment it overruns.  A request arriving
when its class is at target is rejected *fail-fast* (``ERR_ADMIT``)
before it consumes a queue slot: under sustained overload it is
strictly better to tell the client "not now" in microseconds than to
queue work that will blow its deadline anyway.

The controller is deliberately front-end-agnostic (plain
``try_admit``/``release`` with a monotonic duration), so the asyncio
service, tests, and future front ends share one implementation.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Mapping, Optional, Union

from ..utils.stats import percentile

#: request classes the controller budgets separately
ADMISSION_CLASSES = ("exact", "wildcard", "batch")

BudgetLike = Union[float, Mapping[str, float]]


def classify_request(request: object) -> str:
    """Scenario class of one facade request (used as the budget key)."""
    name = type(request).__name__
    if name == "BatchSearch":
        return "batch"
    if name == "WildcardSearch":
        return "wildcard"
    return "exact"


@dataclass
class _ClassState:
    """Mutable AIMD state for one request class."""

    budget: float
    target: float
    in_flight: int = 0
    rejected: int = 0
    admitted: int = 0
    decreases: int = 0
    samples: Deque[float] = field(default_factory=deque)
    completions_since_adjust: int = 0


class AdmissionController:
    """AIMD admission targets keyed on sliding-window p99 vs budget.

    Parameters
    ----------
    budgets:
        p99 wall-latency budget in seconds — one float for every class,
        or a ``{class: seconds}`` mapping (missing classes fall back to
        the ``"*"`` entry, else admission for them is unlimited).
    initial_target / min_target / max_target:
        Concurrent-admission target bounds per class.
    increase / decrease:
        AIMD knobs: ``target += increase`` per adjustment while p99 is
        within budget, ``target *= decrease`` on overrun.
    window:
        Latency samples kept per class; adjustments happen every
        ``max(4, window // 4)`` completions once at least
        ``min_samples`` samples exist.
    """

    def __init__(
        self,
        budgets: BudgetLike,
        *,
        initial_target: int = 16,
        min_target: int = 2,
        max_target: int = 256,
        increase: float = 1.0,
        decrease: float = 0.5,
        window: int = 64,
        min_samples: int = 8,
    ):
        if min_target < 1 or max_target < min_target:
            raise ValueError("need 1 <= min_target <= max_target")
        if not (0.0 < decrease < 1.0):
            raise ValueError("decrease must be in (0, 1)")
        if increase <= 0:
            raise ValueError("increase must be > 0")
        self._budgets = self._normalize(budgets)
        self.initial_target = initial_target
        self.min_target = min_target
        self.max_target = max_target
        self.increase = increase
        self.decrease = decrease
        self.window = window
        self.min_samples = min_samples
        self._adjust_every = max(4, window // 4)
        self._lock = threading.Lock()
        self._classes: Dict[str, _ClassState] = {}
        #: total fail-fast rejections across classes
        self.admit_rejected = 0

    @staticmethod
    def _normalize(budgets: BudgetLike) -> Dict[str, float]:
        if isinstance(budgets, (int, float)):
            return {"*": float(budgets)}
        out = {}
        for key, value in budgets.items():
            if key != "*" and key not in ADMISSION_CLASSES:
                raise ValueError(
                    f"unknown admission class {key!r}; "
                    f"known: {ADMISSION_CLASSES} and '*'"
                )
            out[key] = float(value)
        return out

    def budget_for(self, cls: str) -> Optional[float]:
        budget = self._budgets.get(cls, self._budgets.get("*"))
        return budget

    def _state(self, cls: str) -> Optional[_ClassState]:
        # caller holds the lock
        state = self._classes.get(cls)
        if state is None:
            budget = self.budget_for(cls)
            if budget is None:
                return None  # unbudgeted class: never gated
            state = _ClassState(
                budget=budget,
                target=float(
                    min(self.max_target, max(self.min_target, self.initial_target))
                ),
            )
            self._classes[cls] = state
        return state

    # -- admission -------------------------------------------------------

    def try_admit(self, cls: str) -> bool:
        """Admit one ``cls`` request, or reject fail-fast when the class
        is at its AIMD target.  Every admit must be paired with exactly
        one :meth:`release`."""
        with self._lock:
            state = self._state(cls)
            if state is None:
                return True
            if state.in_flight >= int(state.target):
                state.rejected += 1
                self.admit_rejected += 1
                return False
            state.in_flight += 1
            state.admitted += 1
            return True

    def release(
        self, cls: str, latency: Optional[float] = None, *, ok: bool = True
    ) -> None:
        """Finish one admitted ``cls`` request.  ``latency`` (seconds,
        admission to response) feeds the p99 window; pass ``None`` for
        requests that never produced a meaningful latency (shed from
        the queue, connection lost)."""
        with self._lock:
            state = self._classes.get(cls)
            if state is None:
                return
            if state.in_flight > 0:
                state.in_flight -= 1
            if latency is None or not ok:
                return
            state.samples.append(latency)
            while len(state.samples) > self.window:
                state.samples.popleft()
            state.completions_since_adjust += 1
            if (
                len(state.samples) >= self.min_samples
                and state.completions_since_adjust >= self._adjust_every
            ):
                state.completions_since_adjust = 0
                p99 = percentile(list(state.samples), 99)
                if p99 > state.budget:
                    state.target = max(
                        float(self.min_target), state.target * self.decrease
                    )
                    state.decreases += 1
                else:
                    state.target = min(
                        float(self.max_target), state.target + self.increase
                    )

    # -- observability ---------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-class targets and counters (the STATS/report surface)."""
        with self._lock:
            return {
                cls: {
                    "budget_s": state.budget,
                    "target": int(state.target),
                    "in_flight": state.in_flight,
                    "admitted": state.admitted,
                    "rejected": state.rejected,
                    "decreases": state.decreases,
                    "window_p99_s": (
                        percentile(list(state.samples), 99)
                        if state.samples
                        else 0.0
                    ),
                }
                for cls, state in self._classes.items()
            }


def coerce_admission(
    value: Union[None, BudgetLike, AdmissionController],
) -> Optional[AdmissionController]:
    """``None`` → disabled, a controller → itself, a float/mapping →
    a controller with default AIMD knobs over those budgets."""
    if value is None or isinstance(value, AdmissionController):
        return value
    return AdmissionController(value)
