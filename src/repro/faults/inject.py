"""The hook side of fault injection: a thread-safe :class:`FaultInjector`
that the instrumented choke points (engine workers, the asyncio
service, the load harness, the framing layer) consult.

The injector keeps one visit counter per ``(site, target)`` pair; a
scheduled :class:`~repro.faults.plan.FaultEvent` fires exactly once,
on the visit whose ordinal equals its ``at``.  Unscoped events
(``target == -1``) fire on whichever target reaches that ordinal
first.  Every firing is recorded in :attr:`FaultInjector.fired` so a
chaos run can prove its schedule actually executed.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .plan import (
    CORRUPT_FRAME,
    SITE_FRAME_SEND,
    FaultEvent,
    FaultPlan,
)


@dataclass(frozen=True)
class FiredFault:
    """One fault that actually fired: where, at which visit, and what."""

    site: str
    target: int
    ordinal: int
    event: FaultEvent


class FaultInjector:
    """Thread-safe replayer for one :class:`FaultPlan`.

    ``step(site, target)`` advances the ``(site, target)`` counter and
    returns the events scheduled for that visit (usually none).  The
    caller — not the injector — knows how to make each kind of fault
    happen at its site; the injector only decides *when*.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, int], int] = {}
        self._spent: set = set()
        self.fired: List[FiredFault] = []

    def step(self, site: str, target: int = -1) -> Tuple[FaultEvent, ...]:
        """Record one visit to ``(site, target)`` and return the fault
        events that fire on it."""
        key = (site, target)
        with self._lock:
            ordinal = self._counters.get(key, 0)
            self._counters[key] = ordinal + 1
            hits: List[FaultEvent] = []
            for index, event in enumerate(self.plan.events):
                if index in self._spent or event.site != site:
                    continue
                if event.target not in (-1, target):
                    continue
                if event.at != ordinal:
                    continue
                self._spent.add(index)
                self.fired.append(FiredFault(site, target, ordinal, event))
                hits.append(event)
        return tuple(hits)

    @property
    def pending(self) -> Tuple[FaultEvent, ...]:
        """Events scheduled but not yet fired."""
        with self._lock:
            return tuple(
                ev
                for index, ev in enumerate(self.plan.events)
                if index not in self._spent
            )

    def summary(self) -> Dict[str, int]:
        """``{kind: times fired}`` — the chaos report's proof of work."""
        counts: Dict[str, int] = {}
        with self._lock:
            for fired in self.fired:
                counts[fired.event.kind] = counts.get(fired.event.kind, 0) + 1
        return counts

    def frame_hook(self) -> Callable[[object], object]:
        """A hook for :func:`repro.net.framing.set_send_fault_hook`:
        steps the ``frame.send`` site per outbound frame and corrupts
        the payload when a ``corrupt_frame`` event fires."""

        def hook(frame):
            events = self.step(SITE_FRAME_SEND)
            for event in events:
                if event.kind == CORRUPT_FRAME:
                    frame = frame.__class__(
                        frame.type,
                        frame.request_id,
                        corrupt_payload(frame.payload, event.seed),
                    )
            return frame

        return hook


def corrupt_payload(payload: bytes, seed: int = 0) -> bytes:
    """Deterministically flip a few payload bytes (length preserved,
    so the peer reads a full frame and fails in decode, not in read).
    Empty payloads pass through untouched."""
    if not payload:
        return payload
    rng = random.Random(seed or 0xC0FFEE)
    data = bytearray(payload)
    for _ in range(1 + len(data) // 256):
        index = rng.randrange(len(data))
        data[index] ^= rng.randint(1, 255)
    return bytes(data)


def install_engine_injector(engine: object, injector: Optional[FaultInjector]) -> bool:
    """Attach ``injector`` to any engine exposing a ``fault_injector``
    attribute (duck-typed so the service can wire faults through the
    api facade without importing serve internals)."""
    inner = engine
    # unwrap api-facade layers: ShardedEngine.engine -> ShardedSearchEngine
    while inner is not None and not hasattr(inner, "fault_injector"):
        inner = getattr(inner, "engine", None)
    if inner is None:
        return False
    inner.fault_injector = injector
    return True
