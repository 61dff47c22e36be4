"""Seeded, composable fault schedules for the serving stack.

A :class:`FaultPlan` is an immutable list of :class:`FaultEvent`
entries.  Each event names a *kind* (what goes wrong), a *site* (the
instrumented choke point that consults the plan), and an ordinal *at*
(the 0-based count of times that site has been reached when the event
fires).  Counting site visits instead of wall-clock time keeps fault
schedules deterministic under arbitrary scheduling jitter: "crash the
worker on shard 1's fourth task" replays bit-for-bit, "crash 3.2
seconds in" does not.

Sites (see :mod:`repro.faults.inject` for the hook side):

========================  =====================================================
``shard.task``            one shard task pulled by an engine worker
                          (``target`` = shard id); kinds: ``worker_crash``,
                          ``slow_shard``
``server.request``        one decoded request in ``AsyncSearchService``;
                          kinds: ``conn_drop``, ``shed_storm``
``client.request``        one trace event submitted by the load harness;
                          kinds: ``conn_drop``
``frame.send``            one outbound frame written by :mod:`repro.net.framing`;
                          kinds: ``corrupt_frame``
========================  =====================================================

Plans compose with chained builders, serialize to JSON for record /
replay next to a :class:`~repro.load.trace.LoadTrace`, and parse from
a compact CLI spec (``"worker_crash@3:shard=1;shed_storm@30:count=4"``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

# -- fault kinds --------------------------------------------------------------

WORKER_CRASH = "worker_crash"
CONN_DROP = "conn_drop"
SLOW_SHARD = "slow_shard"
CORRUPT_FRAME = "corrupt_frame"
SHED_STORM = "shed_storm"

FAULT_KINDS: Tuple[str, ...] = (
    WORKER_CRASH,
    CONN_DROP,
    SLOW_SHARD,
    CORRUPT_FRAME,
    SHED_STORM,
)

# -- injection sites ----------------------------------------------------------

SITE_SHARD_TASK = "shard.task"
SITE_SERVER_REQUEST = "server.request"
SITE_CLIENT_REQUEST = "client.request"
SITE_FRAME_SEND = "frame.send"

FAULT_SITES: Tuple[str, ...] = (
    SITE_SHARD_TASK,
    SITE_SERVER_REQUEST,
    SITE_CLIENT_REQUEST,
    SITE_FRAME_SEND,
)

_DEFAULT_SITE: Dict[str, str] = {
    WORKER_CRASH: SITE_SHARD_TASK,
    SLOW_SHARD: SITE_SHARD_TASK,
    CONN_DROP: SITE_CLIENT_REQUEST,
    CORRUPT_FRAME: SITE_FRAME_SEND,
    SHED_STORM: SITE_SERVER_REQUEST,
}

PLAN_VERSION = 1


class FaultPlanError(ValueError):
    """A fault plan spec or serialized plan could not be understood."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is the 0-based ordinal of the site counter at which the
    event fires; ``target`` scopes ``shard.task`` events to one shard
    (``-1`` = first site visit of any target).  ``delay`` (seconds) is
    the ``slow_shard`` stall, ``count`` the ``shed_storm`` burst
    length, ``seed`` the ``corrupt_frame`` bit-flip seed.
    """

    kind: str
    at: int
    site: str = ""
    target: int = -1
    delay: float = 0.0
    count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if not self.site:
            object.__setattr__(self, "site", _DEFAULT_SITE[self.kind])
        if self.site not in FAULT_SITES:
            raise FaultPlanError(f"unknown fault site {self.site!r}")
        if self.at < 0:
            raise FaultPlanError("fault ordinal must be >= 0")
        if self.delay < 0:
            raise FaultPlanError("fault delay must be >= 0")
        if self.count < 1:
            raise FaultPlanError("fault count must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "at": self.at,
            "site": self.site,
            "target": self.target,
            "delay": self.delay,
            "count": self.count,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultEvent":
        try:
            return cls(
                kind=str(payload["kind"]),
                at=int(payload["at"]),  # type: ignore[arg-type]
                site=str(payload.get("site", "")),
                target=int(payload.get("target", -1)),  # type: ignore[arg-type]
                delay=float(payload.get("delay", 0.0)),  # type: ignore[arg-type]
                count=int(payload.get("count", 1)),  # type: ignore[arg-type]
                seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultPlanError(f"bad fault event {payload!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, composable schedule of :class:`FaultEvent` s.

    Builders return new plans, so schedules chain::

        plan = (FaultPlan()
                .worker_crash(at=3, shard=1)
                .connection_drop(at=10)
                .shed_storm(at=30, count=4))
    """

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    # -- composition ----------------------------------------------------------

    def extend(self, *events: FaultEvent) -> "FaultPlan":
        return FaultPlan(self.events + tuple(events))

    def worker_crash(self, at: int, *, shard: int = -1) -> "FaultPlan":
        """Fail ``shard``'s ``at``-th task with a
        :class:`~repro.serve.WorkerCrashError`."""
        return self.extend(FaultEvent(WORKER_CRASH, at, target=shard))

    def slow_shard(
        self, at: int, *, shard: int = -1, delay: float = 0.05
    ) -> "FaultPlan":
        """Stall ``shard``'s ``at``-th task by ``delay`` seconds."""
        return self.extend(FaultEvent(SLOW_SHARD, at, target=shard, delay=delay))

    def connection_drop(self, at: int, *, side: str = "client") -> "FaultPlan":
        """Abruptly sever the TCP connection: ``side="client"`` drops
        the pooled client sockets before the ``at``-th trace submit,
        ``side="server"`` aborts the transport on the server's
        ``at``-th decoded request."""
        if side not in ("client", "server"):
            raise FaultPlanError(f"conn_drop side must be client|server, got {side!r}")
        site = SITE_CLIENT_REQUEST if side == "client" else SITE_SERVER_REQUEST
        return self.extend(FaultEvent(CONN_DROP, at, site=site))

    def corrupt_frame(self, at: int, *, seed: int = 0) -> "FaultPlan":
        """Flip payload bytes of the ``at``-th outbound frame (length
        preserved, so the peer sees a decode error, not a hang)."""
        return self.extend(FaultEvent(CORRUPT_FRAME, at, seed=seed))

    def shed_storm(self, at: int, *, count: int = 4) -> "FaultPlan":
        """Force the service to shed the next ``count`` requests
        starting at its ``at``-th decoded request."""
        return self.extend(FaultEvent(SHED_STORM, at, count=count))

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": PLAN_VERSION,
            "events": [ev.to_dict() for ev in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        events = payload.get("events")
        if not isinstance(events, list):
            raise FaultPlanError("fault plan payload needs an 'events' list")
        return cls(tuple(FaultEvent.from_dict(ev) for ev in events))

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    # -- compact CLI spec -----------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the compact ``kind@at[:key=value,...]`` spec, e.g.
        ``"worker_crash@3:shard=1;conn_drop@10:side=client"``.  Keys:
        ``shard``, ``side``, ``delay``, ``count``, ``seed``."""
        plan = cls()
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            head, _, tail = chunk.partition(":")
            kind, sep, at_text = head.partition("@")
            kind = kind.strip()
            if not sep:
                raise FaultPlanError(f"fault {chunk!r} is missing '@ordinal'")
            try:
                at = int(at_text)
            except ValueError as exc:
                raise FaultPlanError(f"bad fault ordinal in {chunk!r}") from exc
            opts: Dict[str, str] = {}
            for pair in filter(None, (p.strip() for p in tail.split(","))):
                key, eq, value = pair.partition("=")
                if not eq:
                    raise FaultPlanError(f"bad fault option {pair!r} in {chunk!r}")
                opts[key.strip()] = value.strip()
            try:
                if kind == WORKER_CRASH:
                    plan = plan.worker_crash(at, shard=int(opts.pop("shard", -1)))
                elif kind == SLOW_SHARD:
                    plan = plan.slow_shard(
                        at,
                        shard=int(opts.pop("shard", -1)),
                        delay=float(opts.pop("delay", 0.05)),
                    )
                elif kind == CONN_DROP:
                    plan = plan.connection_drop(at, side=opts.pop("side", "client"))
                elif kind == CORRUPT_FRAME:
                    plan = plan.corrupt_frame(at, seed=int(opts.pop("seed", 0)))
                elif kind == SHED_STORM:
                    plan = plan.shed_storm(at, count=int(opts.pop("count", 4)))
                else:
                    raise FaultPlanError(f"unknown fault kind {kind!r}")
            except ValueError as exc:
                if isinstance(exc, FaultPlanError):
                    raise
                raise FaultPlanError(f"bad fault options in {chunk!r}: {exc}") from exc
            if opts:
                raise FaultPlanError(
                    f"unknown fault options {sorted(opts)} in {chunk!r}"
                )
        return plan

    @classmethod
    def load(cls, spec: str) -> "FaultPlan":
        """Resolve a CLI argument: ``@path.json`` loads a serialized
        plan, anything else goes through :meth:`parse`."""
        spec = spec.strip()
        if spec.startswith("@"):
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        return cls.parse(spec)

    # -- plumbing -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)
