"""The open-loop runner: schedule, submit, account — never wait.

:func:`run_trace` drives a :class:`~repro.load.trace.LoadTrace` against
a :class:`LoadTarget` strictly open-loop: each request is submitted at
its scheduled arrival offset whether or not earlier requests have
resolved, so queueing delay and admission-control shedding show up in
the numbers instead of silently throttling the client.  Two targets:

* :class:`SessionTarget` — an in-process :class:`repro.api.Session`
  (``submit`` -> dispatcher coalescing -> serve pool).  No admission
  control exists in-process, so nothing sheds; this is the
  engine-capacity baseline.
* :class:`RemoteTarget`  — a :class:`repro.net.Client` against a
  ``serve-net`` service; per-request deadlines feed the service's
  oldest-deadline shedding and ``ERR_SHED`` responses are accounted as
  shed, not failed.

Accounting invariant (asserted by ``bench_load.py --quick`` and the CI
load-smoke replay): ``offered == completed + shed + admit_rejected +
failed`` — every scheduled request resolves to exactly one outcome.

Fault injection rides along: pass a
:class:`~repro.faults.FaultInjector` to :func:`run_trace` and
``client.request``-site events fire on scheduled arrival ordinals —
``conn_drop`` severs the remote client's pooled sockets mid-run,
exercising reconnect/replay under load.  Service- and engine-side
faults are configured on the target (``serve-net --fault-plan``).
"""

from __future__ import annotations

import abc
import json
import time
import zlib
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..api.capabilities import Capabilities
from ..api.requests import BatchSearchResult
from ..api.session import Session
from ..faults import CONN_DROP, SITE_CLIENT_REQUEST, FaultEvent
from ..faults import FaultInjector as _FaultInjector
from .arrival import ArrivalProcess
from .scenarios import Scenario, ScenarioRequest
from .trace import LoadTrace, TraceEvent

#: outcome states (the SLO report's accounting columns)
COMPLETED = "completed"
SHED = "shed"
#: fail-fast rejection by the adaptive admission controller (ERR_ADMIT)
ADMIT_REJECTED = "admit_rejected"
FAILED = "failed"


def generate_trace(
    scenario: Scenario,
    arrival: ArrivalProcess,
    rate: float,
    *,
    duration: Optional[float] = None,
    max_requests: Optional[int] = None,
    deadline: Optional[float] = None,
) -> LoadTrace:
    """Zip a scenario's request stream with an arrival timeline."""
    # zlib.crc32 (not hash(): PYTHONHASHSEED would break replay) keeps
    # arrival draws independent of the scenario's own derived streams
    times = arrival.times(
        rate,
        duration=duration,
        max_requests=max_requests,
        seed=(scenario.seed, zlib.crc32(arrival.name.encode("ascii"))),
    )
    stream = scenario.requests()
    events: List[TraceEvent] = []
    for at in times:
        item: ScenarioRequest = next(stream)
        events.append(
            TraceEvent(
                index=item.index,
                at=at,
                request=item.request,
                expected=item.expected,
            )
        )
    return LoadTrace(
        scenario=scenario.key,
        seed=scenario.seed,
        arrival=arrival.name,
        rate=rate,
        events=events,
        deadline=deadline,
    )


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


class LoadTarget(abc.ABC):
    """Where the open-loop runner submits: session or socket."""

    @property
    @abc.abstractmethod
    def capabilities(self) -> Capabilities:
        """What the target declares (scenario clamping input)."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable target identity for the SLO report."""

    @abc.abstractmethod
    def outsource(self, db_bits: np.ndarray) -> None:
        """Ship the scenario database to the target."""

    @abc.abstractmethod
    def submit(self, request, deadline: Optional[float]) -> Future:
        """Queue one request; returns the future of its result."""

    def stats(self) -> Dict[str, object]:
        """Operational counters for the report (sheds, rejects, ...)."""
        return {}

    def inject_fault(self, event: FaultEvent) -> bool:
        """Apply one client-site fault to this target; returns True
        when the target could act on it (default: no-op)."""
        return False

    def close(self) -> None:  # pragma: no cover - overridden where owned
        pass


class SessionTarget(LoadTarget):
    """In-process target over one :class:`~repro.api.session.Session`."""

    def __init__(self, session: Session, *, owns_session: bool = False):
        self.session = session
        self._owns = owns_session

    @property
    def capabilities(self) -> Capabilities:
        return self.session.capabilities

    def describe(self) -> str:
        return f"in-process:{self.session.engine_key}"

    def outsource(self, db_bits: np.ndarray) -> None:
        self.session.outsource(db_bits)

    def submit(self, request, deadline: Optional[float]) -> Future:
        # No admission control in-process: deadlines are recorded in the
        # trace but nothing enforces them on this path.
        return self.session.submit(request)

    def close(self) -> None:
        if self._owns:
            self.session.close()


class RemoteTarget(LoadTarget):
    """Networked target over the :class:`repro.net.Client` SDK.

    ``retry`` (a :class:`~repro.faults.RetryPolicy` or attempt count)
    is threaded into every submission, so shed / admission-rejected
    responses are retried with decorrelated-jitter backoff before the
    harness records a terminal outcome.
    """

    def __init__(self, client, *, owns_client: bool = False, retry=None):
        self.client = client
        self._owns = owns_client
        self.retry = retry

    @property
    def capabilities(self) -> Capabilities:
        w = self.client.welcome
        return Capabilities(
            scheme=w.scheme,
            wildcard=w.wildcard,
            batching=w.batching,
            sharded=w.sharded,
            verify=w.verify,
            max_query_bits=w.max_query_bits,
        )

    def describe(self) -> str:
        host, port = self.client.address
        return f"remote:{self.client.welcome.engine}@{host}:{port}"

    def outsource(self, db_bits: np.ndarray) -> None:
        self.client.outsource(db_bits)

    def submit(self, request, deadline: Optional[float]) -> Future:
        return self.client.submit(
            request, deadline=deadline, retry=self.retry
        )

    def stats(self) -> Dict[str, object]:
        s = self.client.stats()
        try:
            tenants = json.loads(s.tenants_json) if s.tenants_json else {}
        except ValueError:
            tenants = {}
        return {
            "service_shed": s.shed,
            "service_completed": s.completed,
            "service_failed": s.failed,
            "admit_rejected": s.admit_rejected,
            "degraded_shards": s.degraded_shards,
            "tenants": tenants,
        }

    def inject_fault(self, event: FaultEvent) -> bool:
        if event.kind != CONN_DROP:
            return False
        self.client.drop_connections()
        return True

    def close(self) -> None:
        if self._owns:
            self.client.close()


# ---------------------------------------------------------------------------
# Open-loop execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one scheduled request."""

    index: int
    at: float
    status: str  # COMPLETED | SHED | ADMIT_REJECTED | FAILED
    latency_seconds: float  # submit -> resolve; 0.0 when not completed
    num_matches: int = 0
    #: None when the trace carried no ground truth
    matched_expected: Optional[bool] = None
    error: str = ""


@dataclass
class LoadRun:
    """All outcomes of one trace replay plus the wall-clock window."""

    outcomes: List[RequestOutcome]
    wall_seconds: float

    @property
    def offered(self) -> int:
        return len(self.outcomes)

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def balanced(self) -> bool:
        """offered == completed + shed + admit_rejected + failed
        (every scheduled request resolves to exactly one outcome)."""
        return self.offered == (
            self.count(COMPLETED)
            + self.count(SHED)
            + self.count(ADMIT_REJECTED)
            + self.count(FAILED)
        )

    def latencies(self) -> List[float]:
        return [
            o.latency_seconds for o in self.outcomes if o.status == COMPLETED
        ]


def _matches_expected(result, expected) -> Optional[bool]:
    if expected is None:
        return None
    if isinstance(result, BatchSearchResult):
        got = tuple(tuple(r.matches) for r in result.results)
        return got == tuple(tuple(e) for e in expected)
    return tuple(result.matches) == tuple(expected)


def _result_matches(result) -> int:
    if isinstance(result, BatchSearchResult):
        return result.total_matches
    return result.num_matches


def run_trace(
    trace: LoadTrace,
    target: LoadTarget,
    *,
    result_timeout: float = 120.0,
    injector: Optional[_FaultInjector] = None,
) -> LoadRun:
    """Replay ``trace`` open-loop against ``target``.

    Submission happens at each event's scheduled offset (sleeping
    between arrivals; a late clock submits immediately without
    re-pacing, preserving offered load).  Completion times are captured
    by done-callbacks so latency is submit->resolve per request, not
    submit->collection order.

    ``injector`` replays ``client.request``-site fault events: each
    scheduled arrival advances the site's ordinal counter, and fired
    events are applied to the target via
    :meth:`LoadTarget.inject_fault` *before* that request is submitted
    (deterministic: the same trace + plan always faults the same
    requests).
    """
    from ..net.codec import (
        AdmissionRejectedError,
        RequestShedError,
        ServiceDrainingError,
    )

    default_deadline = trace.deadline
    submissions = []
    start = time.perf_counter()
    for ev in trace.events:
        delay = ev.at - (time.perf_counter() - start)
        if delay > 0:
            time.sleep(delay)
        if injector is not None:
            for event in injector.step(SITE_CLIENT_REQUEST):
                target.inject_fault(event)
        deadline = ev.deadline if ev.deadline is not None else default_deadline
        submitted_at = time.perf_counter()
        done_at: Dict[str, float] = {}
        try:
            future = target.submit(ev.request, deadline)
        except Exception as exc:  # submit-time rejection counts as failed
            submissions.append((ev, submitted_at, None, done_at, exc))
            continue
        future.add_done_callback(
            lambda f, d=done_at: d.setdefault("t", time.perf_counter())
        )
        submissions.append((ev, submitted_at, future, done_at, None))

    outcomes: List[RequestOutcome] = []
    for ev, submitted_at, future, done_at, submit_exc in submissions:
        if future is None:
            outcomes.append(
                RequestOutcome(
                    index=ev.index,
                    at=ev.at,
                    status=FAILED,
                    latency_seconds=0.0,
                    error=f"{type(submit_exc).__name__}: {submit_exc}",
                )
            )
            continue
        try:
            result = future.result(timeout=result_timeout)
        except AdmissionRejectedError:
            # Checked before the shed leg: both are RemoteErrors, but
            # fail-fast rejects get their own accounting column.
            outcomes.append(
                RequestOutcome(
                    index=ev.index,
                    at=ev.at,
                    status=ADMIT_REJECTED,
                    latency_seconds=0.0,
                )
            )
        except RequestShedError:
            outcomes.append(
                RequestOutcome(
                    index=ev.index, at=ev.at, status=SHED, latency_seconds=0.0
                )
            )
        except (ServiceDrainingError, Exception) as exc:
            outcomes.append(
                RequestOutcome(
                    index=ev.index,
                    at=ev.at,
                    status=FAILED,
                    latency_seconds=0.0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
        else:
            latency = done_at.get("t", time.perf_counter()) - submitted_at
            outcomes.append(
                RequestOutcome(
                    index=ev.index,
                    at=ev.at,
                    status=COMPLETED,
                    latency_seconds=latency,
                    num_matches=_result_matches(result),
                    matched_expected=_matches_expected(result, ev.expected),
                )
            )
    wall = time.perf_counter() - start
    return LoadRun(outcomes=outcomes, wall_seconds=wall)
