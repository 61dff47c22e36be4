"""Cross-layer resilience toolkit: seeded fault schedules, the
injector hooks threaded through the serving stack, per-shard circuit
breakers, and bounded retry policies.

The package deliberately imports nothing from :mod:`repro.serve`,
:mod:`repro.net`, or :mod:`repro.load` — those layers import *it*, so
a fault plan composes with any of them without cycles:

* :class:`FaultPlan` / :class:`FaultEvent` — a deterministic schedule
  keyed on site-visit ordinals (not wall clock), JSON and compact-spec
  serializable (:mod:`repro.faults.plan`).
* :class:`FaultInjector` — the thread-safe replayer each choke point
  (`shard.task`, `server.request`, `client.request`, `frame.send`)
  steps (:mod:`repro.faults.inject`).
* :class:`CircuitBreaker` — closed/open/half-open per shard, feeding
  the engine's partial-results degraded mode
  (:mod:`repro.faults.breaker`).
* :class:`RetryPolicy` — bounded attempts with decorrelated-jitter
  backoff for the net clients and load harness
  (:mod:`repro.faults.retry`).

See ``docs/resilience.md`` for the full taxonomy and contracts.
"""

from .breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from .inject import (
    FaultInjector,
    FiredFault,
    corrupt_payload,
    install_engine_injector,
)
from .plan import (
    CONN_DROP,
    CORRUPT_FRAME,
    FAULT_KINDS,
    FAULT_SITES,
    SHED_STORM,
    SITE_CLIENT_REQUEST,
    SITE_FRAME_SEND,
    SITE_SERVER_REQUEST,
    SITE_SHARD_TASK,
    SLOW_SHARD,
    WORKER_CRASH,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
)
from .retry import BackoffState, RetryPolicy, decorrelated_jitter

__all__ = [
    "BackoffState",
    "CLOSED",
    "CONN_DROP",
    "CORRUPT_FRAME",
    "CircuitBreaker",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FiredFault",
    "HALF_OPEN",
    "OPEN",
    "SHED_STORM",
    "SITE_CLIENT_REQUEST",
    "SITE_FRAME_SEND",
    "SITE_SERVER_REQUEST",
    "SITE_SHARD_TASK",
    "SLOW_SHARD",
    "WORKER_CRASH",
    "corrupt_payload",
    "decorrelated_jitter",
    "install_engine_injector",
    "RetryPolicy",
]
