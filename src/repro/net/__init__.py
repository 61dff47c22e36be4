"""Networked serving layer: asyncio TCP service + client SDK.

The socket tier over the unified :mod:`repro.api` facade — the layer a
deployment actually exposes:

* :class:`AsyncSearchService` — asyncio TCP server; decoded requests
  dispatch onto their tenant's :class:`~repro.api.session.Session`
  (one default tenant unless a registry is served), so concurrent
  connections coalesce into the sharded engine's native
  serve-pool batches.  Bounded per-connection in-flight queues with
  oldest-deadline shedding, graceful drain (SIGTERM -> finish in-flight
  -> exit 0), and a STATS frame serializing the engine's
  :class:`~repro.serve.report.ServeReport`.
* :class:`Client` — the SDK: ``search``/``submit`` mirroring the
  session surface, connection pooling, reconnect-and-resend on dropped
  connections.  ``submit`` returns a concurrent future, so a caller on
  an event loop awaits ``asyncio.wrap_future(client.submit(query))``.
* :class:`RemoteEngine` — the client behind the engine facade,
  registered as ``"remote"``; without an address it boots a private
  loopback :class:`ServiceThread`, so the whole api test matrix runs
  over a real socket.

Wire format: length-prefixed CMN1 v3 frames (:mod:`repro.net.framing`)
with compact binary payloads (:mod:`repro.net.codec`); every connection
opens with a HELLO naming the protocol version and the tenant.  See
``docs/serving.md`` for the full protocol and operational semantics.

>>> import numpy as np, repro
>>> db = np.zeros(4096, dtype=np.uint8); db[160:192] = 1
>>> with repro.open_session("remote", key_seed=1, db_bits=db) as s:
...     s.search(np.ones(32, dtype=np.uint8)).matches   # over TCP
(160,)
"""

from ..api.registry import DEFAULT_REGISTRY
from .client import Client, parse_address
from .codec import (
    AdmissionRejectedError,
    ConnectionLostError,
    RemoteError,
    RequestShedError,
    RequestTimeoutError,
    ServiceDrainingError,
    ServiceStats,
    Welcome,
)
from .engine import RemoteEngine
from .framing import Frame, FrameType, FramingError
from .server import AsyncSearchService, ServiceThread

if "remote" not in DEFAULT_REGISTRY:
    DEFAULT_REGISTRY.register_engine_class(
        RemoteEngine,
        summary="networked serving layer: TCP client over any engine",
    )

__all__ = [
    "AdmissionRejectedError",
    "AsyncSearchService",
    "Client",
    "ConnectionLostError",
    "Frame",
    "FrameType",
    "FramingError",
    "RemoteEngine",
    "RemoteError",
    "RequestShedError",
    "RequestTimeoutError",
    "ServiceDrainingError",
    "ServiceStats",
    "ServiceThread",
    "Welcome",
    "parse_address",
]
