"""One fixture for every way an ``AsyncSearchService`` can be built.

``test_service.py`` and ``test_tenant_service.py`` both drive a live
loopback service; the behaviours a service owes every caller (welcome
contents, per-connection ordering, oldest-deadline shedding counted
once, the STATS partition, drain and session ownership)
are asserted once, over all four constructions, through :func:`serve`.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.api import Session, open_session
from repro.he import BFVParams
from repro.net import Client, ServiceThread
from repro.tenancy import TenantRegistry, TenantSpec

PARAMS = BFVParams.test_small(64)

#: how the service under test gets its tenants -> the ids it serves
KINDS = {
    "engine-key": ("",),
    "session": ("",),
    "registry-1": ("alice",),
    "registry-3": ("alice", "bob", "carol"),
}


@dataclass
class Served:
    """A running service plus what a test may need to know about it."""

    thread: ServiceThread
    tenant_ids: Tuple[str, ...]
    #: the caller-owned session of the ``session`` kind (else None)
    lent_session: Optional[Session]

    @property
    def address(self):
        return self.thread.address

    @property
    def registry(self) -> TenantRegistry:
        return self.thread.service.registry

    def client(self, tenant_id: Optional[str] = None, **kwargs) -> Client:
        """A client bound to ``tenant_id`` (default: the first tenant)."""
        if tenant_id is None:
            tenant_id = self.tenant_ids[0]
        return Client(self.address, tenant=tenant_id, **kwargs)

    def hold_engines(self) -> threading.Event:
        """Park every engine's next ``execute`` until the returned event
        is set (or 20 s pass), so requests pile up behind it."""
        release = threading.Event()
        for tenant in self.registry.tenants():
            engine = tenant.session.engine
            execute = engine.execute

            def held(request, _execute=execute):
                release.wait(20)
                return _execute(request)

            engine.execute = held
        return release


@contextmanager
def serve(kind: str, *, engine: str = "bfv-sharded", **service_kwargs):
    """Run a service of one of the four :data:`KINDS` on a loop thread."""
    engine_kwargs = {"params": PARAMS}
    if engine == "bfv-sharded":
        engine_kwargs["num_shards"] = 2
    tenant_ids = KINDS[kind]
    lent = None
    if kind == "engine-key":
        thread = ServiceThread(
            engine, key_seed=11, **engine_kwargs, **service_kwargs
        )
    elif kind == "session":
        lent = open_session(engine, key_seed=11, **engine_kwargs)
        thread = ServiceThread(session=lent, **service_kwargs)
    else:
        registry = TenantRegistry(
            [
                TenantSpec(tenant_id=tid, key_seed=11 * (i + 1))
                for i, tid in enumerate(tenant_ids)
            ],
            default_engine=engine,
            **engine_kwargs,
        )
        thread = ServiceThread(tenants=registry, **service_kwargs)
    try:
        with thread:
            yield Served(thread, tenant_ids, lent)
    finally:
        if lent is not None:
            lent.close()


@pytest.fixture(params=list(KINDS))
def served(request):
    with serve(request.param) as service:
        yield service


def planted_db(num_queries: int, bits: int = 32, seed: int = 7, size: int = 4096):
    """A database with one unique planted pattern per query."""
    rng = np.random.default_rng(seed)
    db = rng.integers(0, 2, size).astype(np.uint8)
    queries, offsets = [], []
    for k in range(num_queries):
        q = rng.integers(0, 2, bits).astype(np.uint8)
        off = 100 + 200 * k
        db[off : off + bits] = q
        queries.append(q)
        offsets.append(off)
    return db, queries, offsets


def assert_rows_partition(stats) -> dict:
    """The per-tenant rows are a partition of the global counters: the
    service and the tenant's row are the only two places an outcome —
    a shed and an admit-reject included — is counted."""
    rows = json.loads(stats.tenants_json)
    for counter in ("accepted", "completed", "shed", "failed", "admit_rejected"):
        assert getattr(stats, counter) == sum(
            row[counter] for row in rows.values()
        ), (counter, rows)
    return rows
