"""Multi-tenant TCP service: routing, isolation, fairness, accounting.

One AsyncSearchService fronts three tenants, each with its own keypair
and outsourced database.  The tests drive real clients with tenant
identities bound at HELLO and assert:

* every tenant's searches hit only its own database (result isolation),
  and tenant A's key cannot decrypt tenant B's ciphertexts (crypto
  isolation);
* unknown / unbound tenant identities are rejected at HELLO with the
  typed ERR_TENANT error, and the default tenant ``""`` exists only on
  a service built around one session;
* the slot bound applies only while tenants compete, and a request
  still waiting in the fair queue is the first thing shed.

The STATS partition and what every service owes its callers live in
``test_service.py``, over all four constructions.
"""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest

from repro.api.requests import ExactSearch
from repro.net import Client, RequestShedError, ServiceThread, codec
from repro.net.codec import TenantRejectedError
from repro.net.framing import (
    PROTOCOL_VERSION,
    Frame,
    FrameType,
    read_frame_sync,
    write_frame_sync,
)
from repro.net.server import _FAIR_SLOTS
from repro.tenancy import TenantRegistry, TenantSpec

from .conftest import PARAMS, assert_rows_partition, planted_db, serve

TENANTS = ("alice", "bob", "carol")


def _planted_db(seed: int, bits: int = 32):
    rng = np.random.default_rng(seed)
    db = rng.integers(0, 2, 2048).astype(np.uint8)
    q = rng.integers(0, 2, bits).astype(np.uint8)
    off = 100 + 37 * seed
    db[off : off + bits] = q
    return db, q, off


@pytest.fixture(scope="module")
def tenant_service():
    registry = TenantRegistry(
        [
            TenantSpec.parse("alice:11"),
            TenantSpec.parse("bob:22:2.0"),
            TenantSpec.parse("carol:33"),
        ],
        params=PARAMS,
        num_shards=2,
        global_cache_bytes=4 << 20,
    )
    with ServiceThread(tenants=registry) as service:
        yield service


def test_each_tenant_sees_only_its_own_database(tenant_service):
    plants = {}
    for seed, tenant in enumerate(TENANTS, start=1):
        db, q, off = _planted_db(seed)
        plants[tenant] = (db, q, off)
        with Client(tenant_service.address, tenant=tenant) as client:
            assert client.welcome.tenant == tenant
            client.outsource(db)
    for tenant in TENANTS:
        _, own_q, own_off = plants[tenant]
        with Client(tenant_service.address, tenant=tenant) as client:
            assert own_off in client.search(own_q).matches
            # another tenant's planted needle is absent from this db
            other = TENANTS[(TENANTS.index(tenant) + 1) % 3]
            _, other_q, other_off = plants[other]
            assert other_off not in client.search(other_q).matches


def test_cross_tenant_key_cannot_decrypt(tenant_service):
    registry = tenant_service.service.registry
    clients = {
        tid: registry.get(tid).session.engine.engine.client
        for tid in ("alice", "bob")
    }
    ctx = clients["alice"].ctx
    coeffs = np.arange(PARAMS.n, dtype=np.int64) % PARAMS.t
    ct = ctx.encrypt(ctx.plaintext(coeffs), clients["alice"].pk)
    assert np.array_equal(
        ctx.decrypt(ct, clients["alice"].sk).poly.coeffs, coeffs
    )
    assert not np.array_equal(
        ctx.decrypt(ct, clients["bob"].sk).poly.coeffs, coeffs
    )


def test_unknown_tenant_rejected_at_hello(tenant_service):
    with pytest.raises(TenantRejectedError):
        with Client(tenant_service.address, tenant="mallory") as client:
            client.search(np.ones(8, dtype=np.uint8))


def test_unbound_connection_rejected(tenant_service):
    """A multi-tenant service refuses connections with no tenant id."""
    with pytest.raises(TenantRejectedError):
        with Client(tenant_service.address) as client:
            client.search(np.ones(8, dtype=np.uint8))


def _raw_search(address, query, hello_tenant: str) -> Frame:
    """HELLO ``hello_tenant`` then one SEARCH on a bare socket; returns
    the first non-WELCOME reply."""
    with socket.create_connection(address, timeout=10) as sock:
        hello = codec.encode_hello(PROTOCOL_VERSION, hello_tenant)
        write_frame_sync(sock, Frame(FrameType.HELLO, 1, hello))
        reply = read_frame_sync(sock)
        if reply.type is not FrameType.WELCOME:
            return reply
        ftype, payload = codec.encode_request(ExactSearch.from_bits(query))
        write_frame_sync(sock, Frame(ftype, 2, payload))
        return read_frame_sync(sock)


def test_default_tenant_exists_only_around_one_session(tenant_service):
    """HELLO ``""`` names the default tenant: a registry of named
    tenants answers it with ERR_TENANT, a service built around one
    session serves it."""
    db, queries, offsets = planted_db(num_queries=1)
    reply = _raw_search(tenant_service.address, queries[0], "")
    assert reply.type is FrameType.ERROR
    assert codec.decode_error(reply.payload)[0] == codec.ERR_TENANT
    for kind in ("engine-key", "session"):
        with serve(kind) as served:
            with served.client() as client:
                client.outsource(db)
            reply = _raw_search(served.address, queries[0], "")
            assert reply.type is FrameType.RESULT
            assert offsets[0] in codec.decode_result(reply.payload).matches
            # and it has no other tenant to be
            with pytest.raises(TenantRejectedError):
                with Client(served.address, tenant="alice") as client:
                    client.stats()


def _rows_when(served, ready, timeout: float = 20.0) -> dict:
    """Poll STATS until ``ready(stats)``; returns the tenant rows."""
    deadline = time.monotonic() + timeout
    with served.client() as probe:
        while True:
            stats = probe.stats()
            if ready(stats):
                return assert_rows_partition(stats)
            assert time.monotonic() < deadline, stats
            time.sleep(0.02)


@pytest.mark.parametrize(
    "kind, dispatched", [("registry-1", 48), ("registry-3", _FAIR_SLOTS)]
)
def test_slot_bound_applies_only_while_tenants_compete(kind, dispatched):
    """48 requests pipelined on one connection all reach a lone
    tenant's session together (so ``Session.submit`` can coalesce
    them); with other tenants registered only ``_FAIR_SLOTS`` do and
    the rest wait in the fair queue."""
    db, queries, offsets = planted_db(num_queries=1)
    with serve(kind) as served:
        with served.client(pool_size=1) as client:
            client.outsource(db)
            release = served.hold_engines()
            futures = [client.submit(queries[0]) for _ in range(48)]
            rows = _rows_when(served, lambda stats: stats.accepted == 48)
            row = rows[served.tenant_ids[0]]
            assert row["dispatched"] == dispatched
            assert row["backlog"] == 48 - dispatched
            release.set()
            for future in futures:
                assert offsets[0] in future.result(timeout=60).matches


def test_queued_victim_is_shed_before_incoming():
    """With the in-flight set full, the oldest-deadline entry is shed
    even while it still waits in the fair queue (it has no session
    future to cancel yet) — not the incoming request in its place."""
    db, queries, offsets = planted_db(num_queries=1)
    in_flight = _FAIR_SLOTS + 2
    with serve("registry-3", max_in_flight=in_flight) as served:
        with served.client("alice", pool_size=1) as client:
            client.outsource(db)
            release = served.hold_engines()
            # _FAIR_SLOTS requests take the executing slots; the next
            # two wait in the fair queue, the first of them with the
            # oldest deadline of all
            futures = [
                client.submit(queries[0], deadline=600.0)
                for _ in range(_FAIR_SLOTS)
            ]
            queued_victim = client.submit(queries[0], deadline=300.0)
            futures.append(client.submit(queries[0], deadline=600.0))
            _rows_when(served, lambda stats: stats.accepted == in_flight)
            futures.append(client.submit(queries[0], deadline=600.0))
            with pytest.raises(RequestShedError, match="while queued"):
                queued_victim.result(timeout=60)
            release.set()
            for future in futures:
                assert offsets[0] in future.result(timeout=60).matches
            stats = client.stats()
        # client side: offered == completed + shed + admit_rejected + failed
        assert in_flight + 1 == len(futures) + 1 + 0 + 0
        assert (stats.completed, stats.shed, stats.failed) == (len(futures), 1, 0)
        assert stats.admit_rejected == 0
        rows = assert_rows_partition(stats)
        # the one RequestShedError the client saw, in alice's row only
        assert {tid: row["shed"] for tid, row in rows.items()} == {
            "alice": 1, "bob": 0, "carol": 0
        }
        assert rows["alice"]["backlog"] == 0


def test_remote_engine_and_session_thread_tenant(tenant_service):
    """repro.open_session('remote', tenant=...) routes by tenant."""
    import repro

    db, q, off = _planted_db(4)
    with repro.open_session(
        "remote",
        address=tenant_service.address,
        tenant="bob",
        db_bits=db,
    ) as session:
        assert off in session.search(q).matches
