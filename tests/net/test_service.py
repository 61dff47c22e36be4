"""Behavioral tests for the TCP service + client SDK.

Covers the tentpole's operational guarantees: concurrent-client
submission ordering, bounded-in-flight backpressure with
oldest-deadline shedding (each shed counted once),
reconnect-and-resend, graceful drain, and the stats frame.

The crypto-heavy lanes use tiny BFV parameters; shedding/ordering
lanes use the plaintext oracle (optionally slowed) so timing-sensitive
assertions stay deterministic.

What a service owes every caller however it was built — from an engine
key, a passed ``Session``, a registry of one or of three tenants — is
asserted over all four through ``conftest.serve`` / the ``served``
fixture; ``test_tenant_service.py`` holds what only tenants add.
"""

import json
import threading
import time

import numpy as np
import pytest

import repro
from repro.api import CapabilityError, PlaintextEngine, Session
from repro.api.requests import WildcardSearch
from repro.he import BFVParams
from repro.net import (
    Client,
    RemoteError,
    RequestShedError,
    ServiceDrainingError,
    ServiceThread,
    parse_address,
)

from .conftest import KINDS, assert_rows_partition, planted_db, serve


class SlowPlaintextEngine(PlaintextEngine):
    """Plaintext oracle with a fixed per-search delay (test harness)."""

    key = "slow-plaintext"

    def __init__(self, delay: float):
        super().__init__()
        self.delay = delay

    def _exact(self, bits, verify):
        time.sleep(self.delay)
        return super()._exact(bits, verify)


@pytest.fixture()
def plaintext_service():
    with ServiceThread(session=Session(PlaintextEngine())) as service:
        yield service


def test_parse_address():
    assert parse_address("127.0.0.1:9137") == ("127.0.0.1", 9137)
    assert parse_address(("::1", 80)) == ("::1", 80)
    with pytest.raises(ValueError):
        parse_address("no-port")


def test_welcome_reports_engine_and_db_state(plaintext_service):
    with Client(plaintext_service.address) as client:
        welcome = client.welcome
        assert welcome.engine == "plaintext"
        assert welcome.scheme == "none"
        assert welcome.db_bit_length is None
        client.outsource(np.zeros(128, dtype=np.uint8))
        # a fresh handshake sees the outsourced length
    with Client(plaintext_service.address) as client2:
        assert client2.welcome.db_bit_length == 128


def test_search_before_outsource_is_a_remote_error(plaintext_service):
    from repro.net import RemoteError

    with Client(plaintext_service.address) as client:
        with pytest.raises(RemoteError, match="outsource"):
            client.search(np.ones(8, dtype=np.uint8))


def test_concurrent_clients_get_their_own_results(plaintext_service):
    """N clients x K in-flight queries each: every future resolves with
    the matches of its own query, whatever coalescing happened."""
    db, queries, offsets = planted_db(num_queries=12)
    with Client(plaintext_service.address) as seed_client:
        seed_client.outsource(db)

    results = {}
    errors = []

    def run_client(client_idx: int) -> None:
        try:
            with Client(plaintext_service.address, pool_size=1) as client:
                futures = [
                    (k, client.submit(queries[k]))
                    for k in range(client_idx, 12, 3)
                ]
                for k, future in futures:
                    results[(client_idx, k)] = future.result(timeout=30).matches
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=run_client, args=(i,)) for i in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for (_, k), matches in results.items():
        assert offsets[k] in matches, f"query {k} lost its own result"


def test_welcome_names_tenant_engine_and_db_state(served):
    db, _, _ = planted_db(num_queries=1)
    for tenant_id in served.tenant_ids:
        with served.client(tenant_id) as client:
            welcome = client.welcome
            assert welcome.tenant == tenant_id
            assert welcome.engine == "bfv-sharded"
            assert welcome.sharded and welcome.batching
            assert welcome.db_bit_length is None
            client.outsource(db)
        # a fresh handshake sees the outsourced length
        with served.client(tenant_id) as client:
            assert client.welcome.db_bit_length == len(db)


def test_submission_order_per_connection(served):
    """Futures of one client resolve with their own query's result in
    submission order (the Session guarantee, preserved over the wire)."""
    db, queries, offsets = planted_db(num_queries=8)
    for tenant_id in served.tenant_ids:
        with served.client(tenant_id, pool_size=1) as client:
            client.outsource(db)
            futures = [client.submit(q) for q in queries]
            for k, future in enumerate(futures):
                assert offsets[k] in future.result(timeout=30).matches


def test_backpressure_sheds_oldest_deadline():
    """With the in-flight bound full, the request with the earliest
    deadline is the one shed — queued victims are cancelled, and an
    incoming request with the oldest deadline sheds itself."""
    engine = SlowPlaintextEngine(0.4)
    engine.outsource(np.zeros(64, dtype=np.uint8))
    with ServiceThread(
        session=Session(engine), max_in_flight=2
    ) as service:
        with Client(service.address, pool_size=1) as client:
            query = np.ones(8, dtype=np.uint8)
            # A starts executing; B queues behind it.
            fut_a = client.submit(query)
            time.sleep(0.15)  # let the dispatcher start A
            fut_b = client.submit(query, deadline=5.0)
            time.sleep(0.05)
            # C has the oldest deadline of the sheddable set -> C shed.
            fut_c = client.submit(query, deadline=0.05)
            with pytest.raises(RequestShedError):
                fut_c.result(timeout=30)
            # D out-deadlines queued B -> B (oldest deadline) cancelled.
            fut_d = client.submit(query, deadline=60.0)
            with pytest.raises(RequestShedError):
                fut_b.result(timeout=30)
            assert fut_a.result(timeout=30).matches == ()
            assert fut_d.result(timeout=30).matches == ()

            stats = client.stats()
            # the two RequestShedErrors above, nothing else, and the
            # default tenant's row carries both
            assert (stats.shed, stats.admit_rejected) == (2, 0)
            assert assert_rows_partition(stats)[""]["shed"] == 2
            assert stats.completed >= 2


def _timeless(report_json: str) -> dict:
    """A ``ServeReport.to_dict()`` without its wall-clock fields and
    the cache snapshot (cumulative by design: the benchmark reads it)."""
    report = json.loads(report_json)
    for key in ("wall_seconds", "latencies", "cache"):
        del report[key]
    for shard in report["shards"]:
        del shard["busy_seconds"]
    return report


@pytest.mark.parametrize("kind", list(KINDS))
def test_sheds_feed_serve_scheduler_accounting(kind):
    """A front-end shed is counted once by the service and once in the
    shedding tenant's accounting row — the client saw one
    ``RequestShedError``, both read 1 — and nowhere else: the report of
    a batch carries no number that depends on what the engine saw before
    it, so the same batch served before and after the shed reports the
    same."""
    with serve(kind, max_in_flight=1) as served:
        tenant_id = served.tenant_ids[-1]
        with served.client(tenant_id, pool_size=1) as client:
            db, queries, offsets = planted_db(num_queries=2)
            client.outsource(db)
            assert offsets[0] in client.search(queries[0]).matches
            before = client.stats()
            release = served.hold_engines()
            fut_keep = client.submit(queries[0], deadline=30.0)
            # the in-flight set is full and the incoming request has
            # the oldest deadline of the two: it sheds itself
            fut_shed = client.submit(queries[1], deadline=0.01)
            with pytest.raises(RequestShedError):
                fut_shed.result(timeout=60)
            release.set()
            assert offsets[0] in fut_keep.result(timeout=60).matches
            stats = client.stats()
        assert (before.shed, stats.shed, stats.admit_rejected) == (0, 1, 0)
        rows = assert_rows_partition(stats)
        assert {tid: row["shed"] for tid, row in rows.items()} == {
            tid: int(tid == tenant_id) for tid in served.tenant_ids
        }
        assert _timeless(stats.report_json) == _timeless(before.report_json)
        assert "sheds" not in _timeless(stats.report_json)


def test_reconnect_after_idle_drop(plaintext_service):
    """A connection dropped while idle is re-established on next use."""
    db, queries, offsets = planted_db(num_queries=1)
    with Client(plaintext_service.address, pool_size=1) as client:
        client.outsource(db)
        assert offsets[0] in client.search(queries[0]).matches
        # Simulate the network dropping the socket under the client.
        conn = client._pool[0]
        conn._sock.shutdown(2)
        time.sleep(0.1)
        assert offsets[0] in client.search(queries[0]).matches


def test_reconnect_resends_in_flight_requests():
    """Requests outstanding on a dropped connection are replayed onto a
    fresh connection and still resolve."""
    engine = SlowPlaintextEngine(0.5)
    db, queries, offsets = planted_db(num_queries=1)
    engine.outsource(db)
    with ServiceThread(session=Session(engine)) as service:
        with Client(service.address, pool_size=1) as client:
            future = client.submit(queries[0])
            time.sleep(0.1)  # request is on the wire / executing
            client._pool[0]._sock.shutdown(2)  # drop the connection
            # the reader notices, reconnects, resends; the resent
            # request executes again and resolves the same future
            assert offsets[0] in future.result(timeout=30).matches


def test_stats_frame_includes_serve_report():
    params = BFVParams.test_small(64)
    with ServiceThread(
        "bfv-sharded", params=params, num_shards=2, key_seed=6
    ) as service:
        with Client(service.address) as client:
            db, queries, _ = planted_db(num_queries=3, bits=32)
            client.outsource(db)
            client.search_batch(queries)
            stats = client.stats()
            assert stats.served_queries == 3
            assert stats.throughput_qps > 0
            assert "serving batch report" in stats.report_text
            assert stats.wall_p50 <= stats.wall_p95 <= stats.wall_p99


def test_stats_renders_the_report_off_the_event_loop(monkeypatch):
    """The first STATS after a batch reads that batch's modeled figures,
    which runs its device-model replay.  That happens on an executor
    thread, never on the event loop: while a replay is blocked, a PING
    on another connection is still answered."""
    from repro.net.framing import FrameType
    from repro.serve.scheduler import ServeScheduler

    entered, release = threading.Event(), threading.Event()
    ran_on = []
    simulate = ServeScheduler.simulate

    def blocked(self, traces, ciphertext_bytes):
        ran_on.append(threading.current_thread().name)
        entered.set()
        release.wait(10)
        return simulate(self, traces, ciphertext_bytes)

    monkeypatch.setattr(ServeScheduler, "simulate", blocked)
    with ServiceThread(
        "bfv-sharded", params=BFVParams.test_small(64), num_shards=2, key_seed=6
    ) as service:
        with Client(service.address, pool_size=1) as client, Client(
            service.address, pool_size=1
        ) as other:
            db, queries, _ = planted_db(num_queries=1)
            client.outsource(db)
            client.search(queries[0])
            other._submit_frame(FrameType.PING, b"", idempotent=True).result()
            # connected before the replay blocks
            assert ran_on == []  # serving the batch replayed nothing
            pending = client._submit_frame(FrameType.STATS, b"", idempotent=True)
            try:
                assert entered.wait(10)
                other._submit_frame(
                    FrameType.PING, b"", idempotent=True
                ).result(timeout=3)
            finally:
                release.set()
            stats = pending.result(timeout=30)
            # the lazy replay survived the executor hop, and ran once
            assert json.loads(stats.report_json)["modeled_makespan"] > 0
            assert client.stats().report_json == stats.report_json
    assert len(ran_on) == 1 and ran_on[0].startswith("repro-net-stats")


def test_stats_rows_partition_global_counters(served):
    """STATS carries one accounting row per tenant — the default tenant
    included — and the rows partition every global counter."""
    searches = {tid: 3 - i for i, tid in enumerate(served.tenant_ids)}
    for seed, (tenant_id, count) in enumerate(searches.items(), start=1):
        db, queries, offsets = planted_db(num_queries=1, seed=seed)
        with served.client(tenant_id) as client:
            client.outsource(db)
            for _ in range(count):
                assert offsets[0] in client.search(queries[0]).matches
    with served.client() as client:
        stats = client.stats()
    rows = assert_rows_partition(stats)
    assert set(rows) == set(served.tenant_ids)
    for tenant_id, count in searches.items():
        assert rows[tenant_id]["accepted"] == count
        assert rows[tenant_id]["completed"] == count
        assert rows[tenant_id]["dispatched"] == count
        assert rows[tenant_id]["backlog"] == 0
        assert rows[tenant_id]["p99_ms"] > 0.0
        assert rows[tenant_id]["cache_bytes"] > 0
    assert stats.completed == sum(searches.values())
    # the same fields mean the same thing on every service
    assert stats.served_queries == len(searches)  # last batch of each
    assert stats.throughput_qps > 0
    assert "serving batch report" in stats.report_text
    assert 0 < stats.wall_p50 <= stats.wall_p95 <= stats.wall_p99
    assert 0 < stats.cache_hit_rate < 1


@pytest.mark.parametrize("kind", list(KINDS))
def test_submit_errors_are_typed_and_counted_once(kind):
    """A request ``Session.submit`` refuses (capability) and one the
    engine fails (no database) are answered with their typed error and
    counted accepted + failed, globally and in the tenant's row."""
    with serve(kind, engine="bfv-wire") as served:
        tenant_id = served.tenant_ids[-1]
        with served.client(tenant_id) as client:
            with pytest.raises(CapabilityError, match="no wildcard path"):
                client.search(WildcardSearch((1, 0, 1, 1), (1, 1, 0, 1)))
            with pytest.raises(RemoteError, match="outsource"):
                client.search(np.ones(8, dtype=np.uint8))
            stats = client.stats()
        assert (stats.accepted, stats.failed, stats.completed) == (2, 2, 0)
        rows = assert_rows_partition(stats)
        assert rows[tenant_id]["failed"] == 2


@pytest.mark.parametrize("kind", list(KINDS))
def test_drain_closes_what_the_service_opened(kind):
    """Drain closes the registry: every session the service opened or
    was handed in a registry, but not a session a caller lent it."""
    db, queries, offsets = planted_db(num_queries=1)
    with serve(kind) as served:
        sessions = [t.session for t in served.registry.tenants()]
        with served.client() as client:
            client.outsource(db)
            assert offsets[0] in client.search(queries[0]).matches
        served.thread.stop()
        served.thread.stop()  # idempotent, like close_all underneath
        for session in sessions:
            if session is served.lent_session:
                assert offsets[0] in session.search(queries[0]).matches
            else:
                with pytest.raises(RuntimeError, match="closed"):
                    session.search(queries[0])


def test_drain_completes_in_flight_then_rejects():
    engine = SlowPlaintextEngine(0.3)
    db, queries, offsets = planted_db(num_queries=1)
    engine.outsource(db)
    with ServiceThread(session=Session(engine)) as service:
        with Client(service.address, pool_size=2) as client:
            in_flight = client.submit(queries[0])
            time.sleep(0.05)
            drainer = threading.Thread(target=client.drain)
            drainer.start()
            # in-flight work completes during the drain
            assert offsets[0] in in_flight.result(timeout=30).matches
            drainer.join(timeout=30)
            assert not drainer.is_alive()
            stats_draining = True  # service refuses new work afterwards
            try:
                client.search(queries[0])
                stats_draining = False
            except (ServiceDrainingError, ConnectionError, OSError):
                pass
            assert stats_draining


def test_open_session_remote_roundtrip(plaintext_service):
    """repro.open_session('remote', address=...) talks to the service."""
    db, queries, offsets = planted_db(num_queries=1)
    with repro.open_session(
        "remote", address=plaintext_service.address, db_bits=db
    ) as session:
        result = session.search(queries[0])
    assert offsets[0] in result.matches
    assert result.engine == "remote"
    assert result.scheme == "none"  # backing engine's scheme, negotiated


def test_malformed_hello_drops_connection_and_service_keeps_serving(
    plaintext_service,
):
    """A HELLO whose tenant field is not UTF-8 is a framing error: the
    connection is dropped, nothing reaches the loop's exception handler,
    and the next well-formed client is served."""
    import gc
    import socket

    from repro.net.framing import (
        Frame,
        FrameType,
        read_frame_sync,
        write_frame_sync,
    )

    loop = plaintext_service._loop
    unhandled = []
    loop.call_soon_threadsafe(
        loop.set_exception_handler, lambda _loop, ctx: unhandled.append(ctx)
    )
    with socket.create_connection(plaintext_service.address, timeout=5) as sock:
        write_frame_sync(
            sock, Frame(FrameType.HELLO, 1, b"\x02\x00\x02\x00\xff\xfe")
        )
        assert read_frame_sync(sock) is None  # dropped, no WELCOME
    with Client(plaintext_service.address) as client:
        assert client.welcome.engine == "plaintext"
        client.outsource(np.ones(64, dtype=np.uint8))
        assert list(client.search(np.ones(8, dtype=np.uint8)).matches)
    # a handler task that died with an exception reports it when collected
    gc.collect()
    assert unhandled == []
