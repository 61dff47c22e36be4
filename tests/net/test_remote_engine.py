"""RemoteEngine: the facade contract held over a real socket.

The acceptance bar of the networked layer: `repro.open_session("remote")`
returns byte-identical results to the in-process engine it fronts —
same matches, same homomorphic-op accounting, same shard breakdown —
through fused-kernel and per-pair-adder shards alike.
"""

import numpy as np
import pytest

import repro
from repro.api import (
    BatchSearchResult,
    DEFAULT_REGISTRY,
    SearchResult,
    ShardedEngine,
    WildcardSearch,
)
from repro.baselines import find_all_matches
from repro.he import BFVParams
from repro.net import RemoteEngine
from tests.oracles import ADDER_KWARGS


@pytest.fixture(scope="module")
def fixture_db():
    rng = np.random.default_rng(20260728)
    db = rng.integers(0, 2, 2048).astype(np.uint8)
    query = rng.integers(0, 2, 32).astype(np.uint8)
    db[8:40] = query
    db[1008:1040] = query  # straddles the 2-shard boundary at n=64
    return db, query


def test_remote_is_registered():
    assert "remote" in DEFAULT_REGISTRY
    spec = DEFAULT_REGISTRY.spec("remote")
    assert spec.capabilities.batching
    assert spec.capabilities.wildcard


def _engine_pair(params, db, **kwargs):
    """(in-process, remote-loopback) engines with identical config."""
    local = ShardedEngine(params=params, **kwargs)
    local.outsource(db)
    remote = RemoteEngine(engine="bfv-sharded", params=params, **kwargs)
    remote.outsource(db)
    return local, remote


def test_byte_identical_results_vs_in_process(fixture_db):
    """Same keys, same kernel: every result field the engine computes
    (matches, hom-op tally, variants, db footprint, shard breakdown)
    is identical across the socket boundary."""
    db, query = fixture_db
    params = BFVParams.test_small(64)
    local, remote = _engine_pair(
        params, db, num_shards=2, key_seed=31
    )
    try:
        local_result = local.execute(repro.api.ExactSearch.from_bits(query))
        remote_result = remote.execute(repro.api.ExactSearch.from_bits(query))
        assert remote_result.matches == local_result.matches
        assert remote_result.hom_ops == local_result.hom_ops
        assert remote_result.num_variants == local_result.num_variants
        assert (
            remote_result.encrypted_db_bytes
            == local_result.encrypted_db_bytes
        )
        assert remote_result.shards == local_result.shards
        assert remote_result.engine == "remote"
        assert local_result.engine == "bfv-sharded"
        assert remote_result.scheme == local_result.scheme == "bfv"
    finally:
        local.close()
        remote.close()


def test_shard_breakdown_is_the_batch_not_the_engine_lifetime(fixture_db):
    """The same query four times reports the same per-shard work four
    times, in-process and over TCP — not a running total."""
    db, query = fixture_db
    local, remote = _engine_pair(
        BFVParams.test_small(64), db, num_shards=2, key_seed=31
    )
    try:
        request = repro.api.ExactSearch.from_bits(query)
        for engine in (local, remote):
            results = [engine.execute(request) for _ in range(4)]
            breakdowns = [r.shards for r in results]
            assert breakdowns == [breakdowns[0]] * 4
            for r in results:
                assert [s.tasks_executed for s in r.shards] == [1, 1]
                assert sum(s.hom_adds for s in r.shards) == r.hom_ops.additions
    finally:
        local.close()
        remote.close()


@pytest.mark.parametrize("adder", ["fused", "object"])
def test_kernel_parity_over_socket(fixture_db, adder):
    """Fused-kernel shards and per-pair-adder shards return identical
    flags through the wire."""
    db, query = fixture_db
    params = BFVParams.test_small(64)
    local, remote = _engine_pair(
        params,
        db,
        num_shards=2,
        key_seed=33,
        **ADDER_KWARGS[adder]["bfv-sharded"],
    )
    try:
        expected = find_all_matches(db, query)
        local_result = local.execute(repro.api.ExactSearch.from_bits(query))
        remote_result = remote.execute(repro.api.ExactSearch.from_bits(query))
        assert list(remote_result.matches) == expected
        assert remote_result.matches == local_result.matches
        assert remote_result.hom_ops == local_result.hom_ops
    finally:
        local.close()
        remote.close()


def test_batch_parity_and_dedup_over_socket(fixture_db):
    db, query = fixture_db
    params = BFVParams.test_small(64)
    queries = [query, db[100:132].copy(), query]  # repeat exercises dedup
    local, remote = _engine_pair(params, db, num_shards=2, key_seed=35)
    try:
        batch = repro.api.BatchSearch.from_bit_arrays(queries)
        local_result = local.execute(batch)
        remote_result = remote.execute(batch)
        assert isinstance(remote_result, BatchSearchResult)
        assert (
            remote_result.matches_per_query()
            == local_result.matches_per_query()
        )
        assert remote_result.deduplicated_hits == (
            local_result.deduplicated_hits
        ) == 1
        assert all(r.engine == "remote" for r in remote_result.results)
    finally:
        local.close()
        remote.close()


def test_wildcard_executes_server_side(fixture_db):
    db, _ = fixture_db
    params = BFVParams.test_small(64)
    # literal-?-literal over real database content; both literal
    # segments are full 32-bit queries, so detection needs no
    # verification-filtered short-query candidates
    bits = db[8:80].copy()
    mask = np.ones(72, dtype=np.uint8)
    mask[32:40] = 0
    local, remote = _engine_pair(params, db, num_shards=2, key_seed=37)
    try:
        request = WildcardSearch(tuple(bits), tuple(mask))
        local_result = local.execute(request)
        remote_result = remote.execute(request)
        assert remote_result.matches == local_result.matches
        assert 8 in remote_result.matches
    finally:
        local.close()
        remote.close()


def test_open_session_remote_with_session_surface(fixture_db):
    """Sessions (sync search, submit futures, batch) work unchanged."""
    db, query = fixture_db
    expected = find_all_matches(db, query)
    with repro.open_session(
        "remote", key_seed=39, num_shards=2,
        params=BFVParams.test_small(64), db_bits=db,
    ) as session:
        result = session.search(query)
        assert list(result.matches) == expected
        futures = session.submit_batch([query, query])
        for future in futures:
            assert list(future.result(timeout=60).matches) == expected
        batch = session.search_batch([query, db[100:132]])
        assert batch.num_queries == 2
        assert isinstance(batch.results[0], SearchResult)


def test_negotiated_capabilities_enforced_client_side(fixture_db):
    """A capability-limited backing engine's limits are negotiated in
    the WELCOME handshake and enforced before any bytes move."""
    db, _ = fixture_db
    from repro.api import CapabilityError

    remote = RemoteEngine(engine="yasuda", seed=41)
    try:
        caps = remote.capabilities
        assert caps.scheme == "bfv-arith"
        assert caps.max_query_bits == 32
        assert not caps.wildcard
        remote.outsource(db[:256])
        with pytest.raises(CapabilityError, match="caps queries"):
            remote.execute(
                repro.api.ExactSearch.from_bits(np.ones(40, dtype=np.uint8))
            )
    finally:
        remote.close()


def test_capability_errors_cross_the_wire(fixture_db):
    """A raw client (no negotiated pre-check) still gets the typed
    CapabilityError back from the server's session layer."""
    db, _ = fixture_db
    from repro.api import CapabilityError
    from repro.net import Client, ServiceThread

    with ServiceThread("yasuda", seed=43) as service:
        with Client(service.address) as client:
            client.outsource(db[:256])
            with pytest.raises(CapabilityError, match="caps queries"):
                client.search(np.ones(40, dtype=np.uint8))


def test_close_is_graceful_and_idempotent(fixture_db):
    db, query = fixture_db
    remote = RemoteEngine(
        engine="bfv-sharded", params=BFVParams.test_small(64),
        num_shards=2, key_seed=43,
    )
    remote.outsource(db)
    remote.execute(repro.api.ExactSearch.from_bits(query))
    remote.close()
    remote.close()  # idempotent
