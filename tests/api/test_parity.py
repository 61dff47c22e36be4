"""Cross-engine parity: every registered engine, one shared fixture.

The acceptance bar of the facade: every engine the registry knows —
core BFV pipeline, wire protocol, sharded serving, and all six
baselines — is constructible via ``repro.open_session(key, ...)`` and
returns a :class:`SearchResult` whose matches agree with
``baselines.plaintext.find_all_matches`` on (its capability-clamped
view of) the shared fixture.
"""

import numpy as np
import pytest

import repro
from repro.api import DEFAULT_REGISTRY, SearchResult
from repro.baselines import find_all_matches
from tests.oracles import ARITHMETIC

#: engine-appropriate deterministic seeds / scale kwargs
ENGINE_KWARGS = {
    "bfv": {"key_seed": 11},
    "bfv-wire": {"key_seed": 12},
    "bfv-sharded": {"key_seed": 13, "num_shards": 2},
    "plaintext": {},
    "boolean-bfv": {"seed": 14},
    "boolean-tfhe": {"seed": 15},
    "yasuda": {"seed": 16},
    "kim-homeq": {"seed": 17},
    "bonte": {"seed": 18},
    # loopback TCP service around the default bfv-sharded engine: the
    # same parity bar, held across a real socket
    "remote": {"key_seed": 19, "num_shards": 2},
}


def test_every_registered_engine_has_kwargs():
    """Keep ENGINE_KWARGS in sync with the registry."""
    assert set(ENGINE_KWARGS) == set(DEFAULT_REGISTRY.keys())


@pytest.mark.parametrize("key", list(ENGINE_KWARGS))
def test_engine_matches_plaintext_oracle(key, master_fixture):
    caps = DEFAULT_REGISTRY.spec(key).capabilities
    db_view, query = master_fixture.view(caps)
    assert len(query) >= 1

    with repro.open_session(
        key, db_bits=db_view, **ENGINE_KWARGS[key]
    ) as session:
        result = session.search(query)

    assert isinstance(result, SearchResult)
    assert result.engine == key
    assert result.scheme == caps.scheme
    expected = find_all_matches(db_view, query)
    assert list(result.matches) == expected, (
        f"{key}: {list(result.matches)} != oracle {expected} "
        f"(db {len(db_view)} bits, query {len(query)} bits)"
    )
    # the fixture plants the query at bit 8, visible in every view
    assert 8 in result.matches
    assert result.elapsed_seconds >= 0.0
    if caps.scheme != "none":
        assert result.hom_ops.total > 0
        assert result.encrypted_db_bytes > 0


def test_sharded_engine_reports_shards(master_fixture):
    caps = DEFAULT_REGISTRY.spec("bfv-sharded").capabilities
    db_view, query = master_fixture.view(caps)
    with repro.open_session(
        "bfv-sharded", db_bits=db_view, **ENGINE_KWARGS["bfv-sharded"]
    ) as session:
        result = session.search(query)
    assert len(result.shards) == 2
    assert result.sharded
    # the fixture's third occurrence straddles the shard boundary
    assert 1008 in result.matches


def test_baseline_matches_identical_under_reference_arithmetic(master_fixture):
    """A baseline's Hom-Mult / relinearisation chain gives the same
    matches on the oracle's big-int ring arithmetic (context and keys
    swapped after the engine built them the normal way)."""
    caps = DEFAULT_REGISTRY.spec("yasuda").capabilities
    db_view, query = master_fixture.view(caps)
    results = {}
    for backend in ("vectorized", "reference"):
        with repro.open_session("yasuda", seed=16) as session:
            engine = session.engine
            ARITHMETIC[backend](engine.matcher.ctx, engine.sk.s)
            assert engine.rlk.components[0][0].ring is engine.sk.s.ring
            session.outsource(db_view)
            results[backend] = list(session.search(query).matches)
            assert engine.matcher.ctx.ring.backend.name == backend
    assert results["vectorized"] == results["reference"]
    assert results["vectorized"] == find_all_matches(db_view, query)


def test_a_backend_keyword_is_the_engines_own_type_error():
    """No engine takes a ring-arithmetic choice: the keyword fails with
    the constructor's ``TypeError`` naming it, as
    ``EngineRegistry.create`` promises for any argument an engine does
    not take."""
    for key in DEFAULT_REGISTRY.keys():
        with pytest.raises(TypeError, match="poly_backend"):
            repro.open_session(key, poly_backend="reference")
