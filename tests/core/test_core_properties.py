"""Property-based tests: the secure matcher agrees with the plaintext
oracle on randomized databases and queries."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import find_all_matches
from repro.core import ClientConfig
from repro.core.query import guaranteed_phases
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine

PARAMS = BFVParams.test_small(16)  # 16 coeffs x 16 bits = 256 bits/poly


def run_search(db_bits: np.ndarray, query_bits: np.ndarray):
    engine = ShardedSearchEngine(ClientConfig(PARAMS, key_seed=99))
    engine.outsource(db_bits)
    return engine.search(query_bits).matches


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    db_len=st.integers(min_value=64, max_value=400),
    q_len=st.integers(min_value=16, max_value=48),
)
def test_matcher_agrees_with_oracle_on_planted_match(data, db_len, q_len):
    """Plant the query at a guaranteed-detectable offset: the search
    must report exactly the oracle's match set."""
    db = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=db_len, max_size=db_len)),
        dtype=np.uint8,
    )
    query = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=q_len, max_size=q_len)),
        dtype=np.uint8,
    )
    phases = guaranteed_phases(q_len, 16)
    phase = data.draw(st.sampled_from(phases))
    max_chunk = (db_len - q_len - phase) // 16
    if max_chunk < 0:
        return
    chunk = data.draw(st.integers(0, max_chunk))
    offset = 16 * chunk + phase
    db[offset : offset + q_len] = query

    matches = run_search(db, query)
    oracle = find_all_matches(db, query)
    assert offset in matches
    # every verified match is a true match; every oracle match at a
    # guaranteed phase is found
    assert set(matches).issubset(set(oracle))
    for m in oracle:
        if m % 16 in phases:
            assert m in matches


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    db_len=st.integers(min_value=100, max_value=300),
)
def test_no_false_positives(data, db_len):
    """Whatever the database, reported (verified) matches are real."""
    db = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=db_len, max_size=db_len)),
        dtype=np.uint8,
    )
    query = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=24, max_size=24)),
        dtype=np.uint8,
    )
    matches = run_search(db, query)
    oracle = set(find_all_matches(db, query))
    assert set(matches).issubset(oracle)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=16, max_value=256))
def test_variant_count_formula(q_len):
    """#variants == 16 phases with span rotations: the op-count the
    performance model uses."""
    from repro.core.query import QueryPreparer
    from repro.he import BFVContext

    ctx = BFVContext(PARAMS, seed=1)
    prepared = QueryPreparer(ctx, 16).prepare(np.ones(q_len, dtype=np.uint8))
    expected = 0
    for s in range(16):
        o = (16 - s) % 16
        interior = (q_len - o) // 16 if q_len > o else 0
        expected += max(interior, 1)
    assert prepared.num_variants == expected
