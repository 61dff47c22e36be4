"""Tests for the Kim HomEQ [34] and Bonte & Iliashenko [29] baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bonte import BonteMatcher, bonte_params
from repro.baselines.kim_homeq import KimHomEQMatcher, homeq_params
from repro.baselines.plaintext import find_all_matches


@pytest.fixture(scope="module")
def kim():
    return KimHomEQMatcher(seed=3)


@pytest.fixture(scope="module")
def bonte():
    return BonteMatcher(seed=3)


class TestKimHomEQ:
    def test_single_match(self, kim):
        db = kim.encrypt_database([0, 1, 2, 3, 0, 1])
        assert kim.search(db, [2, 3]) == [2]

    def test_multiple_matches(self, kim):
        db = kim.encrypt_database([1, 2, 1, 2, 1])
        assert kim.search(db, [1, 2]) == [0, 2]

    def test_no_match(self, kim):
        db = kim.encrypt_database([0, 0, 0, 0])
        assert kim.search(db, [1, 2]) == []

    def test_overlapping_matches(self, kim):
        db = kim.encrypt_database([1, 1, 1, 1])
        assert kim.search(db, [1, 1]) == [0, 1, 2]

    def test_whole_database_query(self, kim):
        db = kim.encrypt_database([3, 1, 4, 1])
        assert kim.search(db, [3, 1, 4, 1]) == [0]

    def test_query_length_capped_below_t(self, kim):
        db = kim.encrypt_database([0, 1, 2, 3, 4, 0])
        with pytest.raises(ValueError, match="below t"):
            kim.encrypt_query([0, 1, 2, 3, 4])  # length 5 = t

    def test_character_outside_alphabet_rejected(self, kim):
        with pytest.raises(ValueError, match="alphabet"):
            kim.encrypt_database([0, 5])

    def test_compressed_result_is_single_ciphertext(self, kim):
        db = kim.encrypt_database([0, 1, 2, 3])
        compressed = kim.search_compressed(db, [1, 2])
        assert compressed.size == 2  # one ordinary (c0, c1) ciphertext

    def test_multiplication_count_model(self):
        # 2 squarings per x^4; per alignment: L chars + 1 final EQ.
        m = KimHomEQMatcher(seed=0)
        db = m.encrypt_database([0, 1, 2, 3, 0, 1])
        m.search(db, [1, 2])
        assert m.ctx.counter.multiplications == 5 * (2 * 2 + 2)

    def test_stats_accumulate(self):
        m = KimHomEQMatcher(seed=0)
        db = m.encrypt_database([0, 1, 2])
        m.search(db, [1])
        assert m.ctx.counter.multiplications > 0
        assert m.ctx.counter.plain_multiplications == 3

    def test_matches_plaintext_oracle_on_chars(self, kim):
        chars = [0, 2, 1, 2, 1, 2]
        query = [1, 2]
        db = kim.encrypt_database(chars)
        expected = [
            k
            for k in range(len(chars) - len(query) + 1)
            if chars[k : k + len(query)] == query
        ]
        assert kim.search(db, query) == expected

    def test_params_preset(self):
        p = homeq_params(n=32, t=5)
        assert p.n == 32 and p.t == 5 and p.q.bit_length() == 62


class TestBonte:
    def test_basic_search(self, bonte):
        db = bonte.encrypt_database([1, 0, 1, 1, 0, 1, 1, 0], window_bits=3)
        assert bonte.search(db, [1, 1, 0]) == [2, 5]

    def test_matches_plaintext_oracle(self, bonte):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, 20)
        query = [1, 0, 1]
        db = bonte.encrypt_database(bits, window_bits=3)
        assert bonte.search(db, query) == find_all_matches(bits, np.array(query))

    def test_multi_ciphertext_database(self, bonte):
        """More windows than slots forces batching across ciphertexts."""
        bits = [1, 0] * 8  # 16 bits -> 14 windows > n=8 slots
        db = bonte.encrypt_database(bits, window_bits=3)
        assert len(db.ciphertexts) == 2
        assert bonte.search(db, [0, 1, 0]) == find_all_matches(
            np.array(bits), np.array([0, 1, 0])
        )

    def test_window_capacity_enforced(self, bonte):
        with pytest.raises(ValueError, match="slot capacity"):
            bonte.encrypt_database([1] * 10, window_bits=5)

    def test_query_must_match_window_size(self, bonte):
        db = bonte.encrypt_database([1, 0, 1, 1], window_bits=3)
        with pytest.raises(ValueError, match="fixed size"):
            bonte.search(db, [1, 0])

    def test_constant_depth_property(self, bonte):
        """Multiplication count per batch is independent of query size."""
        per_batch = []
        for window in (2, 4):
            db = bonte.encrypt_database([1, 0] * 10, window_bits=window)
            before = bonte.ctx.counter.multiplications
            bonte.search(db, [1, 0] * (window // 2))
            spent = bonte.ctx.counter.multiplications - before
            per_batch.append(spent / len(db.ciphertexts))
        assert per_batch[0] == per_batch[1]

    def test_max_window_bits(self, bonte):
        assert bonte.max_window_bits == 4  # log2(17) rounded down

    def test_params_preset(self):
        p = bonte_params()
        assert p.t == 17 and p.n == 8

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=8, deadline=None)
    def test_every_window_value_detectable(self, value):
        bonte = BonteMatcher(seed=1)
        query = [int(b) for b in format(value, "03b")]
        bits = [0, 0] + query + [1, 1]
        db = bonte.encrypt_database(bits, window_bits=3)
        assert 2 in bonte.search(db, query)
