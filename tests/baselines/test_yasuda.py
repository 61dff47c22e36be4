"""Unit tests for the arithmetic (Yasuda et al.) baseline."""

import numpy as np
import pytest

from repro.baselines import YasudaMatcher, find_all_matches
from repro.he import BFVParams, generate_keys
from repro.utils.bits import random_bits


@pytest.fixture(scope="module")
def setup():
    params = BFVParams.arithmetic_baseline(n=128, t=512)
    matcher = YasudaMatcher(params, max_query_bits=32, seed=21)
    sk, pk, rlk = generate_keys(params, seed=21, relin=True)
    return matcher, sk, pk, rlk


class TestDatabaseEncryption:
    def test_block_overlap_covers_boundaries(self, setup, rng):
        matcher, sk, pk, rlk = setup
        db = random_bits(300, rng)
        enc = matcher.encrypt_database(db, pk)
        stride = matcher.params.n - (matcher.max_query_bits - 1)
        assert enc.block_starts == [0, stride, 2 * stride]

    def test_single_block_for_small_db(self, setup, rng):
        matcher, _, pk, _ = setup
        enc = matcher.encrypt_database(random_bits(50, rng), pk)
        assert len(enc.ciphertexts) == 1


class TestQueryEncoding:
    def test_weight_and_reversal(self, setup):
        matcher, _, _, _ = setup
        q = np.array([1, 0, 1], dtype=np.uint8)
        q_pt, mask_pt, y = matcher.encode_query(q)
        assert y == 3
        n, t = matcher.params.n, matcher.params.t
        assert int(q_pt.poly.coeffs[0]) == 1
        assert int(q_pt.poly.coeffs[n - 2]) == t - 1  # -q2
        assert int(mask_pt.poly.coeffs[n - 1]) == t - 1  # -1 for position 1

    def test_rejects_oversized_query(self, setup, rng):
        matcher, _, _, _ = setup
        with pytest.raises(ValueError):
            matcher.encode_query(random_bits(33, rng))

    def test_params_must_bound_hd_values(self):
        with pytest.raises(ValueError):
            YasudaMatcher(
                BFVParams.arithmetic_baseline(n=128, t=64), max_query_bits=64
            )


class TestSearch:
    def test_finds_planted_match(self, setup, rng):
        matcher, sk, pk, rlk = setup
        db = random_bits(250, rng)
        q = random_bits(20, rng)
        db[37:57] = q  # arbitrary (non-aligned!) offset
        enc = matcher.encrypt_database(db, pk)
        assert matcher.search(enc, q, pk, sk, rlk) == find_all_matches(db, q)

    def test_finds_match_across_block_boundary(self, setup, rng):
        matcher, sk, pk, rlk = setup
        db = random_bits(240, rng)
        q = random_bits(24, rng)
        off = matcher.params.n - 10  # spans blocks 0 and 1
        db[off : off + 24] = q
        enc = matcher.encrypt_database(db, pk)
        assert off in matcher.search(enc, q, pk, sk, rlk)

    def test_no_match(self, setup, rng):
        matcher, sk, pk, rlk = setup
        db = np.zeros(200, dtype=np.uint8)
        q = np.ones(16, dtype=np.uint8)
        enc = matcher.encrypt_database(db, pk)
        assert matcher.search(enc, q, pk, sk, rlk) == []

    def test_multiple_matches(self, setup, rng):
        matcher, sk, pk, rlk = setup
        db = random_bits(220, rng)
        q = random_bits(16, rng)
        db[10:26] = q
        db[100:116] = q
        enc = matcher.encrypt_database(db, pk)
        assert matcher.search(enc, q, pk, sk, rlk) == find_all_matches(db, q)


class TestOpCounts:
    def test_op_counter_tracks_search(self, rng):
        params = BFVParams.arithmetic_baseline(n=128, t=512)
        matcher = YasudaMatcher(params, max_query_bits=32, seed=22)
        from repro.he import generate_keys

        sk, pk, rlk = generate_keys(params, seed=22, relin=True)
        db = random_bits(100, rng)
        enc = matcher.encrypt_database(db, pk)
        matcher.search(enc, random_bits(16, rng), pk, sk, rlk)
        assert matcher.ops.multiplications == 2  # one block
        assert matcher.ops.additions == 3
