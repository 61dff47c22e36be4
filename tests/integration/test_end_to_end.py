"""Cross-module integration tests: all three secure matchers agree with
the plaintext oracle on the same workloads."""

import numpy as np
import pytest

from repro.baselines import (
    TfheBooleanMatcher,
    YasudaMatcher,
    find_all_matches,
)
from repro.core import ClientConfig
from repro.he import BFVParams, generate_keys
from repro.serve import ShardedSearchEngine
from repro.tfhe import TFHEParams
from repro.utils.bits import random_bits


class TestThreeWayAgreement:
    """CIPHERMATCH, the arithmetic baseline and the Boolean baseline all
    find the same (chunk-aligned) match."""

    def test_all_matchers_find_the_same_planted_key(self, rng):
        db = random_bits(96, rng)
        q = random_bits(16, rng)
        db[32:48] = q
        # guard against incidental occurrences for the small search space
        expected = find_all_matches(db, q)

        # CIPHERMATCH (aligned occurrences guaranteed for 16-bit queries)
        engine = ShardedSearchEngine(
            ClientConfig(BFVParams.test_small(16), key_seed=1)
        )
        engine.outsource(db)
        cm = engine.search(q).matches
        assert 32 in cm
        assert set(cm).issubset(set(expected))

        # arithmetic baseline: all alignments
        params = BFVParams.arithmetic_baseline(n=128, t=512)
        yasuda = YasudaMatcher(params, max_query_bits=16, seed=2)
        sk, pk, rlk = generate_keys(params, seed=2, relin=True)
        enc = yasuda.encrypt_database(db, pk)
        assert yasuda.search(enc, q, pk, sk, rlk) == expected

    def test_boolean_agrees_on_tiny_db(self, rng):
        db = random_bits(20, rng)
        q = db[8:13].copy()
        expected = find_all_matches(db, q)
        matcher = TfheBooleanMatcher(TFHEParams.test_tiny(), seed=3)
        assert matcher.search(matcher.encrypt_database(db), q) == expected


class TestOperationMixContrast:
    """The quantitative contrast of §3.1/Fig 2c: CIPHERMATCH uses *zero*
    homomorphic multiplications; the arithmetic baseline uses 2 per
    block; the Boolean baseline bootstraps a gate per bit pair."""

    def test_ciphermatch_is_addition_only(self, rng):
        engine = ShardedSearchEngine(
            ClientConfig(BFVParams.test_small(16), key_seed=4)
        )
        engine.outsource(random_bits(400, rng))
        engine.search(random_bits(16, rng))
        counter = engine.client.ctx.counter
        assert counter.multiplications == 0
        assert counter.additions > 0

    def test_arithmetic_baseline_multiplies(self, rng):
        params = BFVParams.arithmetic_baseline(n=128, t=512)
        matcher = YasudaMatcher(params, max_query_bits=16, seed=5)
        sk, pk, rlk = generate_keys(params, seed=5, relin=True)
        enc = matcher.encrypt_database(random_bits(100, rng), pk)
        matcher.search(enc, random_bits(16, rng), pk, sk, rlk)
        assert matcher.ctx.counter.multiplications == 2

    def test_footprint_ordering(self, rng):
        """CIPHERMATCH encrypted footprint < arithmetic < Boolean for
        the same database."""
        db = random_bits(256, rng)

        engine = ShardedSearchEngine(
            ClientConfig(BFVParams.test_small(64), key_seed=6)
        )
        cm_bytes = engine.outsource(db).serialized_bytes

        params = BFVParams.arithmetic_baseline(n=1024, t=1024)
        yasuda = YasudaMatcher(params, max_query_bits=64, seed=6)
        _, pk, _ = generate_keys(params, seed=6)
        arith_bytes = yasuda.encrypt_database(db, pk).serialized_bytes

        # one LWE ciphertext per bit at production parameters: a database
        # encrypted at a test size (lwe_n = 4 or 16) says nothing about
        # the scheme's footprint; test_footprint_is_per_bit checks that an
        # executed one holds lwe_ciphertext_bytes per bit
        bool_bytes = len(db) * TFHEParams.tfhe_lib().lwe_ciphertext_bytes

        assert cm_bytes < arith_bytes < bool_bytes


class TestScaleUp:
    def test_multi_polynomial_database(self, rng):
        """A database spanning 8 polynomials with matches in different
        polynomials."""
        params = BFVParams.test_small(64)
        per_poly = 64 * 16
        db = random_bits(8 * per_poly, rng)
        q = random_bits(64, rng)
        offsets = [0, 3 * per_poly + 160, 7 * per_poly + 512]
        for off in offsets:
            db[off : off + 64] = q
        engine = ShardedSearchEngine(ClientConfig(params, key_seed=8))
        engine.outsource(db)
        report = engine.search(q)
        assert set(report.matches) == set(find_all_matches(db, q))
        assert set(offsets).issubset(set(report.matches))
