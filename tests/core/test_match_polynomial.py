"""Unit tests for the match polynomial and index generation modes."""

import numpy as np
import pytest

from repro.core.match_polynomial import (
    DeterministicComparator,
    flag_matches_by_decryption,
    match_value,
)
from repro.core.packing import DataPacker, derive_masking_poly
from repro.he import BFVContext, BFVParams, KeyGenerator
from repro.utils.bits import random_bits


@pytest.fixture(scope="module")
def setup():
    params = BFVParams.test_small(64)
    ctx = BFVContext(params, seed=9)
    gen = KeyGenerator(params, seed=9)
    sk = gen.secret_key()
    pk = gen.public_key(sk)
    return params, ctx, sk, pk


class TestMatchValue:
    def test_16bit(self):
        assert match_value(16) == 0xFFFF

    def test_8bit(self):
        assert match_value(8) == 0xFF


class TestDecryptionFlags:
    def test_flags_only_matching_coefficients(self, setup, rng):
        params, ctx, sk, pk = setup
        coeffs = rng.integers(0, 0xFFFF, params.n, dtype=np.int64)  # < 0xFFFF
        coeffs[7] = 0xFFFF
        coeffs[12] = 0xFFFF
        ct = ctx.encrypt(ctx.plaintext(coeffs), pk)
        flags = flag_matches_by_decryption(ctx, ct, sk, 16)
        assert set(np.nonzero(flags)[0]) == {7, 12}

    def test_homomorphic_sum_flags(self, setup, rng):
        # chunk + ~chunk at position k -> flagged after Hom-Add
        params, ctx, sk, pk = setup
        data = rng.integers(0, 1 << 16, params.n, dtype=np.int64)
        query = rng.integers(0, 1 << 16, params.n, dtype=np.int64)
        query[5] = 0xFFFF - data[5]  # plant exactly one complement pair
        # guard: avoid accidental complements elsewhere
        for i in range(params.n):
            if i != 5 and (data[i] + query[i]) % (1 << 16) == 0xFFFF:
                query[i] = (query[i] + 1) % (1 << 16)
        ct = ctx.add(
            ctx.encrypt(ctx.plaintext(data), pk), ctx.encrypt(ctx.plaintext(query), pk)
        )
        flags = flag_matches_by_decryption(ctx, ct, sk, 16)
        assert list(np.nonzero(flags)[0]) == [5]


class TestDeterministicComparator:
    def test_detects_match_without_secret_key(self, setup, rng):
        params, ctx, sk, pk = setup
        seed = 42
        packer = DataPacker(ctx)
        bits = random_bits(params.n * 16, rng)
        packed = packer.pack(bits)
        enc_db = packer.encrypt(packed, pk, deterministic_seed=seed)

        # query plaintext = complement of db chunks => every coefficient matches
        complement = np.array(
            [0xFFFF - packed.chunk(i) for i in range(params.n)], dtype=np.int64
        )
        u_q = derive_masking_poly(ctx, seed, "qv", 0)
        q_ct = ctx.encrypt(ctx.plaintext(complement), pk, noiseless=True, u=u_q)
        result = ctx.add(enc_db.ciphertexts[0], q_ct)

        comparator = DeterministicComparator(ctx, pk, seed, 16)
        flags = comparator.flag_matches(result, db_poly_index=0, query_row=0)
        assert flags.all()

    def test_no_false_positives(self, setup, rng):
        params, ctx, sk, pk = setup
        seed = 43
        packer = DataPacker(ctx)
        bits = random_bits(params.n * 16, rng)
        enc_db = packer.encrypt(packer.pack(bits), pk, deterministic_seed=seed)
        # random (non-complement) query
        coeffs = rng.integers(0, 1 << 16, params.n, dtype=np.int64)
        u_q = derive_masking_poly(ctx, seed, "qv", 0)
        q_ct = ctx.encrypt(ctx.plaintext(coeffs), pk, noiseless=True, u=u_q)
        result = ctx.add(enc_db.ciphertexts[0], q_ct)
        comparator = DeterministicComparator(ctx, pk, seed, 16)
        flags = comparator.flag_matches(result, 0, 0)
        packed = packer.pack(bits)
        expected = np.array(
            [
                (packed.chunk(i) + int(coeffs[i])) % (1 << 16) == 0xFFFF
                for i in range(params.n)
            ]
        )
        assert np.array_equal(flags, expected)

    def test_wrong_seed_finds_nothing(self, setup, rng):
        params, ctx, sk, pk = setup
        packer = DataPacker(ctx)
        bits = random_bits(params.n * 16, rng)
        packed = packer.pack(bits)
        enc_db = packer.encrypt(packed, pk, deterministic_seed=1)
        complement = np.array(
            [0xFFFF - packed.chunk(i) for i in range(params.n)], dtype=np.int64
        )
        u_q = derive_masking_poly(ctx, 1, "qv", 0)
        q_ct = ctx.encrypt(ctx.plaintext(complement), pk, noiseless=True, u=u_q)
        result = ctx.add(enc_db.ciphertexts[0], q_ct)
        comparator = DeterministicComparator(ctx, pk, seed=2, chunk_width=16)
        assert not comparator.flag_matches(result, 0, 0).any()
