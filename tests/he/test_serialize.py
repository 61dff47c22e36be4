"""Unit tests for the wire-format serialization."""

import numpy as np
import pytest

from repro.he import (
    BFVContext,
    BFVParams,
    KeyGenerator,
    deserialize_ciphertext,
    serialize_ciphertext,
)


@pytest.fixture(scope="module")
def setup():
    params = BFVParams.test_small(64)
    ctx = BFVContext(params, seed=61)
    gen = KeyGenerator(params, seed=61)
    sk = gen.secret_key()
    pk = gen.public_key(sk)
    return params, ctx, sk, pk


class TestCiphertextSerialization:
    def test_roundtrip(self, setup, rng):
        params, ctx, sk, pk = setup
        m = rng.integers(0, params.t, params.n, dtype=np.int64)
        ct = ctx.encrypt(ctx.plaintext(m), pk)
        restored = deserialize_ciphertext(serialize_ciphertext(ct), ctx)
        assert restored == ct
        assert np.array_equal(ctx.decrypt(restored, sk).poly.coeffs, m)

    def test_serialized_size_matches_accounting(self, setup, rng):
        params, ctx, _, pk = setup
        m = rng.integers(0, params.t, params.n, dtype=np.int64)
        ct = ctx.encrypt(ctx.plaintext(m), pk)
        blob = serialize_ciphertext(ct)
        header = 26  # magic(4) + kind(1) + n(4) + q(8) + t(8) + count(1)
        assert len(blob) == header + params.ciphertext_bytes

    def test_size3_ciphertext(self, setup):
        # serialize an (artificially) size-3 ciphertext
        params, ctx, _, pk = setup
        m = np.zeros(params.n, dtype=np.int64)
        ct = ctx.encrypt(ctx.plaintext(m), pk)
        from repro.he.bfv import Ciphertext

        big = Ciphertext(params, ct.c0, ct.c1, ct.c1.copy())
        restored = deserialize_ciphertext(serialize_ciphertext(big), ctx)
        assert restored.size == 3
        assert restored.c2 == big.c2

    def test_homomorphic_add_after_roundtrip(self, setup, rng):
        """The protocol use case: server deserializes and computes."""
        params, ctx, sk, pk = setup
        m1 = rng.integers(0, params.t, params.n, dtype=np.int64)
        m2 = rng.integers(0, params.t, params.n, dtype=np.int64)
        blob1 = serialize_ciphertext(ctx.encrypt(ctx.plaintext(m1), pk))
        blob2 = serialize_ciphertext(ctx.encrypt(ctx.plaintext(m2), pk))
        result = ctx.add(
            deserialize_ciphertext(blob1, ctx), deserialize_ciphertext(blob2, ctx)
        )
        assert np.array_equal(
            ctx.decrypt(result, sk).poly.coeffs, (m1 + m2) % params.t
        )

    def test_rejects_wrong_kind(self, setup, rng):
        params, ctx, _, pk = setup
        m = rng.integers(0, params.t, params.n, dtype=np.int64)
        blob = bytearray(serialize_ciphertext(ctx.encrypt(ctx.plaintext(m), pk)))
        blob[4] = 3  # the kind byte, after the 4-byte magic
        with pytest.raises(ValueError, match="kind"):
            deserialize_ciphertext(blob, ctx)

    def test_rejects_bad_magic(self, setup):
        _, ctx, _, _ = setup
        with pytest.raises(ValueError):
            deserialize_ciphertext(b"XXXX" + bytes(40), ctx)

    def test_rejects_truncation(self, setup, rng):
        params, ctx, _, pk = setup
        m = rng.integers(0, params.t, params.n, dtype=np.int64)
        blob = serialize_ciphertext(ctx.encrypt(ctx.plaintext(m), pk))
        with pytest.raises(ValueError):
            deserialize_ciphertext(blob[:-3], ctx)

    def test_rejects_parameter_mismatch(self, setup, rng):
        params, ctx, _, pk = setup
        m = rng.integers(0, params.t, params.n, dtype=np.int64)
        blob = serialize_ciphertext(ctx.encrypt(ctx.plaintext(m), pk))
        other_ctx = BFVContext(BFVParams.test_small(128), seed=1)
        with pytest.raises(ValueError):
            deserialize_ciphertext(blob, other_ctx)
