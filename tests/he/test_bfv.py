"""Unit tests for the BFV scheme: encryption, decryption, and every
homomorphic operation."""

import numpy as np
import pytest

from repro.he import BFVContext, BFVParams, KeyGenerator
from repro.he.bfv import Ciphertext
from tests.oracles import encrypt_symmetric, noise_budget_bits


@pytest.fixture(scope="module")
def ctx(small_params):
    return BFVContext(small_params, seed=77)


@pytest.fixture(scope="module")
def keys(small_params):
    gen = KeyGenerator(small_params, seed=77)
    sk = gen.secret_key()
    return sk, gen.public_key(sk)


def random_message(ctx, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, ctx.params.t, ctx.params.n, dtype=np.int64)


class TestEncryptDecrypt:
    def test_roundtrip(self, ctx, keys):
        sk, pk = keys
        m = random_message(ctx, 1)
        ct = ctx.encrypt(ctx.plaintext(m), pk)
        assert np.array_equal(ctx.decrypt(ct, sk).poly.coeffs, m)

    def test_roundtrip_extremes(self, ctx, keys):
        sk, pk = keys
        m = np.zeros(ctx.params.n, dtype=np.int64)
        m[0] = ctx.params.t - 1  # max plaintext value
        ct = ctx.encrypt(ctx.plaintext(m), pk)
        assert np.array_equal(ctx.decrypt(ct, sk).poly.coeffs, m)

    def test_ciphertexts_are_randomized(self, ctx, keys):
        _, pk = keys
        m = ctx.plaintext(random_message(ctx, 2))
        assert ctx.encrypt(m, pk) != ctx.encrypt(m, pk)

    def test_noiseless_with_fixed_u_is_deterministic(self, ctx, keys):
        _, pk = keys
        m = ctx.plaintext(random_message(ctx, 3))
        u = ctx.ring.random_ternary(np.random.default_rng(9))
        ct1 = ctx.encrypt(m, pk, noiseless=True, u=u)
        ct2 = ctx.encrypt(m, pk, noiseless=True, u=u)
        assert ct1 == ct2

    def test_noiseless_noise_is_only_pk_error(self, ctx, keys):
        # noiseless mode drops e0/e1; the residual -e_pk * u from the
        # public key remains, small and deterministic given u.
        sk, pk = keys
        m = ctx.plaintext(random_message(ctx, 4))
        u = ctx.ring.random_ternary(np.random.default_rng(4))
        ct = ctx.encrypt(m, pk, noiseless=True, u=u)
        residual = ctx.noise_residual(ct, sk)
        assert residual < 20 * ctx.params.n * ctx.params.sigma
        ct2 = ctx.encrypt(m, pk, noiseless=True, u=u)
        assert ctx.noise_residual(ct2, sk) == residual

    def test_symmetric_encryption(self, ctx, keys):
        sk, _ = keys
        m = random_message(ctx, 5)
        ct = encrypt_symmetric(ctx, ctx.plaintext(m), sk)
        assert np.array_equal(ctx.decrypt(ct, sk).poly.coeffs, m)

    def test_fresh_noise_budget_positive(self, ctx, keys):
        sk, pk = keys
        ct = ctx.encrypt(ctx.plaintext(random_message(ctx, 6)), pk)
        assert noise_budget_bits(ctx, ct, sk) > 2

    def test_ciphertext_serialized_bytes(self, ctx, keys):
        _, pk = keys
        ct = ctx.encrypt(ctx.plaintext(random_message(ctx, 7)), pk)
        assert ct.serialized_bytes == ctx.params.ciphertext_bytes

    def test_wrong_key_garbles(self, ctx, keys):
        _, pk = keys
        other = KeyGenerator(ctx.params, seed=999).secret_key()
        m = random_message(ctx, 8)
        ct = ctx.encrypt(ctx.plaintext(m), pk)
        assert not np.array_equal(ctx.decrypt(ct, other).poly.coeffs, m)


class TestHomomorphicAddition:
    def test_add(self, ctx, keys):
        sk, pk = keys
        m1, m2 = random_message(ctx, 10), random_message(ctx, 11)
        ct = ctx.add(
            ctx.encrypt(ctx.plaintext(m1), pk), ctx.encrypt(ctx.plaintext(m2), pk)
        )
        assert np.array_equal(
            ctx.decrypt(ct, sk).poly.coeffs, (m1 + m2) % ctx.params.t
        )

    def test_add_wraps_mod_t(self, ctx, keys):
        sk, pk = keys
        m = np.full(ctx.params.n, ctx.params.t - 1, dtype=np.int64)
        ct = ctx.encrypt(ctx.plaintext(m), pk)
        result = ctx.decrypt(ctx.add(ct, ct), sk).poly.coeffs
        assert np.array_equal(result, np.full(ctx.params.n, ctx.params.t - 2))

    def test_sub(self, ctx, keys):
        sk, pk = keys
        m1, m2 = random_message(ctx, 12), random_message(ctx, 13)
        ct = ctx.sub(
            ctx.encrypt(ctx.plaintext(m1), pk), ctx.encrypt(ctx.plaintext(m2), pk)
        )
        assert np.array_equal(
            ctx.decrypt(ct, sk).poly.coeffs, (m1 - m2) % ctx.params.t
        )

    def test_negate(self, ctx, keys):
        sk, pk = keys
        m = random_message(ctx, 14)
        ct = ctx.negate(ctx.encrypt(ctx.plaintext(m), pk))
        assert np.array_equal(ctx.decrypt(ct, sk).poly.coeffs, (-m) % ctx.params.t)

    def test_add_plain(self, ctx, keys):
        sk, pk = keys
        m1, m2 = random_message(ctx, 15), random_message(ctx, 16)
        ct = ctx.add_plain(ctx.encrypt(ctx.plaintext(m1), pk), ctx.plaintext(m2))
        assert np.array_equal(
            ctx.decrypt(ct, sk).poly.coeffs, (m1 + m2) % ctx.params.t
        )

    def test_add_noise_grows_slowly(self, ctx, keys):
        sk, pk = keys
        ct = ctx.encrypt(ctx.plaintext(random_message(ctx, 17)), pk)
        acc = ct
        for _ in range(20):
            acc = ctx.add(acc, ct)
        # 21 summed fresh ciphertexts still decrypt fine
        assert noise_budget_bits(ctx, acc, sk) > 0

    def test_add_chain_correctness(self, ctx, keys):
        sk, pk = keys
        m = random_message(ctx, 18)
        ct = ctx.encrypt(ctx.plaintext(m), pk)
        acc = ct
        for _ in range(4):
            acc = ctx.add(acc, ct)
        assert np.array_equal(ctx.decrypt(acc, sk).poly.coeffs, (5 * m) % ctx.params.t)

    def test_add_rejects_size3(self, ctx, keys):
        _, pk = keys
        ct = ctx.encrypt(ctx.plaintext(random_message(ctx, 19)), pk)
        fake = Ciphertext(ctx.params, ct.c0, ct.c1, ct.c1)
        with pytest.raises(ValueError):
            ctx.add(fake, ct)


class TestHomomorphicMultiplication:
    @pytest.fixture(scope="class")
    def mctx(self, mult_params):
        return BFVContext(mult_params, seed=55)

    @pytest.fixture(scope="class")
    def mkeys(self, mult_params):
        gen = KeyGenerator(mult_params, seed=55)
        sk = gen.secret_key()
        return sk, gen.public_key(sk), gen.relin_key(sk)

    def _enc(self, mctx, pk, coeffs):
        full = np.zeros(mctx.params.n, dtype=np.int64)
        full[: len(coeffs)] = coeffs
        return mctx.encrypt(mctx.plaintext(full), pk)

    def test_constant_product(self, mctx, mkeys):
        sk, pk, rlk = mkeys
        ct = mctx.multiply(self._enc(mctx, pk, [3]), self._enc(mctx, pk, [5]), rlk)
        assert int(mctx.decrypt(ct, sk).poly.coeffs[0]) == 15

    def test_polynomial_product(self, mctx, mkeys):
        sk, pk, rlk = mkeys
        # (1 + 2x)(3 + x) = 3 + 7x + 2x^2
        ct = mctx.multiply(self._enc(mctx, pk, [1, 2]), self._enc(mctx, pk, [3, 1]), rlk)
        out = mctx.decrypt(ct, sk).poly.coeffs
        assert list(out[:3]) == [3, 7, 2]

    def test_unrelinearized_decrypts_with_s_squared(self, mctx, mkeys):
        sk, pk, _ = mkeys
        ct = mctx.multiply(self._enc(mctx, pk, [2]), self._enc(mctx, pk, [7]))
        assert ct.size == 3
        assert int(mctx.decrypt(ct, sk).poly.coeffs[0]) == 14

    def test_relinearize_reduces_size(self, mctx, mkeys):
        sk, pk, rlk = mkeys
        ct = mctx.multiply(self._enc(mctx, pk, [2]), self._enc(mctx, pk, [7]))
        ct2 = mctx.relinearize(ct, rlk)
        assert ct2.size == 2
        assert int(mctx.decrypt(ct2, sk).poly.coeffs[0]) == 14

    def test_relinearize_noop_on_size2(self, mctx, mkeys):
        _, pk, rlk = mkeys
        ct = self._enc(mctx, pk, [1])
        assert mctx.relinearize(ct, rlk) is ct

    def test_mult_add_mix(self, mctx, mkeys):
        sk, pk, rlk = mkeys
        # 3*5 + 4 = 19
        prod = mctx.multiply(self._enc(mctx, pk, [3]), self._enc(mctx, pk, [5]), rlk)
        result = mctx.add(prod, self._enc(mctx, pk, [4]))
        assert int(mctx.decrypt(result, sk).poly.coeffs[0]) == 19

    def test_multiply_plain(self, mctx, mkeys):
        sk, pk, _ = mkeys
        ct = self._enc(mctx, pk, [2, 1])
        pt = np.zeros(mctx.params.n, dtype=np.int64)
        pt[0] = 3
        out = mctx.multiply_plain(ct, mctx.plaintext(pt))
        assert list(mctx.decrypt(out, sk).poly.coeffs[:2]) == [6, 3]

    def test_negacyclic_wraparound_in_product(self, mctx, mkeys):
        sk, pk, rlk = mkeys
        n, t = mctx.params.n, mctx.params.t
        # x^(n-1) * x = -1 mod (x^n + 1)
        a = np.zeros(n, dtype=np.int64)
        a[n - 1] = 1
        b = np.zeros(n, dtype=np.int64)
        b[1] = 1
        ct = mctx.multiply(
            mctx.encrypt(mctx.plaintext(a), pk), mctx.encrypt(mctx.plaintext(b), pk), rlk
        )
        out = mctx.decrypt(ct, sk).poly.coeffs
        assert int(out[0]) == t - 1

    def test_mult_rejects_size3_input(self, mctx, mkeys):
        _, pk, rlk = mkeys
        ct = self._enc(mctx, pk, [1])
        big = mctx.multiply(ct, ct)
        with pytest.raises(ValueError):
            mctx.multiply(big, ct, rlk)


class TestOperationCounter:
    def test_counts(self, small_params):
        ctx = BFVContext(small_params, seed=1)
        gen = KeyGenerator(small_params, seed=1)
        sk = gen.secret_key()
        pk = gen.public_key(sk)
        m = ctx.plaintext(np.zeros(small_params.n, dtype=np.int64))
        ct = ctx.encrypt(m, pk)
        ctx.add(ct, ct)
        ctx.add_plain(ct, m)
        ctx.decrypt(ct, sk)
        snap = ctx.counter.snapshot()
        assert snap["encryptions"] == 1
        assert snap["additions"] == 1
        assert snap["plain_additions"] == 1
        assert snap["decryptions"] == 1
