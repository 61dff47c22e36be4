"""Unit tests for key generation and key-switching material."""

import numpy as np

from repro.he import KeyGenerator, generate_keys


class TestKeyGenerator:
    def test_secret_key_is_ternary(self, small_params):
        sk = KeyGenerator(small_params, seed=1).secret_key()
        assert all(int(c) in (-1, 0, 1) for c in sk.s.centered())

    def test_public_key_relation(self, small_params):
        # pk0 + pk1*s = -e (small)
        gen = KeyGenerator(small_params, seed=2)
        sk = gen.secret_key()
        pk = gen.public_key(sk)
        residual = pk.pk0 + pk.pk1 * sk.s
        assert np.abs(residual.centered()).max() < 10 * small_params.sigma

    def test_seeded_generation_reproducible(self, small_params):
        sk1 = KeyGenerator(small_params, seed=3).secret_key()
        sk2 = KeyGenerator(small_params, seed=3).secret_key()
        assert sk1.s == sk2.s

    def test_different_seeds_differ(self, small_params):
        sk1 = KeyGenerator(small_params, seed=4).secret_key()
        sk2 = KeyGenerator(small_params, seed=5).secret_key()
        assert sk1.s != sk2.s

    def test_relin_key_digit_count(self, mult_params):
        gen = KeyGenerator(mult_params, seed=6)
        rlk = gen.relin_key(gen.secret_key(), base_bits=16)
        expected = (mult_params.q.bit_length() + 15) // 16
        assert rlk.num_digits == expected

    def test_relin_key_components_decrypt_to_powers_of_s_squared(self, mult_params):
        gen = KeyGenerator(mult_params, seed=7)
        sk = gen.secret_key()
        rlk = gen.relin_key(sk, base_bits=16)
        s2 = sk.s * sk.s
        for i, (body, a) in enumerate(rlk.components):
            power = pow(1 << 16, i, mult_params.q)
            residual = body + a * sk.s - s2.scalar_mul(power)
            assert np.abs(residual.centered()).max() < 10 * mult_params.sigma, f"digit {i}"


class TestGenerateKeysHelper:
    def test_minimal(self, small_params):
        sk, pk, rlk = generate_keys(small_params, seed=1)
        assert sk is not None and pk is not None
        assert rlk is None
