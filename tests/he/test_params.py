"""Unit tests for BFV parameter sets."""

import pytest

from repro.he.params import BFVParams


class TestPaperParams:
    def test_paper_values(self):
        p = BFVParams.paper()
        assert p.n == 1024
        assert p.q == 1 << 32
        assert p.t == 1 << 16

    def test_delta_exact(self):
        p = BFVParams.paper()
        assert p.delta == 1 << 16
        assert p.delta * p.t == p.q

    def test_packs_16_bits_per_coeff(self):
        assert BFVParams.paper().plaintext_bits_per_coeff == 16

    def test_expansion_factor_is_4x(self):
        # the paper's headline: encrypted data is 4x the packed plaintext
        p = BFVParams.paper()
        assert p.ciphertext_bytes == 4 * p.plaintext_bytes

    def test_ciphertext_bytes(self):
        p = BFVParams.paper()
        # 2 polynomials x 1024 coefficients x 33-bit -> 5 bytes each
        assert p.ciphertext_bytes == 2 * 1024 * ((p.log_q + 7) // 8)


class TestValidation:
    def test_rejects_non_power_of_two_n(self):
        with pytest.raises(ValueError):
            BFVParams(n=100, q=1 << 32, t=1 << 16)

    def test_rejects_tiny_t(self):
        with pytest.raises(ValueError):
            BFVParams(n=64, q=1 << 32, t=1)

    def test_rejects_q_below_t(self):
        with pytest.raises(ValueError):
            BFVParams(n=64, q=256, t=1024)


class TestPresets:
    def test_test_small_shares_packing(self):
        p = BFVParams.test_small(64)
        assert p.n == 64
        assert p.plaintext_bits_per_coeff == 16
        assert p.ciphertext_bytes == 4 * p.plaintext_bytes

    def test_arithmetic_baseline_has_mult_headroom(self):
        p = BFVParams.arithmetic_baseline(n=256, t=1024)
        assert p.q > p.t * (1 << 20)  # plenty of noise budget

    def test_boolean_baseline_t2(self):
        assert BFVParams.boolean_baseline(n=128).t == 2

    def test_frozen(self):
        p = BFVParams.paper()
        with pytest.raises(AttributeError):
            p.n = 2048

