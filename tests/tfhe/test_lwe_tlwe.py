"""Unit tests for LWE and TLWE encryption layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe.lwe import (
    LweKey,
    LweSample,
    encrypt_bit,
    lwe_decrypt_bit,
    lwe_encrypt,
    lwe_phase,
)
from repro.tfhe.params import TORUS_MOD, TFHEParams
from repro.tfhe.tlwe import (
    TLweKey,
    TLweSample,
    tlwe_encrypt,
    tlwe_encrypt_zero,
)
from repro.tfhe.torus import from_torus, to_torus
from tests.oracles import tlwe_phase, torus_distance


@pytest.fixture(scope="module")
def params():
    return TFHEParams.test_small()


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="module")
def lwe_key(params, rng):
    return LweKey.generate(params, rng)


@pytest.fixture(scope="module")
def tlwe_key(params, rng):
    return TLweKey.generate(params, rng)


class TestLwe:
    def test_encrypt_decrypt_bits(self, lwe_key, rng):
        for bit in (0, 1):
            ct = encrypt_bit(bit, lwe_key, rng)
            assert lwe_decrypt_bit(ct, lwe_key) == bit

    def test_phase_close_to_message(self, lwe_key, rng):
        mu = to_torus(1, 8)
        ct = lwe_encrypt(mu, lwe_key, rng)
        assert torus_distance(lwe_phase(ct, lwe_key), mu) < TORUS_MOD // 64

    def test_noise_metric_small(self, lwe_key, rng):
        mu = to_torus(1, 8)
        ct = lwe_encrypt(mu, lwe_key, rng)
        noise = abs(from_torus((lwe_phase(ct, lwe_key) - mu) % TORUS_MOD))
        assert noise < 2.0 ** -10

    def test_trivial_sample_phase_is_message(self, lwe_key):
        ct = LweSample.trivial(12345, lwe_key.n)
        assert lwe_phase(ct, lwe_key) == 12345

    def test_addition_adds_messages(self, lwe_key, rng):
        mu = to_torus(1, 8)
        a = lwe_encrypt(mu, lwe_key, rng)
        b = lwe_encrypt(mu, lwe_key, rng)
        assert torus_distance(lwe_phase(a + b, lwe_key), to_torus(1, 4)) < TORUS_MOD // 64

    def test_subtraction_cancels(self, lwe_key, rng):
        mu = to_torus(1, 8)
        a = lwe_encrypt(mu, lwe_key, rng)
        b = lwe_encrypt(mu, lwe_key, rng)
        assert torus_distance(lwe_phase(a - b, lwe_key), 0) < TORUS_MOD // 64

    def test_negation(self, lwe_key, rng):
        mu = to_torus(1, 8)
        ct = lwe_encrypt(mu, lwe_key, rng)
        assert torus_distance(
            lwe_phase(-ct, lwe_key), (-mu) % TORUS_MOD
        ) < TORUS_MOD // 64

    def test_scale(self, lwe_key, rng):
        mu = to_torus(1, 16)
        ct = lwe_encrypt(mu, lwe_key, rng)
        assert torus_distance(
            lwe_phase(ct.scale(2), lwe_key), to_torus(1, 8)
        ) < TORUS_MOD // 32

    def test_copy_is_independent(self, lwe_key, rng):
        ct = lwe_encrypt(0, lwe_key, rng)
        dup = ct.copy()
        dup.a[0] = (dup.a[0] + 1) % TORUS_MOD
        assert ct.a[0] != dup.a[0] or True  # original untouched
        assert lwe_phase(ct, lwe_key) != lwe_phase(dup, lwe_key) or ct.a[0] == dup.a[0] - 1

    def test_serialized_bytes(self, params, lwe_key, rng):
        ct = lwe_encrypt(0, lwe_key, rng)
        assert ct.serialized_bytes == 4 * (params.lwe_n + 1)
        assert ct.serialized_bytes == params.lwe_ciphertext_bytes

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=8, deadline=None)
    def test_many_messages_round_trip(self, eighths):
        params = TFHEParams.test_small()
        rng = np.random.default_rng(eighths)
        key = LweKey.generate(params, rng)
        mu = to_torus(eighths, 8)
        ct = lwe_encrypt(mu, key, rng)
        assert torus_distance(lwe_phase(ct, key), mu) < TORUS_MOD // 64


class TestTLwe:
    def test_zero_encryption_phase_small(self, tlwe_key, rng):
        ct = tlwe_encrypt_zero(tlwe_key, rng)
        phase = tlwe_phase(ct, tlwe_key)
        for c in phase:
            assert torus_distance(int(c), 0) < TORUS_MOD // 256

    def test_message_encryption(self, params, tlwe_key, rng):
        mu = np.zeros(params.tlwe_n, dtype=np.int64)
        mu[3] = to_torus(1, 8)
        ct = tlwe_encrypt(mu, tlwe_key, rng)
        phase = tlwe_phase(ct, tlwe_key)
        assert torus_distance(int(phase[3]), to_torus(1, 8)) < TORUS_MOD // 256

    def test_trivial_phase_exact(self, params, tlwe_key):
        mu = np.arange(params.tlwe_n, dtype=np.int64)
        ct = TLweSample.trivial(mu, params)
        assert np.array_equal(tlwe_phase(ct, tlwe_key), mu)

    def test_addition_homomorphic(self, params, tlwe_key, rng):
        mu = np.zeros(params.tlwe_n, dtype=np.int64)
        mu[0] = to_torus(1, 8)
        a = tlwe_encrypt(mu, tlwe_key, rng)
        b = tlwe_encrypt(mu, tlwe_key, rng)
        phase = tlwe_phase(a + b, tlwe_key)
        assert torus_distance(int(phase[0]), to_torus(1, 4)) < TORUS_MOD // 128

    def test_rotation_rotates_phase(self, params, tlwe_key, rng):
        mu = np.zeros(params.tlwe_n, dtype=np.int64)
        mu[0] = to_torus(1, 8)
        ct = tlwe_encrypt(mu, tlwe_key, rng)
        rotated = ct.rotate(5)
        phase = tlwe_phase(rotated, tlwe_key)
        assert torus_distance(int(phase[5]), to_torus(1, 8)) < TORUS_MOD // 128

    def test_rotation_by_n_negates_phase(self, params, tlwe_key, rng):
        mu = np.zeros(params.tlwe_n, dtype=np.int64)
        mu[0] = to_torus(1, 8)
        ct = tlwe_encrypt(mu, tlwe_key, rng)
        phase = tlwe_phase(ct.rotate(params.tlwe_n), tlwe_key)
        assert torus_distance(int(phase[0]), to_torus(-1, 8)) < TORUS_MOD // 128


class TestSampleExtraction:
    def test_extract_coefficient_zero(self, params, tlwe_key, rng):
        mu = np.zeros(params.tlwe_n, dtype=np.int64)
        mu[0] = to_torus(3, 8)
        ct = tlwe_encrypt(mu, tlwe_key, rng)
        extracted = ct.extract_lwe(0)
        ext_key = tlwe_key.extracted_lwe_key()
        assert torus_distance(
            lwe_phase(extracted, ext_key), to_torus(3, 8)
        ) < TORUS_MOD // 128

    def test_extract_nonzero_index(self, params, tlwe_key, rng):
        mu = np.zeros(params.tlwe_n, dtype=np.int64)
        target = params.tlwe_n // 2
        mu[target] = to_torus(1, 8)
        ct = tlwe_encrypt(mu, tlwe_key, rng)
        extracted = ct.extract_lwe(target)
        ext_key = tlwe_key.extracted_lwe_key()
        assert torus_distance(
            lwe_phase(extracted, ext_key), to_torus(1, 8)
        ) < TORUS_MOD // 128

    def test_extract_from_trivial(self, params, tlwe_key):
        mu = np.zeros(params.tlwe_n, dtype=np.int64)
        mu[0] = 999
        ct = TLweSample.trivial(mu, params)
        extracted = ct.extract_lwe(0)
        assert lwe_phase(extracted, tlwe_key.extracted_lwe_key()) == 999

    def test_extracted_dimension(self, params, tlwe_key, rng):
        ct = tlwe_encrypt_zero(tlwe_key, rng)
        assert ct.extract_lwe(0).n == params.tlwe_k * params.tlwe_n
