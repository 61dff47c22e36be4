"""Unit tests for TGSW, the external product, CMux, blind rotation,
key switching and the full gate bootstrap."""

import numpy as np
import pytest

from repro.tfhe.bootstrap import (
    bootstrap,
    key_switch,
    make_bootstrapping_key,
    make_keyswitch_key,
)
from repro.tfhe.lwe import MU_BIT, LweKey, lwe_encrypt, lwe_phase
from repro.tfhe.params import TORUS_MOD, TFHEParams
from repro.tfhe.tgsw import TGswKey, cmux, external_product, tgsw_encrypt
from repro.tfhe.tlwe import TLweSample, tlwe_encrypt
from repro.tfhe.torus import from_torus, to_torus
from tests.oracles import tlwe_phase, torus_distance


@pytest.fixture(scope="module")
def params():
    return TFHEParams.test_small()


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="module")
def tgsw_key(params, rng):
    return TGswKey.generate(params, rng)


def _message_poly(params, value, position=0):
    mu = np.zeros(params.tlwe_n, dtype=np.int64)
    mu[position] = value
    return mu


class TestExternalProduct:
    def test_times_zero_kills_message(self, params, tgsw_key, rng):
        zero = tgsw_encrypt(0, tgsw_key, rng)
        msg = tlwe_encrypt(_message_poly(params, to_torus(1, 8)), tgsw_key.tlwe_key, rng)
        out = external_product(zero, msg)
        phase = tlwe_phase(out, tgsw_key.tlwe_key)
        assert torus_distance(int(phase[0]), 0) < TORUS_MOD // 64

    def test_times_one_preserves_message(self, params, tgsw_key, rng):
        one = tgsw_encrypt(1, tgsw_key, rng)
        msg = tlwe_encrypt(_message_poly(params, to_torus(1, 8)), tgsw_key.tlwe_key, rng)
        out = external_product(one, msg)
        phase = tlwe_phase(out, tgsw_key.tlwe_key)
        assert torus_distance(int(phase[0]), to_torus(1, 8)) < TORUS_MOD // 64

    def test_small_integer_scales(self, params, tgsw_key, rng):
        three = tgsw_encrypt(3, tgsw_key, rng)
        msg = tlwe_encrypt(_message_poly(params, to_torus(1, 32)), tgsw_key.tlwe_key, rng)
        out = external_product(three, msg)
        phase = tlwe_phase(out, tgsw_key.tlwe_key)
        assert torus_distance(int(phase[0]), to_torus(3, 32)) < TORUS_MOD // 64

    def test_works_on_trivial_input(self, params, tgsw_key, rng):
        one = tgsw_encrypt(1, tgsw_key, rng)
        msg = TLweSample.trivial(_message_poly(params, to_torus(1, 8)), params)
        out = external_product(one, msg)
        phase = tlwe_phase(out, tgsw_key.tlwe_key)
        assert torus_distance(int(phase[0]), to_torus(1, 8)) < TORUS_MOD // 64


class TestCMux:
    @pytest.mark.parametrize("selector", [0, 1])
    def test_selects_branch(self, params, tgsw_key, rng, selector):
        sel = tgsw_encrypt(selector, tgsw_key, rng)
        d1 = TLweSample.trivial(_message_poly(params, to_torus(1, 8)), params)
        d0 = TLweSample.trivial(_message_poly(params, to_torus(-1, 8)), params)
        out = cmux(sel, d1, d0)
        phase = tlwe_phase(out, tgsw_key.tlwe_key)
        expected = to_torus(1, 8) if selector else to_torus(-1, 8)
        assert torus_distance(int(phase[0]), expected) < TORUS_MOD // 64

    def test_chained_cmux(self, params, tgsw_key, rng):
        """Two CMux stages — noise accumulates but stays decodable."""
        sel1 = tgsw_encrypt(1, tgsw_key, rng)
        sel0 = tgsw_encrypt(0, tgsw_key, rng)
        d1 = TLweSample.trivial(_message_poly(params, to_torus(1, 8)), params)
        d0 = TLweSample.trivial(_message_poly(params, to_torus(-1, 8)), params)
        stage1 = cmux(sel1, d1, d0)  # = d1
        stage2 = cmux(sel0, d0, stage1)  # = stage1 = d1
        phase = tlwe_phase(stage2, tgsw_key.tlwe_key)
        assert torus_distance(int(phase[0]), to_torus(1, 8)) < TORUS_MOD // 32


class TestKeySwitch:
    def test_round_trip(self, params, rng):
        in_key = LweKey(params, rng.integers(0, 2, 4 * params.tlwe_n, dtype=np.int64))
        out_key = LweKey.generate(params, rng)
        ksk = make_keyswitch_key(in_key, out_key, rng, params)
        mu = to_torus(1, 8)
        ct = lwe_encrypt(mu, in_key, rng, params.lwe_alpha)
        switched = key_switch(ct, ksk)
        assert switched.n == params.lwe_n
        assert torus_distance(lwe_phase(switched, out_key), mu) < TORUS_MOD // 32

    def test_preserves_sign_for_gate_messages(self, params, rng):
        in_key = LweKey(params, rng.integers(0, 2, params.tlwe_n, dtype=np.int64))
        out_key = LweKey.generate(params, rng)
        ksk = make_keyswitch_key(in_key, out_key, rng, params)
        for num in (1, -1):
            ct = lwe_encrypt(to_torus(num, 8), in_key, rng, params.lwe_alpha)
            switched = key_switch(ct, ksk)
            assert (from_torus(lwe_phase(switched, out_key)) > 0) == (num > 0)


class TestBootstrap:
    @pytest.fixture(scope="class")
    def keys(self, params):
        rng = np.random.default_rng(123)
        lwe_key = LweKey.generate(params, rng)
        tgsw_key = TGswKey.generate(params, rng)
        bsk = make_bootstrapping_key(lwe_key, tgsw_key, rng)
        return lwe_key, bsk, rng

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bootstrap_preserves_sign(self, params, keys, sign):
        lwe_key, bsk, rng = keys
        mu_in = to_torus(sign, 8)
        ct = lwe_encrypt(mu_in, lwe_key, rng)
        out = bootstrap(ct, MU_BIT, bsk)
        phase = from_torus(lwe_phase(out, lwe_key))
        assert (phase > 0) == (sign > 0)
        assert abs(abs(phase) - 1 / 8) < 1 / 32

    def test_bootstrap_output_dimension(self, params, keys):
        lwe_key, bsk, rng = keys
        ct = lwe_encrypt(to_torus(1, 8), lwe_key, rng)
        assert bootstrap(ct, MU_BIT, bsk).n == params.lwe_n

    def test_bootstrap_refreshes_noise(self, params, keys):
        """Bootstrapping a noisy-but-decodable sample yields output
        noise bounded by the bootstrap's own noise floor, independent of
        the input's — the property that gives unlimited depth."""
        lwe_key, bsk, rng = keys
        mu = to_torus(1, 8)
        noisy = lwe_encrypt(mu, lwe_key, rng, alpha=2.0 ** -8)
        out = bootstrap(noisy, MU_BIT, bsk)
        out_err = torus_distance(lwe_phase(out, lwe_key), MU_BIT)
        assert out_err < TORUS_MOD // 64

    def test_bootstrapping_key_size_accounting(self, params, keys):
        _, bsk, _ = keys
        assert bsk.serialized_bytes > 0
        assert len(bsk.bk) == params.lwe_n
