"""TFHE kernel microbenchmarks at test dimensions.

Measures the primitive costs of the real TFHE implementation — external
product, CMux, blind rotation, full gate bootstrap — so the per-gate
constant ``SoftwareFamilyCalibration.gate_latency_s`` can be sanity-scaled
(cost grows ~linearly in ``lwe_n`` and ~N log N in the ring dimension;
the TFHE-lib production set is ~40x the test-small blind-rotation work).
"""

import numpy as np
import pytest

from repro.tfhe import TFHEContext, TFHEParams, cmux, external_product
from repro.tfhe.bootstrap import bootstrap
from repro.tfhe.lwe import MU_BIT, lwe_encrypt
from repro.tfhe.tgsw import tgsw_encrypt
from repro.tfhe.tlwe import TLweSample, tlwe_encrypt
from repro.tfhe.torus import to_torus


@pytest.fixture(scope="module")
def ctx():
    return TFHEContext(TFHEParams.test_small(), seed=31)


@pytest.fixture(scope="module")
def tgsw_bit(ctx):
    rng = np.random.default_rng(1)
    return tgsw_encrypt(1, ctx.tgsw_key, rng)


@pytest.fixture(scope="module")
def tlwe_message(ctx):
    rng = np.random.default_rng(2)
    mu = np.zeros(ctx.params.tlwe_n, dtype=np.int64)
    mu[0] = to_torus(1, 8)
    return tlwe_encrypt(mu, ctx.tgsw_key.tlwe_key, rng)


def test_external_product(benchmark, tgsw_bit, tlwe_message):
    benchmark(external_product, tgsw_bit, tlwe_message)


def test_cmux(benchmark, ctx, tgsw_bit, tlwe_message):
    zero = TLweSample.trivial(
        np.zeros(ctx.params.tlwe_n, dtype=np.int64), ctx.params
    )
    benchmark(cmux, tgsw_bit, tlwe_message, zero)


def test_gate_bootstrap(benchmark, ctx):
    rng = np.random.default_rng(3)
    sample = lwe_encrypt(to_torus(1, 8), ctx.lwe_key, rng)
    benchmark(bootstrap, sample, MU_BIT, ctx.bsk)


def test_nand_gate(benchmark, ctx):
    a, b = ctx.encrypt(1), ctx.encrypt(0)
    result = benchmark(ctx.nand, a, b)
    assert ctx.decrypt(result) == 1


def test_encrypt_bit(benchmark, ctx):
    benchmark(ctx.encrypt, 1)
