"""Unit tests for the CIPHERMATCH packing encoder."""

import numpy as np
import pytest

from repro.he import BFVContext, BFVParams, ChunkPackEncoder
from repro.utils.bits import random_bits


@pytest.fixture(scope="module")
def ctx():
    return BFVContext(BFVParams.test_small(64), seed=1)


class TestChunkPackEncoder:
    def test_roundtrip(self, ctx, rng):
        enc = ChunkPackEncoder(ctx)
        bits = random_bits(500, rng)
        assert np.array_equal(enc.decode(enc.encode(bits)), bits)

    def test_roundtrip_multiple_polynomials(self, ctx, rng):
        enc = ChunkPackEncoder(ctx)
        bits = random_bits(3 * ctx.params.n * enc.chunk_width + 17, rng)
        msg = enc.encode(bits)
        assert msg.num_polynomials == 4
        assert np.array_equal(enc.decode(msg), bits)

    def test_default_width_is_16(self, ctx):
        assert ChunkPackEncoder(ctx).chunk_width == 16

    def test_custom_width(self, ctx, rng):
        enc = ChunkPackEncoder(ctx, chunk_width=8)
        bits = random_bits(100, rng)
        assert np.array_equal(enc.decode(enc.encode(bits)), bits)

    def test_width_bounds(self, ctx):
        with pytest.raises(ValueError):
            ChunkPackEncoder(ctx, chunk_width=17)
        with pytest.raises(ValueError):
            ChunkPackEncoder(ctx, chunk_width=0)

    def test_packing_layout(self, ctx):
        # the first 16 bits become coefficient 0, MSB first (paper Eq. 5)
        enc = ChunkPackEncoder(ctx)
        bits = np.zeros(32, dtype=np.uint8)
        bits[0] = 1  # MSB of chunk 0 -> 0x8000
        bits[31] = 1  # LSB of chunk 1 -> 0x0001
        msg = enc.encode(bits)
        coeffs = msg.plaintexts[0].poly.coeffs
        assert int(coeffs[0]) == 0x8000
        assert int(coeffs[1]) == 0x0001

    def test_empty_input(self, ctx):
        enc = ChunkPackEncoder(ctx)
        msg = enc.encode(np.zeros(0, dtype=np.uint8))
        assert msg.num_polynomials == 1
        assert len(enc.decode(msg)) == 0
