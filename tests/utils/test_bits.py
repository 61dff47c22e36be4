"""Unit tests for the bit-vector helpers."""

import numpy as np

from repro.utils.bits import (
    bytes_to_bits,
    chunk_bits,
    negate_bits,
    random_bits,
    text_to_bits,
    unchunk_bits,
)


class TestByteConversion:
    def test_roundtrip(self):
        data = b"\x00\xff\xa5\x12"
        assert np.packbits(bytes_to_bits(data)).tobytes() == data

    def test_msb_first(self):
        bits = bytes_to_bits(b"\x80")
        assert bits[0] == 1 and not bits[1:].any()

    def test_empty(self):
        assert len(bytes_to_bits(b"")) == 0

    def test_text(self):
        assert len(text_to_bits("abc")) == 24


class TestChunking:
    def test_basic(self):
        bits = np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)
        chunks = chunk_bits(bits, 4)
        assert list(chunks) == [0b1000, 0b0001]

    def test_padding(self):
        bits = np.array([1, 1], dtype=np.uint8)
        chunks = chunk_bits(bits, 4)
        assert list(chunks) == [0b1100]  # zero-padded tail

    def test_roundtrip(self, rng):
        bits = random_bits(160, rng)
        assert np.array_equal(unchunk_bits(chunk_bits(bits, 16), 16), bits)

    def test_chunk_16_range(self, rng):
        chunks = chunk_bits(random_bits(320, rng), 16)
        assert all(0 <= int(c) < (1 << 16) for c in chunks)


class TestNegation:
    def test_negate(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert list(negate_bits(bits)) == [1, 0, 0, 1]

    def test_involution(self, rng):
        bits = random_bits(64, rng)
        assert np.array_equal(negate_bits(negate_bits(bits)), bits)

    def test_negated_chunk_is_complement(self, rng):
        # ~chunk + chunk == all-ones: the CIPHERMATCH identity
        bits = random_bits(16, rng)
        chunk = int(chunk_bits(bits, 16)[0])
        neg = int(chunk_bits(negate_bits(bits), 16)[0])
        assert chunk + neg == (1 << 16) - 1


class TestRandomBits:
    def test_length_and_range(self, rng):
        bits = random_bits(100, rng)
        assert len(bits) == 100
        assert set(np.unique(bits)).issubset({0, 1})
