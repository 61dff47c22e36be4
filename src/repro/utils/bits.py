"""Bit-vector helpers shared by the packing schemes and the flash
simulator.  Bit vectors are numpy ``uint8`` arrays of 0/1 values, MSB
first within each source byte/chunk (matching the paper's string
notation ``P = (b0, b1, ..., b_{k-1})``)."""

from __future__ import annotations

import numpy as np


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Expand bytes into a bit vector, most-significant bit first."""
    if not data:
        return np.zeros(0, dtype=np.uint8)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def text_to_bits(text: str, encoding: str = "ascii") -> np.ndarray:
    return bytes_to_bits(text.encode(encoding))


def chunk_bits(bits: np.ndarray, chunk_width: int) -> np.ndarray:
    """Split a bit vector into ``chunk_width``-bit integers (zero-padded).

    This is the paper's partitioning step (§4.2.1): ``T(0)`` holds the
    first 16 bits, ``T(1)`` the next 16, ...
    """
    bits = np.asarray(bits, dtype=np.uint8)
    pad = (-len(bits)) % chunk_width
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    reshaped = bits.reshape(-1, chunk_width).astype(np.int64)
    weights = 1 << np.arange(chunk_width - 1, -1, -1, dtype=np.int64)
    return reshaped @ weights


def unchunk_bits(values: np.ndarray, chunk_width: int) -> np.ndarray:
    """Inverse of :func:`chunk_bits` (without removing any padding)."""
    values = np.asarray(values, dtype=np.int64)
    out = np.zeros(len(values) * chunk_width, dtype=np.uint8)
    for i, v in enumerate(values):
        v = int(v)
        for j in range(chunk_width):
            out[i * chunk_width + j] = (v >> (chunk_width - 1 - j)) & 1
    return out


def negate_bits(bits: np.ndarray) -> np.ndarray:
    """Bitwise complement of a 0/1 vector (the query negation step)."""
    return (1 - np.asarray(bits, dtype=np.uint8)).astype(np.uint8)


def random_bits(length: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=length, dtype=np.int64).astype(np.uint8)


def matches_at(db_bits: np.ndarray, query_bits: np.ndarray, offset: int) -> bool:
    """Exact-match check at one offset — the verification oracle."""
    db_bits = np.asarray(db_bits, dtype=np.uint8)
    query_bits = np.asarray(query_bits, dtype=np.uint8)
    end = offset + len(query_bits)
    if offset < 0 or end > len(db_bits):
        return False
    return bool(np.array_equal(db_bits[offset:end], query_bits))
