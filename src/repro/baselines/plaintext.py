"""Unencrypted reference string matching.

This is both the correctness oracle for every secure matcher in the
repo and the "conventional system" baseline the paper quotes (§3.1:
a 32-bit search in a 32-byte database takes microseconds unencrypted
versus seconds under HE).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..utils.bits import matches_at


def find_all_matches(db_bits: np.ndarray, query_bits: np.ndarray) -> List[int]:
    """All bit offsets where ``query_bits`` occurs in ``db_bits``."""
    db_bits = np.asarray(db_bits, dtype=np.uint8)
    query_bits = np.asarray(query_bits, dtype=np.uint8)
    y = len(query_bits)
    m = len(db_bits)
    if y == 0 or y > m:
        return []
    # Sliding-window comparison vectorized over alignments.
    windows = np.lib.stride_tricks.sliding_window_view(db_bits, y)
    hits = np.all(windows == query_bits, axis=1)
    return [int(i) for i in np.nonzero(hits)[0]]


def find_aligned_matches(
    db_bits: np.ndarray, query_bits: np.ndarray, alignment: int
) -> List[int]:
    """Matches restricted to offsets that are multiples of ``alignment``
    (chunk-aligned occurrences)."""
    return [p for p in find_all_matches(db_bits, query_bits) if p % alignment == 0]


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Bit-level Hamming distance (the arithmetic baseline's primitive)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return int(np.count_nonzero(a != b))


class PlaintextMatcher:
    """Object wrapper so examples/benches can treat plaintext matching
    like the secure matchers."""

    name = "plaintext"

    def __init__(self, db_bits: np.ndarray):
        self.db_bits = np.asarray(db_bits, dtype=np.uint8)

    def search(self, query_bits: np.ndarray) -> List[int]:
        return find_all_matches(self.db_bits, query_bits)

    def oracle(self, query_bits: np.ndarray):
        """Verification callable bound to one query."""
        return lambda offset: matches_at(self.db_bits, query_bits, offset)
