"""Unencrypted reference string matching.

This is both the correctness oracle for every secure matcher in the
repo and the "conventional system" baseline the paper quotes (§3.1:
a 32-bit search in a 32-byte database takes microseconds unencrypted
versus seconds under HE).
"""

from __future__ import annotations

from typing import List

import numpy as np


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
