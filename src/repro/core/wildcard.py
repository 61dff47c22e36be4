"""Wildcard pattern matching — an extension the paper's related work
motivates (compound wildcard queries [34], wildcard pattern matching
[30]) built purely from CIPHERMATCH primitives.

A wildcard pattern is a sequence of literal segments separated by
fixed-width don't-care gaps (``AB??CD`` = "AB", 2-wildcard gap, "CD").
Each literal segment runs through the ordinary Hom-Add search; a
pattern occurrence is an offset where *every* segment matches at its
required displacement.  The join is plain set intersection on the
(already decoded) per-segment offsets, so the server still executes
nothing but homomorphic additions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class PatternSegment:
    """A literal run inside a wildcard pattern."""

    bits: tuple  # immutable bit tuple
    offset_bits: int  # displacement from the pattern start

    @property
    def length(self) -> int:
        return len(self.bits)

    def bit_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.uint8)


@dataclass
class WildcardPattern:
    """A parsed wildcard pattern: literal segments + total span."""

    segments: List[PatternSegment]
    total_bits: int

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def literal_bits(self) -> int:
        return sum(s.length for s in self.segments)

    @staticmethod
    def from_bits(
        bits: Sequence[int], mask: Sequence[int]
    ) -> "WildcardPattern":
        """Build from a bit vector and a 0/1 mask (1 = literal bit,
        0 = wildcard)."""
        bits = np.asarray(bits, dtype=np.uint8)
        mask = np.asarray(mask, dtype=np.uint8)
        if bits.shape != mask.shape:
            raise ValueError("bits and mask must have the same length")
        if len(bits) == 0:
            raise ValueError("empty pattern")
        segments: List[PatternSegment] = []
        start: Optional[int] = None
        for i, flag in enumerate(mask):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                segments.append(
                    PatternSegment(tuple(int(b) for b in bits[start:i]), start)
                )
                start = None
        if start is not None:
            segments.append(
                PatternSegment(tuple(int(b) for b in bits[start:]), start)
            )
        if not segments:
            raise ValueError("pattern has no literal bits")
        return WildcardPattern(segments, len(bits))

    def to_bits_and_mask(self) -> tuple:
        """Inverse of :meth:`from_bits`: the pattern as (bits, mask)
        arrays (wildcard positions carry bit 0, mask 0)."""
        bits = np.zeros(self.total_bits, dtype=np.uint8)
        mask = np.zeros(self.total_bits, dtype=np.uint8)
        for seg in self.segments:
            bits[seg.offset_bits : seg.offset_bits + seg.length] = seg.bits
            mask[seg.offset_bits : seg.offset_bits + seg.length] = 1
        return bits, mask

    @staticmethod
    def from_text(pattern: str, wildcard: str = "?") -> "WildcardPattern":
        """Byte-level wildcards over an ASCII pattern: each ``?`` is a
        fully-wild byte."""
        bits = []
        mask = []
        for ch in pattern:
            if ch == wildcard:
                bits.extend([0] * 8)
                mask.extend([0] * 8)
            else:
                value = ord(ch)
                bits.extend((value >> (7 - k)) & 1 for k in range(8))
                mask.extend([1] * 8)
        return WildcardPattern.from_bits(bits, mask)
