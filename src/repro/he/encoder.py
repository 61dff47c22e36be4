"""Plaintext encoder: how application bits become BFV plaintext
polynomials.

:class:`ChunkPackEncoder` is the CIPHERMATCH memory-efficient packing
(§4.2.1): ``w``-bit chunks per coefficient (w = 16 for the paper set).
The baselines pack their own way: one bit per coefficient
(:mod:`repro.baselines.yasuda`) or one bit per ciphertext
(:mod:`repro.baselines.boolean_match`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..utils.bits import chunk_bits, unchunk_bits
from .bfv import BFVContext, Plaintext


@dataclass
class EncodedMessage:
    """A packed bit string: one or more plaintext polynomials plus the
    bookkeeping needed to invert the encoding."""

    plaintexts: List[Plaintext]
    bit_length: int
    chunk_width: int

    @property
    def num_polynomials(self) -> int:
        return len(self.plaintexts)


class ChunkPackEncoder:
    """CIPHERMATCH packing: coefficient i holds data bits
    ``[i*w, (i+1)*w)`` as a ``w``-bit integer (Eq. 5-6)."""

    def __init__(self, ctx: BFVContext, chunk_width: int | None = None):
        self.ctx = ctx
        max_width = ctx.params.plaintext_bits_per_coeff
        self.chunk_width = chunk_width if chunk_width is not None else max_width
        if self.chunk_width < 1 or self.chunk_width > max_width:
            raise ValueError(
                f"chunk width {self.chunk_width} outside [1, {max_width}] for t={ctx.params.t}"
            )

    def encode(self, bits: np.ndarray) -> EncodedMessage:
        """Pack a bit vector into ceil(L/n) plaintext polynomials."""
        chunks = chunk_bits(bits, self.chunk_width)
        n = self.ctx.params.n
        plaintexts = []
        for start in range(0, max(len(chunks), 1), n):
            block = chunks[start : start + n]
            coeffs = np.zeros(n, dtype=np.int64)
            coeffs[: len(block)] = block
            plaintexts.append(self.ctx.plaintext(coeffs))
        return EncodedMessage(plaintexts, len(bits), self.chunk_width)

    def decode(self, message: EncodedMessage) -> np.ndarray:
        chunks = np.concatenate(
            [pt.poly.coeffs for pt in message.plaintexts]
        )
        bits = unchunk_bits(chunks, message.chunk_width)
        return bits[: message.bit_length]
