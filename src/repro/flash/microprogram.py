"""The ``bop_add`` µ-program: in-flash bit-serial addition (Figure 5).

Operands use the *vertical* data layout (§4.3.1): a ``W``-bit word lives
on one bitline across ``W`` wordlines (LSB on the lowest wordline), so
the carry for each bitline's addition stays in that bitline's D-latch
between bit positions.  One invocation adds an entire page-width vector
of words — every bitline in parallel — and streams sum bits back to the
controller.

The 13 steps per bit position (with their latch-op realization) are::

    1.  load  B_i        controller -> S-latch
    2.  s_to_d(1)        D1 := B_i
    3.  and_sd(2)        S  := B_i & C_i          (D2 holds carry C_i)
    4.  xor_dd(1, 2)     D1 := B_i ^ C_i
    5.  s_to_d(0)        D0 := B_i & C_i
    6.  sense A_i        S  := A_i                (flash read)
    7.  s_to_d(2)        D2 := A_i
    8.  and_sd(1)        S  := A_i & (B_i ^ C_i)
    9.  xor_dd(1, 2)     D1 := A_i ^ B_i ^ C_i    = sum bit
    10. s_to_d(2)        D2 := A_i & (B_i ^ C_i)
    11. d_to_s(0)        S  := B_i & C_i
    12. or_sd(2)         D2 := A_i&(B_i^C_i) | B_i&C_i = carry out
    13. read_out(1)      sum bit -> controller

Per bit position this costs exactly 1 flash read, 2 XORs, 5 latch
transfers, 4 AND/OR-class ops and 2 DMAs — Eqns (9)-(10).  The final
carry out of bit ``W-1`` is dropped, which makes a ``W``-bit add a
mod-``2**W`` add: for the paper's ``q = 2**32`` this *is* the BFV
coefficient addition.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cell_array import CellMode, Plane


def words_to_vertical(words: np.ndarray, word_bits: int, num_bitlines: int) -> np.ndarray:
    """Lay out ``words`` vertically: result[i, b] = bit i (LSB-first) of
    the word on bitline ``b``.  Unused bitlines are zero."""
    words = np.asarray(words, dtype=np.int64)
    if len(words) > num_bitlines:
        raise ValueError(f"{len(words)} words exceed {num_bitlines} bitlines")
    matrix = np.zeros((word_bits, num_bitlines), dtype=np.uint8)
    for i in range(word_bits):
        matrix[i, : len(words)] = (words >> i) & 1
    return matrix


def vertical_to_words(matrix: np.ndarray, count: Optional[int] = None) -> np.ndarray:
    """Inverse of :func:`words_to_vertical`."""
    word_bits, num_bitlines = matrix.shape
    count = num_bitlines if count is None else count
    words = np.zeros(count, dtype=np.int64)
    for i in range(word_bits):
        words |= matrix[i, :count].astype(np.int64) << i
    return words


class BitSerialAdder:
    """Executes ``bop_add`` on one plane."""

    #: per-bit micro-op budget (asserted by tests against Eqn 10)
    OPS_PER_BIT = {"read": 1, "xor": 2, "latch_transfer": 5, "and_or": 4, "dma": 2}

    def __init__(self, plane: Plane, word_bits: int = 32):
        self.plane = plane
        self.word_bits = word_bits

    # -- data placement -----------------------------------------------------

    def store_words(
        self, block_index: int, words: np.ndarray, wl_offset: int = 0
    ) -> None:
        """Program operand A vertically into a block starting at wordline
        ``wl_offset`` (one write pass; done once when the encrypted
        database is placed)."""
        block = self.plane.block(block_index, CellMode.SLC)
        span = slice(wl_offset, wl_offset + self.word_bits)
        if block.programmed[span].any():
            raise RuntimeError(
                f"slot at wordlines {wl_offset}..{wl_offset + self.word_bits} "
                "already programmed; erase the block first"
            )
        matrix = words_to_vertical(words, self.word_bits, self.plane.num_bitlines)
        for i in range(self.word_bits):
            block.program_wordline(wl_offset + i, matrix[i])

    # -- the µ-program ---------------------------------------------------------

    def add(
        self, block_index: int, b_words: np.ndarray, wl_offset: int = 0
    ) -> np.ndarray:
        """Compute ``(A + B) mod 2**word_bits`` for every bitline.

        ``A`` is the operand stored in the block at ``wl_offset``; ``B``
        streams in from the controller bit-plane by bit-plane.
        """
        latches = self.plane.latches
        block = self.plane.block(block_index)
        b_matrix = words_to_vertical(
            b_words, self.word_bits, self.plane.num_bitlines
        )
        sum_matrix = np.zeros_like(b_matrix)

        latches.reset_d(2)  # carry-in = 0
        for i in range(self.word_bits):
            latches.load(b_matrix[i])  # 1
            latches.s_to_d(1)  # 2   D1 = B
            latches.and_sd(2)  # 3   S  = B & C
            latches.xor_dd(1, 2)  # 4   D1 = B ^ C
            latches.s_to_d(0)  # 5   D0 = B & C
            latches.sense(block.read_wordline(wl_offset + i))  # 6   S = A
            latches.s_to_d(2)  # 7   D2 = A
            latches.and_sd(1)  # 8   S  = A & (B ^ C)
            latches.xor_dd(1, 2)  # 9   D1 = A ^ B ^ C = sum
            latches.s_to_d(2)  # 10  D2 = A & (B ^ C)
            latches.d_to_s(0)  # 11  S  = B & C
            latches.or_sd(2)  # 12  D2 = carry out
            sum_matrix[i] = latches.read_out(1)  # 13

        return vertical_to_words(sum_matrix, len(np.asarray(b_words)))

    # -- cost accounting ---------------------------------------------------
