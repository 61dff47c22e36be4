"""Homomorphic arithmetic circuits over bootstrapped TFHE gates.

The paper's IFP hardware executes a bit-serial full adder inside the
flash latches (Figure 5, :mod:`repro.flash.microprogram`):

    sum_i   = A_i ^ B_i ^ C_i
    C_{i+1} = (A_i ^ C_i) & B_i  |  A_i & C_i

This module evaluates *exactly the same equations* homomorphically, one
bootstrapped gate per Boolean operation, which is how the Boolean prior
works would have to perform arithmetic.  Comparing gate counts here
against the latch-op counts of ``bop_add`` makes the paper's core
trade concrete: an in-flash "gate" costs tens of nanoseconds of latch
activity, a TFHE gate costs a bootstrap.

Word encoding is little-endian (LSB first), matching the vertical data
layout of §4.3.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .gates import TFHEContext
from .lwe import LweSample


@dataclass
class EncryptedWord:
    """A little-endian vector of encrypted bits."""

    bits: List[LweSample]

    @property
    def width(self) -> int:
        return len(self.bits)


class TfheArithmetic:
    """Word-level homomorphic arithmetic built from bootstrapped gates."""

    def __init__(self, ctx: TFHEContext):
        self.ctx = ctx

    # -- encode / decode ---------------------------------------------------

    def encrypt_word(self, value: int, width: int) -> EncryptedWord:
        if value < 0 or value >= 1 << width:
            raise ValueError(f"{value} does not fit in {width} bits")
        return EncryptedWord(
            [self.ctx.encrypt((value >> i) & 1) for i in range(width)]
        )

    def decrypt_word(self, word: EncryptedWord) -> int:
        value = 0
        for i, bit in enumerate(word.bits):
            value |= self.ctx.decrypt(bit) << i
        return value

    # -- the full adder (Figure 5's equations, homomorphically) ------------

    def full_adder(
        self, a: LweSample, b: LweSample, carry: LweSample
    ) -> Tuple[LweSample, LweSample]:
        """One bit position: returns (sum, carry_out).

        Uses the same decomposition as the ``bop_add`` µ-program:
        ``axc = A ^ C``; ``sum = axc ^ B``; ``carry = (axc & B) | (A & C)``.
        5 bootstrapped binary gates per bit.
        """
        axc = self.ctx.xor(a, carry)
        sum_bit = self.ctx.xor(axc, b)
        left = self.ctx.and_(axc, b)
        right = self.ctx.and_(a, carry)
        carry_out = self.ctx.or_(left, right)
        return sum_bit, carry_out

    def add(self, a: EncryptedWord, b: EncryptedWord) -> EncryptedWord:
        """Ripple-carry addition mod ``2**width`` — the homomorphic
        equivalent of one ``bop_add`` wordline pass."""
        if a.width != b.width:
            raise ValueError("width mismatch")
        carry = self.ctx.encrypt(0)
        out = []
        for bit_a, bit_b in zip(a.bits, b.bits):
            sum_bit, carry = self.full_adder(bit_a, bit_b, carry)
            out.append(sum_bit)
        # final carry dropped: mod-2**W addition, like bop_add.
        return EncryptedWord(out)

    # -- cost accounting ---------------------------------------------------

    @staticmethod
    def gates_per_add(width: int) -> int:
        """5 binary gates per full adder (2 XOR, 2 AND, 1 OR)."""
        return 5 * width
