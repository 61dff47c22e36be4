"""The arithmetic-approach baseline: Yasuda et al., "Secure Pattern
Matching Using Somewhat Homomorphic Encryption" (CCSW 2013) — reference
[27], the paper's state-of-the-art software baseline.

One bit is packed per plaintext coefficient.  The query is encoded
*reversed* so that a single ciphertext-ciphertext multiplication yields
the correlation of the query with **every** alignment inside the
database polynomial at once; the Hamming distance at alignment ``k`` is
then

    HD_k = |Q| + sum_j d_{k+j} - 2 * corr_k

which costs **two homomorphic multiplications and three additions** (two
ciphertext, one plaintext, as ``ctx.counter`` books them) per database
ciphertext — exactly the operation mix whose latency breakdown
Figure 2c reports (98.2% of time in Hom-Mult).  A zero Hamming distance
marks an exact match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..he.bfv import BFVContext, Ciphertext, Plaintext
from ..he.keys import PublicKey, RelinKey, SecretKey
from ..he.params import BFVParams


@dataclass
class YasudaEncryptedDatabase:
    """Database bits packed one-per-coefficient with overlap so that
    alignments spanning polynomial boundaries are still covered."""

    ciphertexts: List[Ciphertext]
    block_starts: List[int]  # db bit offset of coefficient 0 of each block
    bit_length: int
    n: int

    @property
    def serialized_bytes(self) -> int:
        return sum(ct.serialized_bytes for ct in self.ciphertexts)


class YasudaMatcher:
    """Functional implementation of the arithmetic baseline."""

    name = "arithmetic (Yasuda et al.)"

    def __init__(
        self,
        params: Optional[BFVParams] = None,
        *,
        max_query_bits: int = 256,
        seed: Optional[int] = None,
    ):
        # Plaintext modulus must exceed any Hamming-distance value the
        # decoder must read, i.e. the query length.
        params = params or BFVParams.arithmetic_baseline()
        if params.t <= 2 * max_query_bits:
            raise ValueError(
                f"plaintext modulus {params.t} too small for queries up to "
                f"{max_query_bits} bits"
            )
        self.params = params
        self.ctx = BFVContext(params, seed=seed)
        self.max_query_bits = max_query_bits

    # -- database ---------------------------------------------------------

    def encrypt_database(
        self, db_bits: np.ndarray, pk: PublicKey
    ) -> YasudaEncryptedDatabase:
        db_bits = np.asarray(db_bits, dtype=np.int64)
        n = self.params.n
        stride = n - (self.max_query_bits - 1)
        if stride <= 0:
            raise ValueError("ring dimension too small for the query budget")
        cts = []
        starts = []
        pos = 0
        while pos < len(db_bits) or not cts:
            block = db_bits[pos : pos + n]
            coeffs = np.zeros(n, dtype=np.int64)
            coeffs[: len(block)] = block
            cts.append(self.ctx.encrypt(self.ctx.plaintext(coeffs), pk))
            starts.append(pos)
            if pos + n >= len(db_bits):
                break
            pos += stride
        return YasudaEncryptedDatabase(
            ciphertexts=cts,
            block_starts=starts,
            bit_length=len(db_bits),
            n=n,
        )

    # -- query --------------------------------------------------------------

    def encode_query(self, query_bits: np.ndarray) -> tuple[Plaintext, Plaintext, int]:
        """Reversed query polynomial and reversed all-ones mask."""
        query_bits = np.asarray(query_bits, dtype=np.int64)
        y = len(query_bits)
        if y > self.max_query_bits:
            raise ValueError(f"query of {y} bits exceeds budget {self.max_query_bits}")
        n, t = self.params.n, self.params.t
        q_rev = np.zeros(n, dtype=np.int64)
        mask_rev = np.zeros(n, dtype=np.int64)
        for j in range(y):
            if j == 0:
                q_rev[0] = query_bits[0]
                mask_rev[0] = 1
            else:
                # X^{n-j} carries a -1 under X^n + 1
                q_rev[n - j] = (t - query_bits[j]) % t
                mask_rev[n - j] = t - 1
        return self.ctx.plaintext(q_rev), self.ctx.plaintext(mask_rev), y

    def encrypt_query(
        self, query_bits: np.ndarray, pk: PublicKey
    ) -> tuple[Ciphertext, Ciphertext, int]:
        q_pt, mask_pt, y = self.encode_query(query_bits)
        return self.ctx.encrypt(q_pt, pk), self.ctx.encrypt(mask_pt, pk), y

    # -- search ---------------------------------------------------------------

    def hamming_ciphertext(
        self,
        db_ct: Ciphertext,
        query_ct: Ciphertext,
        mask_ct: Ciphertext,
        query_weight: int,
        query_len: int,
        rlk: RelinKey,
    ) -> Ciphertext:
        """The 2-mult + 3-add Hamming distance circuit for one block."""
        corr = self.ctx.multiply(db_ct, query_ct, rlk)  # sum_j q_j d_{k+j}
        ones = self.ctx.multiply(db_ct, mask_ct, rlk)  # sum_j d_{k+j}
        # HD = |Q| + ones - 2 * corr
        two_corr = self.ctx.add(corr, corr)
        hd = self.ctx.sub(ones, two_corr)
        # the weight term must land in EVERY alignment coefficient
        weight_coeffs = np.full(self.params.n, query_weight, dtype=np.int64)
        hd = self.ctx.add_plain(hd, self.ctx.plaintext(weight_coeffs))
        return hd

    def search(
        self,
        db: YasudaEncryptedDatabase,
        query_bits: np.ndarray,
        pk: PublicKey,
        sk: SecretKey,
        rlk: RelinKey,
    ) -> List[int]:
        """Full secure search; returns match bit offsets.

        (Decryption happens client-side in deployment; it is inlined
        here because the baseline's protocol returns one result
        ciphertext per database ciphertext — the scalability weakness
        Table 1 flags.)
        """
        query_bits = np.asarray(query_bits, dtype=np.int64)
        query_ct, mask_ct, y = self.encrypt_query(query_bits, pk)
        weight = int(query_bits.sum())
        matches = []
        for ct, start in zip(db.ciphertexts, db.block_starts):
            hd_ct = self.hamming_ciphertext(ct, query_ct, mask_ct, weight, y, rlk)
            hd = self.ctx.decrypt(hd_ct, sk).poly.coeffs
            limit = min(self.params.n - y, db.bit_length - start - y)
            for k in range(limit + 1):
                if hd[k] == 0 and start + k + y <= db.bit_length:
                    matches.append(start + k)
        return sorted(set(matches))

    # -- cost accounting ---------------------------------------------------
