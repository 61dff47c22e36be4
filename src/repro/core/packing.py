"""The CIPHERMATCH memory-efficient data packing scheme (§4.2.1).

A binary database is partitioned into ``w``-bit chunks (w = 16 for the
paper's parameter set), each chunk becomes one plaintext coefficient,
and every ``n`` chunks become one plaintext polynomial (Eq. 5-6) which
is then encrypted (Eq. 7).  The result is an encrypted database only
~4x larger than the plaintext (2x from the ciphertext tuple, 2x from the
coefficient growth t -> q), versus 64x for the one-bit-per-coefficient
packing of the arithmetic baseline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..he.arena import CiphertextArena
from ..he.bfv import BFVContext, Ciphertext, Plaintext
from ..he.encoder import ChunkPackEncoder
from ..he.keys import PublicKey
from ..he.poly import RingPoly

#: serialises first calls to :meth:`EncryptedDatabase.fused_arena`
_ARENA_LOCK = threading.Lock()


@dataclass
class PackedDatabase:
    """Plaintext-side packed database: polynomials plus bookkeeping."""

    plaintexts: List[Plaintext]
    bit_length: int
    chunk_width: int
    n: int

    @property
    def num_chunks(self) -> int:
        return -(-self.bit_length // self.chunk_width)

    @property
    def num_polynomials(self) -> int:
        return len(self.plaintexts)

    def chunk(self, global_index: int) -> int:
        """The ``global_index``-th packed chunk value."""
        poly = self.plaintexts[global_index // self.n]
        return int(poly.poly.coeffs[global_index % self.n])


@dataclass
class EncryptedDatabase:
    """Server-side encrypted database (Eq. 7)."""

    ciphertexts: List[Ciphertext]
    bit_length: int
    chunk_width: int
    n: int
    #: masking polynomials used under deterministic encryption (None when
    #: semantically secure encryption was used)
    deterministic_seed: Optional[int] = None
    #: derived-value caches (wire size, ciphertext arena); invalidated
    #: whenever ``ciphertexts`` is rebound — callers that mutate the
    #: list *in place* must call :meth:`invalidate_caches` themselves.
    _serialized_bytes: Optional[int] = field(
        default=None, repr=False, compare=False
    )
    _arena: Optional[object] = field(default=None, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        if name == "ciphertexts":
            object.__setattr__(self, "_serialized_bytes", None)
            object.__setattr__(self, "_arena", None)
        object.__setattr__(self, name, value)

    @property
    def num_polynomials(self) -> int:
        return len(self.ciphertexts)

    @property
    def serialized_bytes(self) -> int:
        """Total wire size of the stored ciphertexts.

        Computed once and cached: the serving report and the footprint
        accounting read this per query, and the O(num_polys) sum showed
        up in serving profiles.
        """
        if self._serialized_bytes is None:
            self._serialized_bytes = sum(
                ct.serialized_bytes for ct in self.ciphertexts
            )
        return self._serialized_bytes

    def invalidate_caches(self) -> None:
        """Drop derived caches after in-place ciphertext mutation."""
        self._serialized_bytes = None
        self._arena = None

    def fused_arena(self, ring, params) -> "CiphertextArena":
        """The database's :class:`~repro.he.arena.CiphertextArena` —
        the stacked ``(num_polys, 2, n)`` storage the fused search
        kernels broadcast over.  Created lazily: construction validates
        and allocates, but rows and phases materialize per build tile on
        first touch (outsourcing pays nothing up front; a serving shard
        builds only its own range).  Cached on the database; racing
        first callers get the one arena, so each tile is paid for once."""
        with _ARENA_LOCK:
            arena = self._arena
            if arena is None or arena.ring != ring:
                arena = CiphertextArena.from_ciphertexts(
                    ring, params, self.ciphertexts, lazy=True
                )
                self._arena = arena
            return arena


@dataclass
class FootprintReport:
    """Memory-footprint accounting used by the Figure 2a reproduction."""

    raw_bytes: int
    packed_plaintext_bytes: int
    encrypted_bytes: int
    scheme: str = "ciphermatch"


class DataPacker:
    """Packs and encrypts binary databases with the CIPHERMATCH scheme."""

    def __init__(self, ctx: BFVContext, chunk_width: int | None = None):
        self.ctx = ctx
        self.encoder = ChunkPackEncoder(ctx, chunk_width)
        self.chunk_width = self.encoder.chunk_width

    def pack(self, bits: np.ndarray) -> PackedDatabase:
        message = self.encoder.encode(np.asarray(bits, dtype=np.uint8))
        return PackedDatabase(
            plaintexts=message.plaintexts,
            bit_length=len(bits),
            chunk_width=self.chunk_width,
            n=self.ctx.params.n,
        )

    def encrypt(
        self,
        packed: PackedDatabase,
        pk: PublicKey,
        *,
        deterministic_seed: int | None = None,
    ) -> EncryptedDatabase:
        """Encrypt every packed polynomial.

        With ``deterministic_seed`` set, encryption is noiseless with
        masking polynomials derived from the seed (``SERVER_DETERMINISTIC``
        in :mod:`repro.core.match_polynomial`): this enables the paper's
        literal server-side match-polynomial comparison.
        """
        cts = []
        for j, pt in enumerate(packed.plaintexts):
            if deterministic_seed is None:
                cts.append(self.ctx.encrypt(pt, pk))
            else:
                u = derive_masking_poly(self.ctx, deterministic_seed, "db", j)
                cts.append(self.ctx.encrypt(pt, pk, noiseless=True, u=u))
        return EncryptedDatabase(
            ciphertexts=cts,
            bit_length=packed.bit_length,
            chunk_width=packed.chunk_width,
            n=packed.n,
            deterministic_seed=deterministic_seed,
        )

    def footprint(self, bit_length: int) -> FootprintReport:
        """Size accounting for a database of ``bit_length`` bits."""
        params = self.ctx.params
        num_chunks = -(-bit_length // self.chunk_width)
        num_polys = max(1, -(-num_chunks // params.n))
        return FootprintReport(
            raw_bytes=-(-bit_length // 8),
            packed_plaintext_bytes=num_polys * params.plaintext_bytes,
            encrypted_bytes=num_polys * params.ciphertext_bytes,
        )


def derive_masking_poly(
    ctx: BFVContext, seed: int, label: str, index: int
) -> RingPoly:
    """Deterministically derive an encryption masking polynomial ``u``.

    Both endpoints of the deterministic index-generation protocol derive
    the same ``u`` values from the shared seed, which is what lets the
    server predict what a matching result ciphertext looks like.
    """
    # Stable across processes (unlike hash() on strings).
    label_tag = int.from_bytes(label.encode("ascii"), "big")
    material = (seed * 1_000_003 + index * 97 + label_tag) & 0x7FFF_FFFF
    rng = np.random.default_rng(material)
    return ctx.ring.random_ternary(rng)

