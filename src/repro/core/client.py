"""The client (user) side of the CIPHERMATCH protocol.

The client owns the data and the keys: it packs and encrypts the
database before outsourcing it, prepares encrypted queries, and decodes
(and under ``CLIENT_DECRYPT`` mode, decrypts) the search results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..he.bfv import BFVContext
from ..he.keys import KeyGenerator, PublicKey, SecretKey
from ..he.params import BFVParams
from ..utils.bits import matches_at
from ..verify import VerifyLike, want_verify
from .match_polynomial import IndexMode, flag_matches_by_decryption
from .matcher import (
    FusedResultSet,
    MatchCandidate,
    ResultBlock,
    ResultDecoder,
    verify_candidates,
)
from .packing import DataPacker, EncryptedDatabase, PackedDatabase
from .query import PreparedQuery, QueryPreparer


@dataclass
class ClientConfig:
    params: BFVParams
    chunk_width: Optional[int] = None
    index_mode: IndexMode = IndexMode.CLIENT_DECRYPT
    deterministic_seed: Optional[int] = None
    key_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.index_mode is IndexMode.SERVER_DETERMINISTIC and (
            self.deterministic_seed is None
        ):
            self.deterministic_seed = 0xC1F0


class CipherMatchClient:
    """Client endpoint: key owner, data owner, query issuer."""

    def __init__(self, config: ClientConfig):
        self.config = config
        self.ctx = BFVContext(config.params, seed=config.key_seed)
        keygen = KeyGenerator(config.params, seed=config.key_seed)
        self.sk: SecretKey = keygen.secret_key()
        self.pk: PublicKey = keygen.public_key(self.sk)
        self.packer = DataPacker(self.ctx, config.chunk_width)
        self.preparer = QueryPreparer(self.ctx, self.packer.chunk_width)
        self._db_bits: Optional[np.ndarray] = None

    @property
    def chunk_width(self) -> int:
        return self.packer.chunk_width

    # -- database preparation (Algorithm 1, lines 1-3) -----------------

    def pack_database(self, bits: np.ndarray) -> PackedDatabase:
        self._db_bits = np.asarray(bits, dtype=np.uint8)
        return self.packer.pack(self._db_bits)

    def encrypt_database(self, packed: PackedDatabase) -> EncryptedDatabase:
        seed = None
        if self.config.index_mode is IndexMode.SERVER_DETERMINISTIC:
            seed = self.config.deterministic_seed
        return self.packer.encrypt(packed, self.pk, deterministic_seed=seed)

    def outsource(self, bits: np.ndarray) -> EncryptedDatabase:
        """Pack + encrypt in one call (what a deployment would do)."""
        return self.encrypt_database(self.pack_database(bits))

    # -- query preparation (lines 4-9) ----------------------------------

    def prepare_query(self, query_bits: np.ndarray) -> PreparedQuery:
        return self.preparer.prepare(query_bits)

    def encrypt_variant(self, prepared: PreparedQuery, variant_index: int, poly_index: int):
        seed = None
        if self.config.index_mode is IndexMode.SERVER_DETERMINISTIC:
            seed = self.config.deterministic_seed
        return self.preparer.encrypt_variant(
            prepared, variant_index, poly_index, self.pk, self.sk,
            deterministic_seed=seed,
        )

    # -- result handling (line 12 and the verification step) -----------

    def decode_results(
        self,
        prepared: PreparedQuery,
        blocks: List[ResultBlock],
        db: EncryptedDatabase,
        *,
        verify: VerifyLike = True,
    ) -> List[MatchCandidate]:
        """Flag all-ones coefficients (decrypting under CLIENT_DECRYPT),
        map them to bit offsets, optionally verify against the client's
        own plaintext copy.

        ``verify`` accepts a bool or a :class:`repro.verify.VerifyPolicy`
        — this is the single place the whole pipeline family resolves
        the policy to a decision.
        """
        if isinstance(blocks, FusedResultSet):
            return self.decode_flags_matrix(
                prepared, blocks.flags_by_decryption(self.sk), db, verify=verify
            )
        flags: Dict[tuple, np.ndarray] = {}
        for block in blocks:
            flags[(block.variant_index, block.poly_index)] = (
                flag_matches_by_decryption(
                    self.ctx, block.ciphertext, self.sk, self.chunk_width
                )
            )
        decoder = ResultDecoder(self.chunk_width, db.n, db.bit_length)
        candidates = decoder.decode(prepared, flags, db.num_polynomials)
        return self._maybe_verify(candidates, prepared, verify)

    def decode_flags_matrix(
        self,
        prepared: PreparedQuery,
        hits: Sequence[np.ndarray],
        db: EncryptedDatabase,
        *,
        verify: VerifyLike = True,
    ) -> List[MatchCandidate]:
        """Decode the fused kernels' native output — per variant, the
        sorted flat indices ``j * n + c`` of the set flags of its
        ``(num_polys, n)`` flag matrix — with the same offset mapping
        and verification policy as :meth:`decode_results`.  (The name
        predates the index form; the benchmark's tracer resolves it.)"""
        decoder = ResultDecoder(self.chunk_width, db.n, db.bit_length)
        candidates = decoder.decode_hits(prepared, hits)
        return self._maybe_verify(candidates, prepared, verify)

    def _maybe_verify(
        self,
        candidates: List[MatchCandidate],
        prepared: PreparedQuery,
        verify: VerifyLike,
    ) -> List[MatchCandidate]:
        if want_verify(verify) and self._db_bits is not None:
            return verify_candidates(
                candidates,
                lambda off: matches_at(self._db_bits, prepared.query_bits, off),
            )
        return candidates

    def decode_server_flags(
        self,
        prepared: PreparedQuery,
        flags: Dict[tuple, np.ndarray],
        db: EncryptedDatabase,
        *,
        verify: VerifyLike = True,
    ) -> List[MatchCandidate]:
        """Decode match flags the server produced (deterministic mode)."""
        decoder = ResultDecoder(self.chunk_width, db.n, db.bit_length)
        candidates = decoder.decode(prepared, flags, db.num_polynomials)
        return self._maybe_verify(candidates, prepared, verify)
