"""Wire-level client-server protocol for CIPHERMATCH.

:class:`SecureStringMatchPipeline` wires client and server together
in-process; this module puts a *byte boundary* between them, exercising
the two-round exchange the paper credits HE with (§2.2, "low
communication complexity"):

    round 1:  client --[encrypted database]--> server        (offline)
    round 2:  client --[encrypted query variants]--> server
              server --[Hom-Add result blocks]--> client

Every ciphertext crosses the boundary through
:mod:`repro.he.serialize`, so the transcript sizes reported here are
the real protocol footprint (what Figure 2a's memory accounting counts,
measured on the wire).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..he.serialize import deserialize_ciphertext, serialize_ciphertext
from ..verify import VerifyLike
from .client import CipherMatchClient, ClientConfig
from .matcher import MatchCandidate, ResultBlock, block_hits
from .packing import EncryptedDatabase
from .query import PreparedQuery
from .server import CipherMatchServer

_LEN = struct.Struct("<I")
_DB_HEADER = struct.Struct("<IIII")
_BLOCK_HEADER = struct.Struct("<III")


def _pack_frames(frames: List[bytes]) -> bytes:
    out = bytearray(_LEN.pack(len(frames)))
    for frame in frames:
        out += _LEN.pack(len(frame))
        out += frame
    return bytes(out)


def _unpack_frames(data: bytes) -> List[bytes]:
    (count,) = _LEN.unpack_from(data)
    offset = _LEN.size
    frames = []
    for _ in range(count):
        (length,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        frames.append(data[offset : offset + length])
        offset += length
    if offset != len(data):
        raise ValueError("trailing bytes after last frame")
    return frames


# ---------------------------------------------------------------------------
# Database transfer (round 1, offline)
# ---------------------------------------------------------------------------


def encode_database(db: EncryptedDatabase) -> bytes:
    """Serialize an encrypted database for the outsourcing upload."""
    header = _DB_HEADER.pack(
        db.bit_length,
        db.chunk_width,
        db.n,
        0xFFFFFFFF if db.deterministic_seed is None else db.deterministic_seed,
    )
    frames = [serialize_ciphertext(ct) for ct in db.ciphertexts]
    return header + _pack_frames(frames)


def decode_database(data: bytes, ctx) -> EncryptedDatabase:
    bit_length, chunk_width, n, seed = _DB_HEADER.unpack_from(data)
    frames = _unpack_frames(data[_DB_HEADER.size :])
    cts = [deserialize_ciphertext(frame, ctx) for frame in frames]
    return EncryptedDatabase(
        ciphertexts=cts,
        bit_length=bit_length,
        chunk_width=chunk_width,
        n=n,
        deterministic_seed=None if seed == 0xFFFFFFFF else seed,
    )


# ---------------------------------------------------------------------------
# Query / result transfer (round 2)
# ---------------------------------------------------------------------------


def encode_query_variants(
    client: CipherMatchClient,
    prepared: PreparedQuery,
    num_polynomials: int,
) -> bytes:
    """Encrypt and serialize every (variant, polynomial) ciphertext the
    server's search will request — the full round-2 upload."""
    frames = []
    index = []
    for v_idx in range(prepared.num_variants):
        for j in range(num_polynomials):
            ct = client.encrypt_variant(prepared, v_idx, j)
            index.append((v_idx, j))
            frames.append(serialize_ciphertext(ct))
    header = bytearray(_LEN.pack(len(index)))
    for v_idx, j in index:
        header += struct.pack("<II", v_idx, j)
    return bytes(header) + _pack_frames(frames)


def decode_query_variants(data: bytes, ctx) -> Dict[tuple, object]:
    (count,) = _LEN.unpack_from(data)
    offset = _LEN.size
    index = []
    for _ in range(count):
        v_idx, j = struct.unpack_from("<II", data, offset)
        index.append((v_idx, j))
        offset += 8
    frames = _unpack_frames(data[offset:])
    if len(frames) != count:
        raise ValueError("variant index/frame count mismatch")
    return {
        key: deserialize_ciphertext(frame, ctx)
        for key, frame in zip(index, frames)
    }


def encode_result_blocks(blocks: List[ResultBlock]) -> bytes:
    """Serialize the server's Hom-Add results — the round-2 download."""
    header = bytearray(_LEN.pack(len(blocks)))
    frames = []
    for block in blocks:
        header += _BLOCK_HEADER.pack(
            block.poly_index, block.variant_index, block.query_row
        )
        frames.append(serialize_ciphertext(block.ciphertext))
    return bytes(header) + _pack_frames(frames)


def decode_result_blocks(data: bytes, ctx) -> List[ResultBlock]:
    (count,) = _LEN.unpack_from(data)
    offset = _LEN.size
    metas = []
    for _ in range(count):
        metas.append(_BLOCK_HEADER.unpack_from(data, offset))
        offset += _BLOCK_HEADER.size
    frames = _unpack_frames(data[offset:])
    if len(frames) != count:
        raise ValueError("block header/frame count mismatch")
    return [
        ResultBlock(
            poly_index=poly,
            variant_index=variant,
            query_row=row,
            ciphertext=deserialize_ciphertext(frame, ctx),
        )
        for (poly, variant, row), frame in zip(metas, frames)
    ]


# ---------------------------------------------------------------------------
# The two-round session
# ---------------------------------------------------------------------------


@dataclass
class TranscriptStats:
    """Byte counts of every protocol message — HE's communication story."""

    database_upload: int = 0
    query_upload: int = 0
    result_download: int = 0

    @property
    def online_bytes(self) -> int:
        """Round-2 traffic (the database upload is offline/one-time)."""
        return self.query_upload + self.result_download


class WireProtocolSession:
    """Client and server that only ever exchange bytes.

    >>> from repro.he import BFVParams
    >>> session = WireProtocolSession(ClientConfig(BFVParams.test_small(64)))
    >>> db = np.zeros(320, dtype=np.uint8); db[32:48] = 1
    >>> session.outsource(db)
    >>> session.search(np.ones(16, dtype=np.uint8))
    [32]
    """

    def __init__(self, config: ClientConfig):
        self.config = config
        self.client = CipherMatchClient(config)
        self.server = CipherMatchServer(
            # The server builds its own context from public parameters —
            # it never sees the client's RNG state or keys.
            type(self.client.ctx)(config.params)
        )
        self.stats = TranscriptStats()
        self._num_polynomials = 0

    def outsource(self, bits: np.ndarray) -> None:
        db = self.client.outsource(np.asarray(bits, dtype=np.uint8))
        wire = encode_database(db)
        self.stats.database_upload = len(wire)
        self.server.store_database(decode_database(wire, self.server.ctx))
        self._num_polynomials = db.num_polynomials

    def search(
        self, query_bits: np.ndarray, *, verify: VerifyLike = True
    ) -> List[int]:
        candidates = self.search_candidates(query_bits, verify=verify)
        return [c.offset for c in candidates]

    def search_candidates(
        self, query_bits: np.ndarray, *, verify: VerifyLike = True
    ) -> List[MatchCandidate]:
        prepared = self.client.prepare_query(np.asarray(query_bits, dtype=np.uint8))

        # client -> server: all encrypted query variants
        upload = encode_query_variants(self.client, prepared, self._num_polynomials)
        self.stats.query_upload = len(upload)
        variants = decode_query_variants(upload, self.server.ctx)

        # server: Hom-Add search using only deserialized material, one
        # result block per pair (blocks are what crosses the wire)
        blocks = self.server.search(prepared, lambda v, j: variants[(v, j)])

        # server -> client: result blocks
        download = encode_result_blocks(blocks)
        self.stats.result_download = len(download)
        restored = decode_result_blocks(download, self.client.ctx)

        assert self.server.db is not None
        hits = block_hits(restored, self.client.flag_matches, prepared.num_variants)
        return self.client.decode_flags_matrix(
            prepared, hits, self.server.db, verify=verify
        )
