"""Wire-level client-server protocol for CIPHERMATCH.

The serving engine (:mod:`repro.serve`) runs the client and the search
in one process; this module puts a *byte boundary* between them,
exercising the two-round exchange the paper credits HE with (§2.2,
"low communication complexity"):

    round 1:  client --[encrypted database]--> server        (offline)
    round 2:  client --[encrypted query rows + row map]--> server
              server --[Hom-Add result blocks]--> client

Every ciphertext crosses the boundary through
:mod:`repro.he.serialize`, so the transcript sizes reported here are
the real protocol footprint (what Figure 2a's memory accounting counts,
measured on the wire).  The query upload is the distinct encrypted
query rows — one per variant — and the ``(V, P)`` map naming the row
each (variant, database polynomial) pair adds
(:func:`~repro.he.arena.query_row_layout`), which depends on the
query's length alone.

Every decoder checks each header and count against the bytes left
before reading or looping, and raises :class:`ValueError` naming the
fault on a short or malformed message.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..he.arena import query_row_layout
from ..he.bfv import BFVContext, Ciphertext
from ..he.params import BFVParams
from ..he.serialize import deserialize_ciphertext, serialize_ciphertext
from ..verify import VerifyLike
from .client import CipherMatchClient, ClientConfig
from .matcher import (
    CPUAdditionBackend,
    MatchCandidate,
    ResultBlock,
    block_hits,
    per_pair_blocks,
)
from .packing import EncryptedDatabase

_LEN = struct.Struct("<I")
_DB_HEADER = struct.Struct("<IIII")
_UPLOAD_HEADER = struct.Struct("<II")
_BLOCK_HEADER = struct.Struct("<III")
#: the row map travels as little-endian uint32
_ROW = np.dtype("<u4")


def _take(data: bytes, offset: int, layout: struct.Struct, what: str) -> tuple:
    """``layout`` unpacked at ``offset``; :class:`ValueError` naming
    ``what`` when fewer bytes than it needs are left."""
    left = len(data) - offset
    if left < layout.size:
        raise ValueError(
            f"truncated {what}: {layout.size} bytes needed at offset "
            f"{offset}, {left} left"
        )
    return layout.unpack_from(data, offset)


def _check_count(count: int, item_bytes: int, left: int, what: str) -> None:
    """A declared ``count`` of ``item_bytes``-byte items must fit in the
    ``left`` bytes that follow — checked before any loop runs."""
    if count * item_bytes > left:
        raise ValueError(
            f"{what} count {count} needs at least {count * item_bytes} "
            f"bytes, {left} left"
        )


def _pack_frames(frames: List[bytes]) -> bytes:
    out = bytearray(_LEN.pack(len(frames)))
    for frame in frames:
        out += _LEN.pack(len(frame))
        out += frame
    return bytes(out)


def _unpack_frames(data: bytes, offset: int = 0) -> List[bytes]:
    """The length-prefixed frames from ``offset`` to the end of ``data``."""
    (count,) = _take(data, offset, _LEN, "frame count")
    offset += _LEN.size
    _check_count(count, _LEN.size, len(data) - offset, "frame")
    frames = []
    for i in range(count):
        (length,) = _take(data, offset, _LEN, f"length of frame {i}")
        offset += _LEN.size
        left = len(data) - offset
        if length > left:
            raise ValueError(
                f"truncated frame {i} of {count}: {length} bytes declared, "
                f"{left} left"
            )
        frames.append(data[offset : offset + length])
        offset += length
    if offset != len(data):
        raise ValueError(
            f"{len(data) - offset} trailing bytes after last frame"
        )
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
    bit_length, chunk_width, n, seed = _take(data, 0, _DB_HEADER, "database header")
    frames = _unpack_frames(data, _DB_HEADER.size)
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


def encode_query_rows(query_cts: Sequence[Ciphertext], row_map: np.ndarray) -> bytes:
    """Serialize the round-2 upload: the ``(V, P)`` row map, then the
    distinct encrypted query rows it names."""
    num_variants, num_polys = row_map.shape
    return (
        _UPLOAD_HEADER.pack(num_variants, num_polys)
        + np.ascontiguousarray(row_map, dtype=_ROW).tobytes()
        + _pack_frames([serialize_ciphertext(ct) for ct in query_cts])
    )


def decode_query_rows(data: bytes, ctx) -> Tuple[List[Ciphertext], np.ndarray]:
    """The query rows and the ``(V, P)`` row map of an upload."""
    num_variants, num_polys = _take(data, 0, _UPLOAD_HEADER, "upload header")
    offset = _UPLOAD_HEADER.size
    pairs = num_variants * num_polys
    _check_count(pairs, _ROW.itemsize, len(data) - offset, "row map entry")
    row_map = np.frombuffer(data, dtype=_ROW, count=pairs, offset=offset)
    frames = _unpack_frames(data, offset + pairs * _ROW.itemsize)
    if pairs and int(row_map.max()) >= len(frames):
        raise ValueError(
            f"row map names row {int(row_map.max())}, "
            f"{len(frames)} rows uploaded"
        )
    cts = [deserialize_ciphertext(frame, ctx) for frame in frames]
    return cts, row_map.reshape(num_variants, num_polys).astype(np.intp)


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
    (count,) = _take(data, 0, _LEN, "block count")
    offset = _LEN.size
    _check_count(count, _BLOCK_HEADER.size, len(data) - offset, "block header")
    metas = []
    for _ in range(count):
        metas.append(_BLOCK_HEADER.unpack_from(data, offset))
        offset += _BLOCK_HEADER.size
    frames = _unpack_frames(data, offset)
    if len(frames) != count:
        raise ValueError(
            f"{count} block headers, {len(frames)} ciphertext frames"
        )
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


class WireServer:
    """The server half of :class:`WireProtocolSession`: handed public
    parameters and bytes, it answers bytes.

    It builds its own context from ``params`` — never the client's RNG
    state or keys — stores the decoded database, and answers a query
    upload with one Hom-Add result block per (variant, polynomial) pair
    (:func:`~.matcher.per_pair_blocks`).  What it is given depends on
    the query's length alone (docs/serving.md "Trust boundary").
    """

    def __init__(self, params: BFVParams):
        self.ctx = BFVContext(params)
        self.backend = CPUAdditionBackend(self.ctx)
        self.db: Optional[EncryptedDatabase] = None

    def store(self, upload: bytes) -> None:
        """Decode and keep the outsourced database (round 1)."""
        self.db = decode_database(upload, self.ctx)

    def search(self, upload: bytes) -> bytes:
        """Answer one query upload with the serialized result blocks."""
        if self.db is None:
            raise RuntimeError("no database stored on the server")
        query_cts, row_map = decode_query_rows(upload, self.ctx)
        polys = range(self.db.num_polynomials)
        if row_map.shape[1] != len(polys):
            raise ValueError(
                f"row map covers {row_map.shape[1]} polynomials, the "
                f"database has {len(polys)}"
            )
        return encode_result_blocks(
            per_pair_blocks(self.backend, self.db, query_cts, row_map, polys)
        )


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
        self.server = WireServer(config.params)
        self.stats = TranscriptStats()
        #: the client's own copy of what it outsourced
        self._db: Optional[EncryptedDatabase] = None

    def outsource(self, bits: np.ndarray) -> None:
        self._db = self.client.outsource(np.asarray(bits, dtype=np.uint8))
        wire = encode_database(self._db)
        self.stats.database_upload = len(wire)
        self.server.store(wire)

    def search(
        self, query_bits: np.ndarray, *, verify: VerifyLike = True
    ) -> List[int]:
        candidates = self.search_candidates(query_bits, verify=verify)
        return [c.offset for c in candidates]

    def search_candidates(
        self, query_bits: np.ndarray, *, verify: VerifyLike = True
    ) -> List[MatchCandidate]:
        if self._db is None:
            raise RuntimeError("outsource a database first")
        client, db = self.client, self._db
        prepared = client.prepare_query(np.asarray(query_bits, dtype=np.uint8))

        # client -> server: one encrypted row per variant + the row map
        rows = client.preparer.encrypt_variant_value(
            prepared, range(prepared.num_variants), client.pk, client.sk,
            deterministic_seed=client.masking_seed,
        )
        upload = encode_query_rows(
            client.preparer.ciphertexts(rows, client.sk),
            query_row_layout(prepared.variants, db.n, range(db.num_polynomials)),
        )
        self.stats.query_upload = len(upload)

        # server -> client: result blocks
        download = self.server.search(upload)
        self.stats.result_download = len(download)
        blocks = decode_result_blocks(download, client.ctx)

        hits = block_hits(blocks, client.flag_matches, prepared.num_variants)
        return client.decode_flags_matrix(prepared, hits, db, verify=verify)
