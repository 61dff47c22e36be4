"""Case study 2: encrypted database search (§5.3).

A client searches for records in a key-value store hosted on an
untrusted server.  Keys are fixed-width strings; the database flattens
into a binary vector with keys at fixed (chunk-aligned) offsets, so a
key lookup is an aligned exact string match.  The paper's workload
scales the database 2-32 GB (8-128 GB encrypted) and issues 1000
queries; this module generates scaled-down equivalents plus the query
mix (hit / miss ratio) used by the examples and benches.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..utils.bits import bytes_to_bits
from ..utils.rng import SeedLike, as_generator

KEY_ALPHABET = string.ascii_lowercase + string.digits


@dataclass
class Record:
    key: str
    value: str


@dataclass
class KeyValueDatabase:
    """Fixed-width key-value store flattened to a bit vector."""

    records: List[Record]
    key_bytes: int
    value_bytes: int

    @property
    def record_bytes(self) -> int:
        return self.key_bytes + self.value_bytes

    @property
    def record_bits(self) -> int:
        return self.record_bytes * 8

    def flatten_bits(self) -> np.ndarray:
        """Records laid out back-to-back: key then value, fixed width."""
        blob = bytearray()
        for rec in self.records:
            blob += rec.key.encode("ascii").ljust(self.key_bytes, b"\0")[: self.key_bytes]
            blob += rec.value.encode("ascii").ljust(self.value_bytes, b"\0")[
                : self.value_bytes
            ]
        return bytes_to_bits(bytes(blob))

    def key_bits(self, key: str) -> np.ndarray:
        padded = key.encode("ascii").ljust(self.key_bytes, b"\0")[: self.key_bytes]
        return bytes_to_bits(padded)

    def lookup(self, key: str) -> Optional[Record]:
        for rec in self.records:
            if rec.key == key:
                return rec
        return None


@dataclass
class QueryMix:
    """Queries plus ground truth for verification."""

    keys: List[str]
    expected_record_indices: List[Optional[int]] = field(default_factory=list)

    @property
    def num_hits(self) -> int:
        return sum(1 for i in self.expected_record_indices if i is not None)


class DatabaseWorkloadGenerator:
    """Synthesizes key-value stores and query batches."""

    def __init__(self, seed: SeedLike = 0):
        self.rng = as_generator(seed)

    def _random_key(self, length: int) -> str:
        idx = self.rng.integers(0, len(KEY_ALPHABET), size=length)
        return "".join(KEY_ALPHABET[i] for i in idx)

    def generate(
        self,
        num_records: int,
        *,
        key_bytes: int = 8,
        value_bytes: int = 24,
    ) -> KeyValueDatabase:
        keys = set()
        records = []
        while len(records) < num_records:
            key = self._random_key(key_bytes)
            if key in keys:
                continue
            keys.add(key)
            records.append(Record(key, f"value-{len(records):06d}".ljust(value_bytes)))
        return KeyValueDatabase(records, key_bytes, value_bytes)

    def query_mix(
        self,
        db: KeyValueDatabase,
        num_queries: int,
        hit_fraction: float = 0.5,
    ) -> QueryMix:
        keys: List[str] = []
        expected: List[Optional[int]] = []
        for _ in range(num_queries):
            if self.rng.random() < hit_fraction and db.records:
                idx = int(self.rng.integers(0, len(db.records)))
                keys.append(db.records[idx].key)
                expected.append(idx)
            else:
                while True:
                    key = self._random_key(db.key_bytes)
                    if db.lookup(key) is None:
                        break
                keys.append(key)
                expected.append(None)
        return QueryMix(keys, expected)
