"""Typed request and response contracts of the unified search facade.

Every engine adapter in :mod:`repro.api.engines` consumes the frozen
request dataclasses defined here and returns a :class:`SearchResult`,
regardless of which scheme (BFV packing, Boolean circuits, TFHE gates,
arithmetic baselines, plaintext) executes underneath.  Requests are
immutable and hashable on purpose: the session layer deduplicates and
caches on them, and they survive being queued across threads.

Bit payloads are stored as ``tuple[int, ...]`` rather than numpy arrays
so the dataclasses stay frozen/hashable; the ``from_*`` constructors
accept the convenient spellings (numpy arrays, ASCII text, raw bytes —
the workload-level payloads of the case studies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

import numpy as np

from ..utils.bits import bytes_to_bits, text_to_bits
from ..verify import VerifyPolicy


def _as_bit_tuple(bits: Iterable[int]) -> Tuple[int, ...]:
    out = tuple(int(b) for b in np.asarray(bits, dtype=np.int64).ravel())
    if any(b not in (0, 1) for b in out):
        raise ValueError("bit payloads must contain only 0/1 values")
    return out


@dataclass(frozen=True)
class SearchRequest:
    """Base class of every request the facade accepts."""

    verify: VerifyPolicy = field(default=VerifyPolicy.AUTO, kw_only=True)

    def __post_init__(self) -> None:
        # Accept the legacy bool spelling anywhere a policy is expected.
        object.__setattr__(self, "verify", VerifyPolicy.coerce(self.verify))


@dataclass(frozen=True)
class ExactSearch(SearchRequest):
    """Find every bit offset where ``bits`` occurs in the database."""

    bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "bits", _as_bit_tuple(self.bits))
        if not self.bits:
            raise ValueError("empty query")

    @property
    def num_bits(self) -> int:
        return len(self.bits)

    def bit_array(self) -> np.ndarray:
        return np.array(self.bits, dtype=np.uint8)

    # -- workload-level constructors ------------------------------------

    @classmethod
    def from_bits(cls, bits, *, verify: VerifyPolicy = VerifyPolicy.AUTO) -> "ExactSearch":
        return cls(_as_bit_tuple(bits), verify=verify)

    @classmethod
    def from_bytes(cls, payload: bytes, *, verify: VerifyPolicy = VerifyPolicy.AUTO) -> "ExactSearch":
        return cls(tuple(int(b) for b in bytes_to_bits(payload)), verify=verify)

    @classmethod
    def from_text(cls, text: str, *, verify: VerifyPolicy = VerifyPolicy.AUTO) -> "ExactSearch":
        """ASCII payload — the encrypted-database / DNA case-study form."""
        return cls(tuple(int(b) for b in text_to_bits(text)), verify=verify)


@dataclass(frozen=True)
class WildcardSearch(SearchRequest):
    """Find every offset where a pattern with don't-care bits occurs.

    ``mask[i] == 1`` marks a literal bit, ``0`` a wildcard.
    """

    bits: Tuple[int, ...]
    mask: Tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "bits", _as_bit_tuple(self.bits))
        object.__setattr__(self, "mask", _as_bit_tuple(self.mask))
        if len(self.bits) != len(self.mask):
            raise ValueError("bits and mask must have the same length")
        if not any(self.mask):
            raise ValueError("pattern has no literal bits")

    @property
    def num_bits(self) -> int:
        return len(self.bits)

    @property
    def literal_bits(self) -> int:
        return sum(self.mask)

    @classmethod
    def from_text(
        cls,
        pattern: str,
        wildcard: str = "?",
        *,
        verify: VerifyPolicy = VerifyPolicy.AUTO,
    ) -> "WildcardSearch":
        """Byte-level wildcards over an ASCII pattern (``AB??CD``)."""
        # The canonical parser lives with the pattern type (lazy import:
        # repro.core loads after repro.verify but this module is a leaf).
        from ..core.wildcard import WildcardPattern

        bits, mask = WildcardPattern.from_text(pattern, wildcard).to_bits_and_mask()
        return cls(tuple(int(b) for b in bits), tuple(int(m) for m in mask),
                   verify=verify)


@dataclass(frozen=True)
class BatchSearch(SearchRequest):
    """A batch of exact queries executed as one unit (Figure 9/12)."""

    queries: Tuple[ExactSearch, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        queries = tuple(
            q if isinstance(q, ExactSearch) else ExactSearch.from_bits(q)
            for q in self.queries
        )
        if not queries:
            raise ValueError("empty batch")
        object.__setattr__(self, "queries", queries)

    @property
    def num_queries(self) -> int:
        return len(self.queries)

    @classmethod
    def from_bit_arrays(
        cls, arrays: Sequence, *, verify: VerifyPolicy = VerifyPolicy.AUTO
    ) -> "BatchSearch":
        return cls(tuple(ExactSearch.from_bits(a) for a in arrays), verify=verify)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomOpTally:
    """Homomorphic-operation counts attributed to one request."""

    additions: int = 0
    multiplications: int = 0
    plain_multiplications: int = 0
    bootstraps: int = 0

    @property
    def total(self) -> int:
        return (
            self.additions
            + self.multiplications
            + self.plain_multiplications
            + self.bootstraps
        )


@dataclass(frozen=True)
class ShardBreakdown:
    """Per-shard execution share for sharded engines."""

    shard_id: int
    num_polynomials: int
    hom_adds: int
    tasks_executed: int


@dataclass(frozen=True)
class SearchResult:
    """What every engine returns, whatever runs underneath."""

    matches: Tuple[int, ...]
    engine: str
    scheme: str
    hom_ops: HomOpTally
    elapsed_seconds: float
    verified: bool
    num_variants: int = 0
    encrypted_db_bytes: int = 0
    shards: Tuple[ShardBreakdown, ...] = ()
    #: shards whose results are missing (partial-results degradation);
    #: empty means the matches cover the whole database
    degraded_shards: Tuple[int, ...] = ()

    @property
    def num_matches(self) -> int:
        return len(self.matches)

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_shards)

    @property
    def sharded(self) -> bool:
        return len(self.shards) > 1


@dataclass(frozen=True)
class BatchSearchResult:
    """Per-query results of a :class:`BatchSearch`, submission order."""

    results: Tuple[SearchResult, ...]
    engine: str
    elapsed_seconds: float
    deduplicated_hits: int = 0

    @property
    def num_queries(self) -> int:
        return len(self.results)

    @property
    def total_matches(self) -> int:
        return sum(r.num_matches for r in self.results)

    @property
    def total_hom_ops(self) -> int:
        return sum(r.hom_ops.total for r in self.results)

    def matches_per_query(self) -> list[list[int]]:
        return [list(r.matches) for r in self.results]
