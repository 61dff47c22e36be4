"""Secure seed-and-vote DNA read mapping on top of CIPHERMATCH.

The paper motivates exact string matching with the *seeding* step of
DNA read mapping (§2.2, §5.3): short substrings ("seeds") of a read are
matched exactly against a reference genome to collect candidate mapping
positions, which a downstream aligner then verifies.  This module builds
that application layer over a one-shard
:class:`~repro.serve.ShardedSearchEngine`:

1. the reference genome is packed + encrypted once and outsourced;
2. each read is cut into non-overlapping seeds;
3. every seed runs one secure search (Hom-Add only, per the paper);
4. seed hits vote for read start positions (hit offset minus the seed's
   offset within the read);
5. positions are ranked by votes — with exact reads, the true position
   collects a vote from every seed.

The mapper never reveals the read or the genome to the server; only the
client-side decode sees match offsets, exactly like the paper's
client/server split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.client import ClientConfig
from ..serve import ShardedSearchEngine
from .dna import BITS_PER_BASE, sequence_to_bits


@dataclass(frozen=True)
class Seed:
    """One extracted seed: its sequence and offset within the read."""

    sequence: str
    read_offset_bases: int

    @property
    def read_offset_bits(self) -> int:
        return self.read_offset_bases * BITS_PER_BASE


class SeedExtractor:
    """Cuts reads into fixed-length, non-overlapping seeds.

    ``seed_bases`` should be a multiple of ``chunk_width / 2`` so seeds
    land on the packing chunks CIPHERMATCH matches without shifting —
    the configuration the paper's seeding case study uses.  A trailing
    fragment shorter than ``seed_bases`` is dropped (standard seeding
    practice: the aligner's verification covers it).
    """

    def __init__(self, seed_bases: int = 8):
        if seed_bases < 1:
            raise ValueError("seed length must be positive")
        self.seed_bases = seed_bases

    def extract(self, read: str) -> List[Seed]:
        if len(read) < self.seed_bases:
            raise ValueError(
                f"read of {len(read)} bases is shorter than one "
                f"{self.seed_bases}-base seed"
            )
        return [
            Seed(read[start : start + self.seed_bases], start)
            for start in range(0, len(read) - self.seed_bases + 1, self.seed_bases)
        ]


@dataclass
class MappingCandidate:
    """A candidate read start position with its supporting seed votes."""

    position_bases: int
    votes: int
    supporting_seeds: List[int] = field(default_factory=list)


@dataclass
class MappingResult:
    """Outcome of mapping one read."""

    read: str
    candidates: List[MappingCandidate]
    seeds_searched: int
    hom_additions: int

    @property
    def best(self) -> Optional[MappingCandidate]:
        return self.candidates[0] if self.candidates else None

    @property
    def confident(self) -> bool:
        """True when every seed voted for the best position (an exact,
        unambiguous end-to-end match)."""
        return (
            self.best is not None and self.best.votes == self.seeds_searched
        )


class SecureReadMapper:
    """Seed-and-vote read mapping over an encrypted reference genome.

    >>> from repro.he import BFVParams
    >>> from repro.core import ClientConfig
    >>> mapper = SecureReadMapper(
    ...     "ACGTACGTGGTTACGTACGTACGTGGCCAAGG",
    ...     ClientConfig(BFVParams.test_small(64)),
    ... )
    >>> result = mapper.map_read("GGTTACGTACGTACGT")
    >>> result.best.position_bases
    8
    """

    def __init__(
        self,
        reference: str,
        config: ClientConfig,
        *,
        seed_bases: int = 8,
        min_votes: int = 1,
    ):
        self.reference = reference
        self.extractor = SeedExtractor(seed_bases)
        self.min_votes = min_votes
        self.engine = ShardedSearchEngine(config, num_shards=1)
        self.engine.outsource(sequence_to_bits(reference))
        self.reads_mapped = 0

    @property
    def reference_bases(self) -> int:
        return len(self.reference)

    def map_read(self, read: str) -> MappingResult:
        """Map one read: search every seed, vote, rank candidates."""
        seeds = self.extractor.extract(read)
        votes: Dict[int, List[int]] = {}
        hom_adds = 0
        for seed_index, seed in enumerate(seeds):
            report = self.engine.search(sequence_to_bits(seed.sequence))
            hom_adds += report.hom_additions
            for hit_bits in report.matches:
                start_bits = hit_bits - seed.read_offset_bits
                if start_bits < 0 or start_bits % BITS_PER_BASE:
                    continue
                start_bases = start_bits // BITS_PER_BASE
                if start_bases + len(read) > self.reference_bases:
                    continue
                votes.setdefault(start_bases, []).append(seed_index)

        candidates = [
            MappingCandidate(pos, len(seed_list), sorted(set(seed_list)))
            for pos, seed_list in votes.items()
            if len(seed_list) >= self.min_votes
        ]
        candidates.sort(key=lambda c: (-c.votes, c.position_bases))
        self.reads_mapped += 1
        return MappingResult(
            read=read,
            candidates=candidates,
            seeds_searched=len(seeds),
            hom_additions=hom_adds,
        )

    def verify(self, result: MappingResult) -> Optional[int]:
        """Client-side final verification: the first candidate whose
        reference window equals the read exactly (the aligner's job in a
        real read mapper)."""
        for candidate in result.candidates:
            window = self.reference[
                candidate.position_bases : candidate.position_bases + len(result.read)
            ]
            if window == result.read:
                return candidate.position_bases
        return None
