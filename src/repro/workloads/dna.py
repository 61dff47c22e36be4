"""Case study 1: exact DNA string matching (§5.3).

DNA sequence analysis uses exact string matching in the seeding step:
short reads are matched against a reference genome.  Query sizes range
8-128 base pairs (16-256 bits at 2 bits/base).  The paper's workload is
a synthetic 32 GB DNA database (128 GB encrypted); this module generates
scaled-down equivalents with the same structure: a random reference
genome with reads *planted* at known positions, so tests can verify the
secure matcher finds exactly the planted (and any incidental) matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..utils.rng import SeedLike, as_generator

#: 2-bit base encoding, fixed by convention (A=00, C=01, G=10, T=11).
BASE_TO_BITS = {"A": (0, 0), "C": (0, 1), "G": (1, 0), "T": (1, 1)}
BASES = "ACGT"
BITS_PER_BASE = 2


def sequence_to_bits(sequence: str) -> np.ndarray:
    """Encode a DNA string into its 2-bit-per-base bit vector."""
    out = np.zeros(len(sequence) * BITS_PER_BASE, dtype=np.uint8)
    for i, base in enumerate(sequence):
        try:
            b0, b1 = BASE_TO_BITS[base]
        except KeyError:
            raise ValueError(f"invalid base {base!r} at position {i}") from None
        out[2 * i] = b0
        out[2 * i + 1] = b1
    return out


def random_genome(num_bases: int, rng: SeedLike) -> str:
    """``rng`` accepts a Generator or a deterministic int seed."""
    indices = as_generator(rng).integers(0, 4, size=num_bases)
    return "".join(BASES[i] for i in indices)


@dataclass
class PlantedRead:
    sequence: str
    position_bases: int

    @property
    def position_bits(self) -> int:
        return self.position_bases * BITS_PER_BASE


@dataclass
class DnaWorkload:
    """A reference genome with planted reads."""

    genome: str
    reads: List[PlantedRead] = field(default_factory=list)

    @property
    def genome_bits(self) -> np.ndarray:
        return sequence_to_bits(self.genome)

    def read_bits(self, index: int) -> np.ndarray:
        return sequence_to_bits(self.reads[index].sequence)

    @property
    def num_bases(self) -> int:
        return len(self.genome)


class DnaWorkloadGenerator:
    """Builds genomes with reads planted at chunk-aligned positions.

    ``chunk_aligned=True`` plants reads at multiples of 8 bases (16
    bits), the alignment CIPHERMATCH detects without verification; the
    paper's seeding use case extracts seeds at fixed offsets, making
    this the representative case.
    """

    def __init__(self, seed: SeedLike = 0):
        self.rng = as_generator(seed)

    def generate(
        self,
        num_bases: int,
        read_length_bases: int,
        num_reads: int,
        *,
        chunk_aligned: bool = True,
        chunk_width_bits: int = 16,
    ) -> DnaWorkload:
        if read_length_bases > num_bases:
            raise ValueError("read longer than genome")
        genome = list(random_genome(num_bases, self.rng))
        align_bases = max(chunk_width_bits // BITS_PER_BASE, 1)
        reads: List[PlantedRead] = []
        taken: List[Tuple[int, int]] = []
        attempts = 0
        while len(reads) < num_reads and attempts < 100 * num_reads:
            attempts += 1
            max_pos = num_bases - read_length_bases
            if chunk_aligned:
                pos = int(self.rng.integers(0, max_pos // align_bases + 1)) * align_bases
            else:
                pos = int(self.rng.integers(0, max_pos + 1))
            if any(pos < end and pos + read_length_bases > start for start, end in taken):
                continue
            seq = random_genome(read_length_bases, self.rng)
            genome[pos : pos + read_length_bases] = seq
            reads.append(PlantedRead(seq, pos))
            taken.append((pos, pos + read_length_bases))
        if len(reads) < num_reads:
            raise RuntimeError("could not place all reads without overlap")
        return DnaWorkload("".join(genome), reads)
