#!/usr/bin/env python3
"""Secure DNA read mapping — the paper's seeding case study end to end.

A reference genome is packed, encrypted and outsourced once; reads are
cut into seeds, each seed runs one Hom-Add-only secure search, and seed
hits vote for mapping positions.  The server never sees the genome, the
reads, or which positions matched.

Run:  python examples/secure_read_mapping.py
"""

import numpy as np

from repro.core import ClientConfig
from repro.he import BFVParams
from repro.workloads import DnaWorkloadGenerator, SecureReadMapper


def main() -> None:
    rng_seed = 42
    generator = DnaWorkloadGenerator(seed=rng_seed)
    workload = generator.generate(
        num_bases=640, read_length_bases=24, num_reads=4, chunk_aligned=True
    )
    print(f"reference genome: {workload.num_bases} bases "
          f"({workload.num_bases * 2} bits before encryption)")

    mapper = SecureReadMapper(
        workload.genome,
        ClientConfig(BFVParams.test_small(128)),
        seed_bases=8,
    )
    print(f"outsourced encrypted reference "
          f"({mapper.engine.db.serialized_bytes} ciphertext bytes)\n")

    correct = 0
    for i, read in enumerate(workload.reads):
        result = mapper.map_read(read.sequence)
        verified = mapper.verify(result)
        status = "OK " if verified == read.position_bases else "MISS"
        correct += verified == read.position_bases
        best = result.best
        print(
            f"read {i}: planted@{read.position_bases:>4} -> "
            f"best candidate {best.position_bases if best else '-':>4} "
            f"({best.votes if best else 0}/{result.seeds_searched} seed votes, "
            f"{result.hom_additions} Hom-Adds) {status}"
        )

    # A read that does not come from the genome should not map.
    rng = np.random.default_rng(rng_seed + 1)
    from repro.workloads import random_genome

    foreign = random_genome(24, rng)
    result = mapper.map_read(foreign)
    print(f"\nforeign read: {'no confident mapping' if not result.confident else 'mapped?!'} "
          f"({len(result.candidates)} low-vote candidates)")

    print(f"\nmapped {correct}/{len(workload.reads)} planted reads correctly; "
          "the server performed additions on ciphertexts only.")


if __name__ == "__main__":
    main()
