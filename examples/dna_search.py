"""Case study 1: exact DNA string matching (paper §5.3).

Generates a synthetic reference genome with planted reads (the seeding
workload of read mapping), outsources the encrypted genome, and maps
each read with CIPHERMATCH — comparing the operation counts against the
arithmetic baseline run on the same genome.

Run:  python examples/dna_search.py
"""

import numpy as np

from repro.baselines import YasudaMatcher, find_all_matches
from repro.core import ClientConfig, SecureStringMatchPipeline
from repro.he import BFVParams, generate_keys
from repro.workloads import DnaWorkloadGenerator


def main() -> None:
    gen = DnaWorkloadGenerator(seed=7)
    workload = gen.generate(num_bases=4000, read_length_bases=24, num_reads=5)
    genome_bits = workload.genome_bits
    print(
        f"reference genome: {workload.num_bases} bases "
        f"({len(genome_bits)} bits); {len(workload.reads)} planted reads "
        f"of 24 bases (48-bit queries)"
    )

    # --- CIPHERMATCH ---------------------------------------------------
    pipeline = SecureStringMatchPipeline(
        ClientConfig(BFVParams.test_small(64), key_seed=11)
    )
    enc = pipeline.outsource_database(genome_bits)
    print(
        f"encrypted genome: {enc.num_polynomials} ciphertexts "
        f"({enc.serialized_bytes / 1024:.1f} KiB)"
    )

    total_adds = 0
    for i, read in enumerate(workload.reads):
        bits = workload.read_bits(i)
        report = pipeline.search(bits)
        total_adds += report.hom_additions
        found = "FOUND" if read.position_bits in report.matches else "MISSED"
        print(
            f"  read {i}: {read.sequence[:12]}... planted at base "
            f"{read.position_bases:5d} -> {found} "
            f"(matches at bit offsets {report.matches})"
        )
        assert report.matches == find_all_matches(genome_bits, bits)
    print(f"CIPHERMATCH total: {total_adds} Hom-Adds, 0 Hom-Mults")

    # --- arithmetic baseline on a slice of the genome -------------------
    params = BFVParams.arithmetic_baseline(n=256, t=1024)
    yasuda = YasudaMatcher(params, max_query_bits=48, seed=12)
    sk, pk, rlk = generate_keys(params, seed=12, relin=True)
    slice_bits = genome_bits[:1000]
    enc_db = yasuda.encrypt_database(slice_bits, pk)
    read0 = slice_bits[200:248].copy()  # a 24-base read from the slice
    matches = yasuda.search(enc_db, read0, pk, sk, rlk)
    print(
        f"arithmetic baseline (1000-bit slice): "
        f"{yasuda.ops.multiplications} Hom-Mults + {yasuda.ops.additions} "
        f"Hom-Adds for one read -> matches {matches}"
    )
    print(
        "CIPHERMATCH replaces every Hom-Mult with plain additions — the "
        "operation the in-flash architecture executes natively."
    )


if __name__ == "__main__":
    main()
