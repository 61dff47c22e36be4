"""Case-study application scaling: secure read mapping and biometric
authentication on top of the serving engine (the applications §5.3 motivates),
with measured Hom-Add counts — all additions, never multiplications.
"""

import numpy as np
from _util import emit

from repro.core import ClientConfig
from repro.eval.tables import format_table
from repro.he import BFVParams
from repro.workloads import (
    BiometricWorkloadGenerator,
    DnaWorkloadGenerator,
    SecureBiometricMatcher,
    SecureReadMapper,
)


def _readmapper_table() -> str:
    rows = []
    for read_bases in (16, 24, 32):
        workload = DnaWorkloadGenerator(seed=read_bases).generate(
            num_bases=320, read_length_bases=read_bases, num_reads=2
        )
        mapper = SecureReadMapper(
            workload.genome, ClientConfig(BFVParams.test_small(64)), seed_bases=8
        )
        result = mapper.map_read(workload.reads[0].sequence)
        verified = mapper.verify(result)
        rows.append(
            [
                read_bases,
                result.seeds_searched,
                result.hom_additions,
                "yes" if verified == workload.reads[0].position_bases else "NO",
            ]
        )
    return format_table(
        "Secure read mapping: seeds and Hom-Adds vs read length",
        ["read (bases)", "seeds", "Hom-Adds", "mapped correctly"],
        rows,
        paper_note="seeding case study (§5.3); query work scales with "
        "seed count, zero Hom-Mults throughout",
    )


def _biometric_table() -> str:
    rows = []
    for subjects in (4, 16, 64):
        gen = BiometricWorkloadGenerator(seed=subjects)
        gallery = gen.generate(num_subjects=subjects, template_bits=128)
        matcher = SecureBiometricMatcher(
            gallery, ClientConfig(BFVParams.test_small(64))
        )
        result = matcher.authenticate(gallery.enrollees[0].template)
        impostor = np.random.default_rng(1).integers(0, 2, 128).astype(np.uint8)
        rejected = not matcher.authenticate(impostor).accepted
        rows.append(
            [
                subjects,
                matcher.engine.db.serialized_bytes,
                result.hom_additions,
                "yes" if result.accepted else "NO",
                "yes" if rejected else "NO",
            ]
        )
    return format_table(
        "Secure biometric authentication vs gallery size",
        ["subjects", "encrypted bytes", "Hom-Adds/probe", "genuine accepted", "impostor rejected"],
        rows,
        paper_note="biometric matching application (§1); per-probe work "
        "scales with gallery polynomials",
    )


def test_emit_readmapper(benchmark):
    emit("casestudy_readmapper", _readmapper_table())
    benchmark.pedantic(_readmapper_table, rounds=1, iterations=1)


def test_emit_biometric(benchmark):
    emit("casestudy_biometric", _biometric_table())
    benchmark.pedantic(_biometric_table, rounds=1, iterations=1)
