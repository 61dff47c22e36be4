#!/usr/bin/env python3
"""Secure biometric authentication against an encrypted gallery —
the paper's third motivating application (§1: "biometric matching").

The server stores only encrypted templates and performs only
homomorphic additions; the client learns which enrolled identity (if
any) its probe matched, and the server learns nothing.

Run:  python examples/biometric_auth.py
"""

import numpy as np

from repro.core import ClientConfig
from repro.he import BFVParams
from repro.workloads.biometric import (
    BiometricWorkloadGenerator,
    SecureBiometricMatcher,
)


def main() -> None:
    gen = BiometricWorkloadGenerator(seed=11)
    gallery = gen.generate(num_subjects=8, template_bits=128)
    matcher = SecureBiometricMatcher(
        gallery, ClientConfig(BFVParams.test_small(128))
    )
    print(
        f"enrolled {gallery.size} subjects x {gallery.template_bits}-bit "
        f"templates ({matcher.engine.db.serialized_bytes} encrypted bytes "
        "on the server)\n"
    )

    # Genuine probes: every enrollee authenticates as themselves.
    for enrollee in gallery.enrollees[:3]:
        result = matcher.authenticate(enrollee.template)
        print(
            f"genuine probe for {enrollee.subject_id}: "
            f"{'ACCEPT as ' + result.subject_id if result.accepted else 'REJECT'} "
            f"({result.hom_additions} Hom-Adds)"
        )

    # An impostor probe: random template, not enrolled.
    rng = np.random.default_rng(99)
    impostor = rng.integers(0, 2, gallery.template_bits).astype(np.uint8)
    result = matcher.authenticate(impostor)
    print(f"impostor probe: {'ACCEPT?!' if result.accepted else 'REJECT'}")

    # A degraded capture: 5% bit flips — exact matching rejects it,
    # which is the boundary between this paper's exact matching and the
    # approximate-matching literature it cites.
    noisy = gen.noisy_probe(gallery.enrollees[0].template, flip_fraction=0.05)
    result = matcher.authenticate(noisy)
    print(
        f"noisy genuine probe (5% flips): "
        f"{'ACCEPT' if result.accepted else 'REJECT (exact matcher; see docstring)'}"
    )


if __name__ == "__main__":
    main()
