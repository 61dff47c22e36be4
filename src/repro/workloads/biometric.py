"""Case study 3: secure biometric signature matching.

The paper motivates HE-based exact matching with biometric
authentication ([19, 33], §1-2.2): a client's biometric template is
matched against an enrolled gallery without revealing either.  This
module generates iris-code-style binary templates and runs exact
gallery search through the CIPHERMATCH pipeline:

* enrolment: the gallery (concatenated fixed-width templates) is packed,
  encrypted and outsourced;
* authentication: the probe template is searched; a hit at a
  template-aligned offset identifies the enrolled subject.

Exact matching models the signature/token use case (e.g. Pradel &
Mitchell's setting); noisy-probe acceptance belongs to approximate
matchers, which the paper leaves to the approximate-matching literature
— the generator can still produce noisy probes so tests can show they
(correctly) do not exact-match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.client import ClientConfig
from ..core.pipeline import SecureStringMatchPipeline
from ..utils.rng import SeedLike, as_generator


@dataclass
class Enrollee:
    """One enrolled subject: identifier plus binary template."""

    subject_id: str
    template: np.ndarray  # uint8 bit vector

    @property
    def template_bits(self) -> int:
        return len(self.template)


@dataclass
class BiometricGallery:
    """A fixed-width template gallery."""

    enrollees: List[Enrollee]
    template_bits: int

    @property
    def size(self) -> int:
        return len(self.enrollees)

    def concatenated_bits(self) -> np.ndarray:
        return np.concatenate([e.template for e in self.enrollees])

    def subject_at_offset(self, bit_offset: int) -> Optional[str]:
        """Map a template-aligned bit offset back to a subject."""
        if bit_offset % self.template_bits:
            return None
        index = bit_offset // self.template_bits
        if 0 <= index < self.size:
            return self.enrollees[index].subject_id
        return None


class BiometricWorkloadGenerator:
    """Generates galleries of random templates (iris-code-like: i.i.d.
    bits are the standard synthetic model for inter-subject templates).

    ``template_bits`` should be a multiple of the packing chunk width
    (16) so every template starts chunk-aligned — which enrolment
    controls in practice, unlike genomic offsets.
    """

    def __init__(self, seed: SeedLike = 0):
        self.rng = as_generator(seed)

    def generate(self, num_subjects: int, template_bits: int = 256) -> BiometricGallery:
        if template_bits % 16:
            raise ValueError("template width must be a multiple of 16 bits")
        enrollees = [
            Enrollee(
                subject_id=f"subject-{i:04d}",
                template=self.rng.integers(0, 2, template_bits).astype(np.uint8),
            )
            for i in range(num_subjects)
        ]
        return BiometricGallery(enrollees, template_bits)

    def noisy_probe(self, template: np.ndarray, flip_fraction: float) -> np.ndarray:
        """A degraded capture: ``flip_fraction`` of the bits flipped."""
        probe = np.asarray(template, dtype=np.uint8).copy()
        flips = max(int(len(probe) * flip_fraction), 1)
        positions = self.rng.choice(len(probe), size=flips, replace=False)
        probe[positions] ^= 1
        return probe


@dataclass
class AuthenticationResult:
    """Outcome of one probe against the encrypted gallery."""

    accepted: bool
    subject_id: Optional[str]
    match_offsets: List[int] = field(default_factory=list)
    hom_additions: int = 0


class SecureBiometricMatcher:
    """Encrypted-gallery exact template matching.

    >>> gen = BiometricWorkloadGenerator(seed=1)
    >>> gallery = gen.generate(num_subjects=4, template_bits=64)
    >>> from repro.he import BFVParams
    >>> matcher = SecureBiometricMatcher(
    ...     gallery, ClientConfig(BFVParams.test_small(64)))
    >>> matcher.authenticate(gallery.enrollees[2].template).subject_id
    'subject-0002'
    """

    def __init__(self, gallery: BiometricGallery, config: ClientConfig):
        self.gallery = gallery
        self.pipeline = SecureStringMatchPipeline(config)
        self.pipeline.outsource_database(gallery.concatenated_bits())

    def authenticate(self, probe: np.ndarray) -> AuthenticationResult:
        """Exact search of the probe; acceptance requires a hit at a
        template boundary (an interior hit would be a different-subject
        substring collision, astronomically unlikely at 256 bits)."""
        probe = np.asarray(probe, dtype=np.uint8)
        if len(probe) != self.gallery.template_bits:
            raise ValueError(
                f"probe of {len(probe)} bits does not match the gallery's "
                f"{self.gallery.template_bits}-bit templates"
            )
        report = self.pipeline.search(probe)
        for offset in report.matches:
            subject = self.gallery.subject_at_offset(offset)
            if subject is not None:
                return AuthenticationResult(
                    accepted=True,
                    subject_id=subject,
                    match_offsets=report.matches,
                    hom_additions=report.hom_additions,
                )
        return AuthenticationResult(
            accepted=False,
            subject_id=None,
            match_offsets=report.matches,
            hom_additions=report.hom_additions,
        )
