"""The paper's case-study workloads: exact DNA string matching and
encrypted database search (§5.3), plus the biometric matching
application the introduction motivates, and the seed-and-vote secure
read mapper built on case study 1."""

from .biometric import (
    AuthenticationResult,
    BiometricGallery,
    BiometricWorkloadGenerator,
    Enrollee,
    SecureBiometricMatcher,
)
from .database import (
    DatabaseWorkloadGenerator,
    KeyValueDatabase,
    QueryMix,
    Record,
)
from .dna import (
    BASES,
    BITS_PER_BASE,
    DnaWorkload,
    DnaWorkloadGenerator,
    PlantedRead,
    random_genome,
    sequence_to_bits,
)
from .readmapper import (
    MappingCandidate,
    MappingResult,
    SecureReadMapper,
    Seed,
    SeedExtractor,
)

__all__ = [
    "AuthenticationResult",
    "BiometricGallery",
    "BiometricWorkloadGenerator",
    "Enrollee",
    "SecureBiometricMatcher",
    "MappingCandidate",
    "MappingResult",
    "SecureReadMapper",
    "Seed",
    "SeedExtractor",
    "BASES",
    "BITS_PER_BASE",
    "DatabaseWorkloadGenerator",
    "DnaWorkload",
    "DnaWorkloadGenerator",
    "KeyValueDatabase",
    "PlantedRead",
    "QueryMix",
    "Record",
    "random_genome",
    "sequence_to_bits",
]
