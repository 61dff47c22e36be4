"""Baseline string matchers: the plaintext oracle plus all five
prior-work HE approaches from Table 1 (§2.2, §3.1).

Boolean approach: :class:`BooleanMatcher` (BFV stand-in, with and
without SIMD batching — Pradel et al. [33] / Aziz et al. [17]) and
:class:`TfheBooleanMatcher` (the same circuit over real bootstrapped
TFHE gates from :mod:`repro.tfhe`).

Arithmetic approach: :class:`YasudaMatcher` [27] (Hamming distance),
:class:`KimHomEQMatcher` [34] (equality circuit, compressed result) and
:class:`BonteMatcher` [29] (constant-depth batched equality).
"""

from .bonte import BonteEncryptedDatabase, BonteMatcher, bonte_params
from .boolean_match import BooleanEncryptedDatabase, BooleanMatcher
from .kim_homeq import KimEncryptedDatabase, KimHomEQMatcher, homeq_params
from ..utils.bits import matches_at
from .plaintext import find_all_matches
from .tfhe_boolean import TfheBooleanMatcher, TfheEncryptedDatabase
from .yasuda import YasudaEncryptedDatabase, YasudaMatcher

__all__ = [
    "BonteEncryptedDatabase",
    "BonteMatcher",
    "BooleanEncryptedDatabase",
    "BooleanMatcher",
    "KimEncryptedDatabase",
    "KimHomEQMatcher",
    "TfheBooleanMatcher",
    "TfheEncryptedDatabase",
    "YasudaEncryptedDatabase",
    "YasudaMatcher",
    "bonte_params",
    "find_all_matches",
    "homeq_params",
    "matches_at",
]
