"""Homomorphic-encryption substrate: a from-scratch BFV implementation
(Ring-LWE over ``Z_q[X]/(X^n+1)``) with a packing encoder, SIMD batching
and noise-budget diagnostics."""

from .arena import (
    CiphertextArena,
    QueryArena,
    decrypt_batch,
    flags_batch,
)
from .backend import PolyBackend, VectorizedBackend
from .batch_encoder import BatchEncoder
from .bfv import BFVContext, Ciphertext, OperationCounter, Plaintext
from .encoder import (
    ChunkPackEncoder,
    EncodedMessage,
)
from .keys import (
    KeyGenerator,
    PublicKey,
    RelinKey,
    SecretKey,
    generate_keys,
)
from .noise import NoiseBounds, NoiseBudgetEstimator, NoiseTracker
from .params import BFVParams
from .poly import RingContext, RingPoly
from .serialize import (
    deserialize_ciphertext,
    serialize_ciphertext,
)

__all__ = [
    "BFVContext",
    "BFVParams",
    "BatchEncoder",
    "ChunkPackEncoder",
    "Ciphertext",
    "CiphertextArena",
    "QueryArena",
    "EncodedMessage",
    "KeyGenerator",
    "NoiseBounds",
    "NoiseBudgetEstimator",
    "NoiseTracker",
    "OperationCounter",
    "Plaintext",
    "PolyBackend",
    "PublicKey",
    "RelinKey",
    "RingContext",
    "RingPoly",
    "SecretKey",
    "VectorizedBackend",
    "decrypt_batch",
    "deserialize_ciphertext",
    "flags_batch",
    "generate_keys",
    "serialize_ciphertext",
]
