"""Homomorphic-encryption substrate: a from-scratch BFV implementation
(Ring-LWE over ``Z_q[X]/(X^n+1)``) with packing encoders, a Boolean mode
(TFHE stand-in), Galois automorphisms, and noise-budget diagnostics."""

from .arena import (
    CiphertextArena,
    QueryArena,
    decrypt_batch,
    flags_batch,
)
from .backend import PolyBackend, VectorizedBackend
from .batch_encoder import BatchEncoder
from .bfv import BFVContext, Ciphertext, OperationCounter, Plaintext
from .boolean import BooleanContext, GateCostModel
from .encoder import (
    BitPackEncoder,
    ChunkPackEncoder,
    EncodedMessage,
    SingleBitEncoder,
)
from .keys import (
    GaloisKey,
    KeyGenerator,
    PublicKey,
    RelinKey,
    SecretKey,
    generate_keys,
)
from .noise import NoiseBounds, NoiseBudgetEstimator, NoiseTracker
from .params import BFVParams, SecurityReport
from .poly import RingContext, RingPoly
from .serialize import (
    deserialize_ciphertext,
    deserialize_plaintext,
    deserialize_public_key,
    deserialize_secret_key,
    serialize_ciphertext,
    serialize_plaintext,
    serialize_public_key,
    serialize_secret_key,
)

__all__ = [
    "BFVContext",
    "BFVParams",
    "BatchEncoder",
    "BitPackEncoder",
    "BooleanContext",
    "ChunkPackEncoder",
    "Ciphertext",
    "CiphertextArena",
    "QueryArena",
    "EncodedMessage",
    "GaloisKey",
    "GateCostModel",
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
    "SecurityReport",
    "SingleBitEncoder",
    "VectorizedBackend",
    "decrypt_batch",
    "deserialize_ciphertext",
    "deserialize_plaintext",
    "deserialize_public_key",
    "deserialize_secret_key",
    "flags_batch",
    "generate_keys",
    "serialize_ciphertext",
    "serialize_plaintext",
    "serialize_public_key",
    "serialize_secret_key",
]
