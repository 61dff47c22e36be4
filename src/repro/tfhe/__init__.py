"""A from-scratch TFHE (Fast Fully Homomorphic Encryption over the
Torus) implementation with true gate bootstrapping.

The paper's Boolean baseline [17, 33] is built on TFHE-rs; this
subpackage implements the real scheme — torus LWE, ring TLWE, TGSW with
gadget decomposition, CMux, blind rotation, sample extraction, key
switching and bootstrapped Boolean gates — so the per-bit ciphertext
blow-up, the gate noise behaviour and the unlimited gate depth of the
Boolean approach can all be exercised end to end
(:class:`repro.baselines.TfheBooleanMatcher`).

Scale note: Python-exact polynomial arithmetic makes production-size
gates (n = 630, N = 1024) cost seconds each, so functional tests use the
reduced ``TFHEParams.test_small()`` sets; the figure-scale numbers come
from ``eval/calibration.py::SoftwareFamilyCalibration`` (per-gate time
``gate_latency_s``, per-bit ciphertext ``boolean_bit_ct_bytes``).
"""

from .bootstrap import BootstrappingKey, KeySwitchKey
from .circuits import EncryptedWord, TfheArithmetic
from .gates import TFHEContext
from .lwe import LweKey, LweSample
from .params import TFHEParams
from .tgsw import TGswKey, TGswSample, cmux, external_product
from .tlwe import TLweKey, TLweSample

__all__ = [
    "BootstrappingKey",
    "EncryptedWord",
    "KeySwitchKey",
    "LweKey",
    "LweSample",
    "TFHEContext",
    "TFHEParams",
    "TGswKey",
    "TGswSample",
    "TLweKey",
    "TLweSample",
    "TfheArithmetic",
    "cmux",
    "external_product",
]
