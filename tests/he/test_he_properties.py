"""Property-based tests (hypothesis) for the HE substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import BFVContext, BFVParams, ChunkPackEncoder, KeyGenerator
from repro.he.poly import RingContext
from repro.utils.bits import chunk_bits, unchunk_bits

PARAMS = BFVParams.test_small(16)
CTX = BFVContext(PARAMS, seed=1)
GEN = KeyGenerator(PARAMS, seed=1)
SK = GEN.secret_key()
PK = GEN.public_key(SK)
RING = RingContext(16, (1 << 32))

coeff_vectors = st.lists(
    st.integers(min_value=0, max_value=PARAMS.t - 1),
    min_size=PARAMS.n,
    max_size=PARAMS.n,
)

ring_vectors = st.lists(
    st.integers(min_value=0, max_value=RING.q - 1), min_size=16, max_size=16
)


@settings(max_examples=25, deadline=None)
@given(coeff_vectors)
def test_encrypt_decrypt_roundtrip(coeffs):
    ct = CTX.encrypt(CTX.plaintext(coeffs), PK)
    assert np.array_equal(CTX.decrypt(ct, SK).poly.coeffs, np.array(coeffs))


@settings(max_examples=25, deadline=None)
@given(coeff_vectors, coeff_vectors)
def test_homomorphic_addition_property(m1, m2):
    """decrypt(E(m1) + E(m2)) == m1 + m2 mod t — the algebraic law the
    whole CIPHERMATCH algorithm rests on."""
    ct = CTX.add(CTX.encrypt(CTX.plaintext(m1), PK), CTX.encrypt(CTX.plaintext(m2), PK))
    expected = (np.array(m1) + np.array(m2)) % PARAMS.t
    assert np.array_equal(CTX.decrypt(ct, SK).poly.coeffs, expected)


@settings(max_examples=25, deadline=None)
@given(ring_vectors, ring_vectors, ring_vectors)
def test_ring_add_associative(a, b, c):
    pa, pb, pc = RING.make(a), RING.make(b), RING.make(c)
    assert (pa + pb) + pc == pa + (pb + pc)


@settings(max_examples=15, deadline=None)
@given(ring_vectors, ring_vectors, ring_vectors)
def test_ring_mul_distributes_over_add(a, b, c):
    pa, pb, pc = RING.make(a), RING.make(b), RING.make(c)
    assert pa * (pb + pc) == pa * pb + pa * pc

@settings(max_examples=15, deadline=None)
@given(ring_vectors, ring_vectors)
def test_ring_mul_commutative(a, b):
    pa, pb = RING.make(a), RING.make(b)
    assert pa * pb == pb * pa


@settings(max_examples=25, deadline=None)
@given(ring_vectors, st.integers(min_value=0, max_value=63))
def test_shift_adds_up(a, k):
    pa = RING.make(a)
    assert pa.shift(k).shift(64 - k) == pa.shift(64)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=600))
def test_chunk_pack_roundtrip(bits):
    bits = np.array(bits, dtype=np.uint8)
    chunks = chunk_bits(bits, 16)
    recovered = unchunk_bits(chunks, 16)[: len(bits)]
    assert np.array_equal(recovered, bits)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=500))
def test_encoder_roundtrip(bits):
    enc = ChunkPackEncoder(CTX)
    bits = np.array(bits, dtype=np.uint8)
    assert np.array_equal(enc.decode(enc.encode(bits)), bits)


@settings(max_examples=25, deadline=None)
@given(coeff_vectors)
def test_negation_completes_to_all_ones(coeffs):
    """~x + x == all-ones for 16-bit chunks — the CIPHERMATCH match
    identity, at plaintext level."""
    x = np.array(coeffs)
    negated = (PARAMS.t - 1) - x
    assert np.all((negated + x) % PARAMS.t == PARAMS.t - 1)
