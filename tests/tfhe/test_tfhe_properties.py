"""Hypothesis property tests for the TFHE substrate.

The central invariant: any circuit of bootstrapped gates, of any shape
and depth, decrypts to exactly what the plain Boolean circuit computes
— bootstrapping refreshes noise, so correctness never degrades.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe import TFHEContext, TFHEParams
from repro.tfhe.lwe import MU_BIT, lwe_phase
from repro.tfhe.torus import from_torus

# One shared context: gates are stateless apart from counters, and key
# generation dominates test time otherwise.
_CTX = TFHEContext(TFHEParams.test_tiny(), seed=99)

_GATES = {
    "and": (lambda a, b: a & b, lambda ca, cb: _CTX.and_(ca, cb)),
    "or": (lambda a, b: a | b, lambda ca, cb: _CTX.or_(ca, cb)),
    "xor": (lambda a, b: a ^ b, lambda ca, cb: _CTX.xor(ca, cb)),
    "nand": (lambda a, b: 1 - (a & b), lambda ca, cb: _CTX.nand(ca, cb)),
    "xnor": (lambda a, b: 1 - (a ^ b), lambda ca, cb: _CTX.xnor(ca, cb)),
}


@st.composite
def circuits(draw):
    """A random gate-list circuit over a small set of input wires."""
    num_inputs = draw(st.integers(min_value=2, max_value=4))
    inputs = draw(
        st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=num_inputs,
            max_size=num_inputs,
        )
    )
    num_gates = draw(st.integers(min_value=1, max_value=6))
    gates = []
    wire_count = num_inputs
    for _ in range(num_gates):
        gate = draw(st.sampled_from(sorted(_GATES)))
        a = draw(st.integers(min_value=0, max_value=wire_count - 1))
        b = draw(st.integers(min_value=0, max_value=wire_count - 1))
        gates.append((gate, a, b))
        wire_count += 1
    return inputs, gates


class TestRandomCircuits:
    @given(circuits())
    @settings(max_examples=20, deadline=None)
    def test_circuit_matches_plain_evaluation(self, circuit):
        inputs, gates = circuit
        plain_wires = list(inputs)
        enc_wires = [_CTX.encrypt(b) for b in inputs]
        for gate, a, b in gates:
            plain_fn, enc_fn = _GATES[gate]
            plain_wires.append(plain_fn(plain_wires[a], plain_wires[b]))
            enc_wires.append(enc_fn(enc_wires[a], enc_wires[b]))
        for plain, enc in zip(plain_wires, enc_wires):
            assert _CTX.decrypt(enc) == plain

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=8))
    @settings(max_examples=15, deadline=None)
    def test_not_is_involutive(self, bits):
        for b in bits:
            ct = _CTX.encrypt(b)
            assert _CTX.decrypt(-(-ct)) == b

    @given(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=4, deadline=None)
    def test_de_morgan(self, a, b):
        ca, cb = _CTX.encrypt(a), _CTX.encrypt(b)
        lhs = _CTX.nand(ca, cb)
        rhs = _CTX.or_(-ca, -cb)
        assert _CTX.decrypt(lhs) == _CTX.decrypt(rhs) == 1 - (a & b)


class TestNoiseInvariants:
    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_gate_output_noise_bounded_regardless_of_depth(self, depth):
        """Output noise after `depth` chained gates stays within the
        single-bootstrap envelope — never accumulating."""
        acc = _CTX.encrypt(1)
        for _ in range(depth):
            acc = _CTX.and_(acc, _CTX.encrypt(1))
        phase = lwe_phase(acc, _CTX.lwe_key)
        err = abs(from_torus(phase) - from_torus(MU_BIT))
        assert err < 1 / 16  # well inside the gate decision margin

    @given(st.integers(min_value=0, max_value=1))
    @settings(max_examples=4, deadline=None)
    def test_fresh_encryptions_differ_but_decrypt_equal(self, bit):
        a, b = _CTX.encrypt(bit), _CTX.encrypt(bit)
        assert not np.array_equal(a.a, b.a)  # semantic security: fresh mask
        assert _CTX.decrypt(a) == _CTX.decrypt(b) == bit
