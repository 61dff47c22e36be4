"""Full-stack failure injection: corrupt stored flash bits and check
how the error propagates through bop_add, Hom-Add, decryption and the
client's verification step.

The reliability section (§4.3.1) argues ESP makes computation reads
error-free; these tests quantify what happens when that assumption is
violated — retention errors in the CIPHERMATCH region — and show that
the algorithm's client-side verification step contains the damage.
"""

import numpy as np
import pytest

from repro.baselines import find_all_matches
from repro.core import ClientConfig
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine
from repro.ssd import IFPAdditionBackend
from repro.utils.bits import random_bits


def _ifp_engine(seed: int = 0):
    params = BFVParams.test_small(64)
    engine = ShardedSearchEngine(ClientConfig(params, key_seed=seed))
    backend = IFPAdditionBackend(engine.client.ctx)
    engine.backend_factory = lambda ctx, shard_id: backend
    return engine, backend


def _flip_stored_bit(backend, wordline: int = 0, bitline: int = 0) -> bool:
    """Flip one programmed cell in the CIPHERMATCH region (a retention
    error).  Returns True when a programmed cell was found."""
    for plane in backend.ssd.controller.flash.planes():
        for block_index in range(backend.ssd.controller.flash.geometry.blocks_per_plane):
            block = plane.block(block_index)
            if block.programmed[wordline]:
                block.cells[wordline, bitline] ^= 1
                return True
    return False


class TestFaultPropagation:
    def test_clean_run_matches_oracle(self):
        engine, _ = _ifp_engine()
        rng = np.random.default_rng(1)
        db = random_bits(640, rng)
        query = db[64:96].copy()
        engine.outsource(db)
        assert engine.search(query).matches == find_all_matches(db, query)

    def test_single_bit_fault_is_contained_by_verification(self):
        """A flipped stored bit corrupts one coefficient's sum; the
        decode layer's verification against the client's plaintext
        rejects any false candidate, so the match set stays a subset of
        the oracle's."""
        engine, backend = _ifp_engine(seed=2)
        rng = np.random.default_rng(2)
        db = random_bits(640, rng)
        query = db[64:96].copy()
        engine.outsource(db)
        engine.search(query)  # places ciphertexts in the flash

        assert _flip_stored_bit(backend, wordline=5, bitline=3)
        report = engine.search(query)
        oracle = find_all_matches(db, query)
        assert set(report.matches) <= set(oracle)

    def test_fault_changes_exactly_one_sum_word(self):
        """At the µ-program level: one flipped cell bit changes exactly
        one output word of the bit-serial add (no cross-bitline
        contamination — carries never leave their bitline)."""
        from repro.flash.cell_array import FlashGeometry, Plane
        from repro.flash.energy import EnergyLedger
        from repro.flash.microprogram import BitSerialAdder
        from repro.flash.timing import TimingLedger

        geometry = FlashGeometry.functional(num_bitlines=64, wordlines=64)
        plane = Plane(geometry, TimingLedger(), EnergyLedger())
        adder = BitSerialAdder(plane, word_bits=32)
        rng = np.random.default_rng(3)
        stored = rng.integers(0, 1 << 32, 16, dtype=np.int64)
        query = rng.integers(0, 1 << 32, 16, dtype=np.int64)
        adder.store_words(0, stored)
        clean = adder.add(0, query)

        plane.block(0).cells[7, 2] ^= 1  # bit 7 of the word on bitline 2
        faulty = adder.add(0, query)
        differs = np.nonzero(clean[:16] != faulty[:16])[0]
        assert list(differs) == [2]
        # and the corrupted word differs exactly by the flipped weight
        # propagated through the mod-2^32 add
        expected = (stored[2] ^ (1 << 7)) + query[2] & 0xFFFFFFFF
        assert faulty[2] == expected

    def test_wear_is_search_independent(self):
        """Repeated searches never erase/program the CM region — the
        §4.3.1 lifetime argument, observed on the functional simulator."""
        engine, backend = _ifp_engine(seed=4)
        rng = np.random.default_rng(4)
        db = random_bits(320, rng)
        query = db[:32].copy()
        engine.outsource(db)
        engine.search(query)

        def erase_total():
            return sum(
                plane.block(b).erase_count
                for plane in backend.ssd.controller.flash.planes()
                for b in range(backend.ssd.controller.flash.geometry.blocks_per_plane)
            )

        before = erase_total()
        for _ in range(3):
            engine.search(query)
        assert erase_total() == before
