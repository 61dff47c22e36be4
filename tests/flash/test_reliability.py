"""Failure injection through the bit-serial adder.

The reliability argument of §4.3.1 is that ESP keeps computation reads
error-free; these tests show what the ``bop_add`` µ-program does when
that does not hold.  A :class:`FaultInjector` flips bits on reads at a
configured error rate, or pins stuck-at cells, and an
:class:`UnreliableBlock` routes a block's reads through it.
"""

from typing import Dict

import numpy as np

from repro.flash import BitSerialAdder, FlashArray, FlashGeometry


class FaultInjector:
    """Injects read faults into a block for failure-mode testing.

    Two mechanisms:

    * random bit flips at a configured raw bit-error rate, and
    * deterministic stuck-at faults on (wordline, bitline) cells.
    """

    def __init__(self, rber: float = 0.0, seed: int = 0):
        self.rber = rber
        self.rng = np.random.default_rng(seed)
        self.stuck_at: Dict[tuple, int] = {}
        self.bits_flipped = 0

    def add_stuck_at(self, wordline: int, bitline: int, value: int) -> None:
        self.stuck_at[(wordline, bitline)] = value & 1

    def corrupt_read(self, wordline: int, bits: np.ndarray) -> np.ndarray:
        out = np.asarray(bits, dtype=np.uint8).copy()
        if self.rber > 0:
            flips = self.rng.random(len(out)) < self.rber
            self.bits_flipped += int(flips.sum())
            out ^= flips.astype(np.uint8)
        for (wl, bl), value in self.stuck_at.items():
            if wl == wordline and bl < len(out):
                if out[bl] != value:
                    self.bits_flipped += 1
                out[bl] = value
        return out


class UnreliableBlock:
    """A :class:`~repro.flash.cell_array.Block` wrapper whose reads pass
    through a fault injector."""

    def __init__(self, block, injector: FaultInjector):
        self._block = block
        self._injector = injector

    def read_wordline(self, wl: int) -> np.ndarray:
        return self._injector.corrupt_read(wl, self._block.read_wordline(wl))

    def __getattr__(self, name):
        return getattr(self._block, name)


class TestFaultInjector:
    def test_no_faults_by_default(self, rng):
        inj = FaultInjector()
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        assert np.array_equal(inj.corrupt_read(0, bits), bits)

    def test_stuck_at_fault(self):
        inj = FaultInjector()
        inj.add_stuck_at(wordline=2, bitline=5, value=1)
        bits = np.zeros(16, dtype=np.uint8)
        out = inj.corrupt_read(2, bits)
        assert out[5] == 1
        assert inj.corrupt_read(3, bits)[5] == 0  # other wordlines clean

    def test_random_flips_at_high_rber(self, rng):
        inj = FaultInjector(rber=0.5, seed=1)
        bits = np.zeros(10_000, dtype=np.uint8)
        out = inj.corrupt_read(0, bits)
        assert 3000 < out.sum() < 7000
        assert inj.bits_flipped == out.sum()

    def test_original_untouched(self, rng):
        inj = FaultInjector(rber=1.0, seed=2)
        bits = np.zeros(8, dtype=np.uint8)
        inj.corrupt_read(0, bits)
        assert not bits.any()


class TestFaultyAdder:
    """Failure injection through the full bit-serial adder."""

    def _adder_with_injector(self, injector):
        geo = FlashGeometry.functional(num_bitlines=64, wordlines=64)
        plane = FlashArray(geo).plane(0)
        adder = BitSerialAdder(plane, word_bits=32)
        rng = np.random.default_rng(3)
        a = rng.integers(0, 1 << 32, 50).astype(np.int64)
        b = rng.integers(0, 1 << 32, 50).astype(np.int64)
        adder.store_words(0, a)
        plane._blocks[0] = UnreliableBlock(plane._blocks[0], injector)
        return adder, a, b

    def test_clean_injector_preserves_correctness(self):
        adder, a, b = self._adder_with_injector(FaultInjector(rber=0.0))
        assert np.array_equal(adder.add(0, b), (a + b) % (1 << 32))

    def test_stuck_at_corrupts_only_its_bitline(self):
        inj = FaultInjector()
        inj.add_stuck_at(wordline=0, bitline=7, value=1)  # LSB of word 7
        adder, a, b = self._adder_with_injector(inj)
        got = adder.add(0, b)
        expected = (a + b) % (1 << 32)
        mismatches = np.nonzero(got != expected)[0]
        # only word 7 may differ (and only if its true LSB was 0)
        assert set(mismatches).issubset({7})

    def test_high_rber_breaks_addition(self):
        adder, a, b = self._adder_with_injector(FaultInjector(rber=0.05, seed=4))
        got = adder.add(0, b)
        expected = (a + b) % (1 << 32)
        assert not np.array_equal(got, expected)

    def test_esp_scale_rber_is_harmless_in_practice(self):
        # at the ESP-scale error rate the expected flip count over this
        # whole operation is ~3e-9 — the run must be exact
        adder, a, b = self._adder_with_injector(
            FaultInjector(rber=1e-12, seed=5)
        )
        assert np.array_equal(adder.add(0, b), (a + b) % (1 << 32))
