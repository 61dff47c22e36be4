"""Unit tests for wildcard pattern matching."""

import numpy as np
import pytest

import repro
from repro.api import WildcardSearch
from repro.core.wildcard import WildcardPattern
from repro.he import BFVParams
from repro.utils.bits import bytes_to_bits, random_bits, text_to_bits

PARAMS = BFVParams.test_small(64)


class TestPatternParsing:
    def test_from_bits(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 1]
        mask = [1, 1, 0, 0, 1, 1, 1, 1]
        p = WildcardPattern.from_bits(bits, mask)
        assert p.num_segments == 2
        assert p.segments[0].bits == (1, 0)
        assert p.segments[0].offset_bits == 0
        assert p.segments[1].bits == (0, 0, 1, 1)
        assert p.segments[1].offset_bits == 4
        assert p.total_bits == 8
        assert p.total_bits - p.literal_bits == 2

    def test_trailing_segment(self):
        p = WildcardPattern.from_bits([1, 1, 1], [0, 1, 1])
        assert p.num_segments == 1
        assert p.segments[0].offset_bits == 1

    def test_no_literals_rejected(self):
        with pytest.raises(ValueError):
            WildcardPattern.from_bits([0, 0], [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            WildcardPattern.from_bits([1], [1, 0])

    def test_empty_pattern(self):
        with pytest.raises(ValueError):
            WildcardPattern.from_bits([], [])

    def test_from_text(self):
        p = WildcardPattern.from_text("ab?d")
        assert p.total_bits == 32
        assert p.num_segments == 2
        assert p.segments[0].length == 16  # "ab"
        assert p.segments[1].offset_bits == 24  # "d" after the wild byte
        assert p.segments[1].bit_array().tolist() == list(
            bytes_to_bits(b"d")
        )


class TestWildcardSearch:
    """Wildcard search through the ``repro.api`` facade's shared
    segment-sweep + intersection join."""

    def _session(self, db_bits, seed=70):
        return repro.open_session(
            "bfv-sharded", params=PARAMS, key_seed=seed, db_bits=db_bits
        )

    def test_text_wildcard_byte(self, rng):
        text = "xx hello world -- hellish words -- hellfire wow " * 2
        db = text_to_bits(text)
        with self._session(db) as session:
            result = session.search(WildcardSearch.from_text("hell? w"))
        import re

        expected = [
            8 * m.start() for m in re.finditer(r"hell. w", text)
        ]
        assert list(result.matches) == expected

    def test_bit_level_gap(self, rng):
        db = random_bits(3000, rng)
        seg1 = random_bits(32, rng)
        seg2 = random_bits(32, rng)
        base = 16 * 40
        db[base : base + 32] = seg1
        db[base + 48 : base + 80] = seg2  # 16-bit wildcard gap
        bits = np.concatenate([seg1, np.zeros(16, dtype=np.uint8), seg2])
        mask = np.concatenate(
            [np.ones(32), np.zeros(16), np.ones(32)]
        ).astype(np.uint8)
        with self._session(db, seed=71) as session:
            assert base in session.search(WildcardSearch(bits, mask)).matches

    def test_segments_must_all_match(self, rng):
        db = random_bits(2000, rng)
        seg1 = random_bits(32, rng)
        db[320:352] = seg1  # only the first segment present
        seg2 = (1 - db[368:400]).astype(np.uint8)  # second segment absent there
        bits = np.concatenate([seg1, np.zeros(16, dtype=np.uint8), seg2])
        mask = np.concatenate(
            [np.ones(32), np.zeros(16), np.ones(32)]
        ).astype(np.uint8)
        with self._session(db, seed=72) as session:
            assert 320 not in session.search(WildcardSearch(bits, mask)).matches

    def test_pattern_must_fit_database(self, rng):
        db = random_bits(200, rng)
        seg = db[160:192].copy()
        bits = np.concatenate([seg, np.zeros(64, dtype=np.uint8)])
        mask = np.concatenate([np.ones(32), np.zeros(64)]).astype(np.uint8)
        # pattern spans past the database end from offset 160
        with self._session(db, seed=73) as session:
            assert 160 not in session.search(WildcardSearch(bits, mask)).matches

    def test_hom_add_prediction(self, rng):
        """One Hom-Add sweep per literal segment."""
        db = random_bits(1000, rng)
        pattern = WildcardPattern.from_text("ab?cd")
        with self._session(db, seed=74) as session:
            engine = session.engine.engine
            predicted = sum(
                engine.client.prepare_query(seg.bit_array()).num_variants
                * engine.db.num_polynomials
                for seg in pattern.segments
            )
            counter = engine.client.ctx.counter
            before = counter.additions
            result = session.search(WildcardSearch.from_text("ab?cd"))
            executed = counter.additions - before
        assert executed == predicted == result.hom_ops.additions

    def test_search_requires_database(self):
        with repro.open_session("bfv-sharded", params=PARAMS, key_seed=75) as session:
            with pytest.raises(RuntimeError):
                session.search(WildcardSearch.from_text("a?b"))
