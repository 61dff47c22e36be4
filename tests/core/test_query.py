"""Unit tests for query preparation (Algorithm 1, lines 4-9)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import QueryPreparer, _periodic_window, guaranteed_phases
from repro.he import BFVContext, BFVParams, KeyGenerator
from repro.he.arena import query_row_layout
from repro.utils.bits import chunk_bits, negate_bits, random_bits
from tests.oracles import coefficient_pattern


@pytest.fixture(scope="module")
def ctx():
    return BFVContext(BFVParams.test_small(64), seed=6)


@pytest.fixture(scope="module")
def preparer(ctx):
    return QueryPreparer(ctx, 16)


class TestVariantGeneration:
    def test_16bit_query_has_16_variants(self, preparer, rng):
        # the paper's headline case: w variants for a w-bit query
        prepared = preparer.prepare(random_bits(16, rng))
        assert prepared.num_variants == 16

    def test_32bit_query_variant_count(self, preparer, rng):
        # phase 0: span 2 -> 2 rotations; phases 1-15: span 1 each
        prepared = preparer.prepare(random_bits(32, rng))
        assert prepared.num_variants == 2 + 15

    def test_variant_phases_cover_chunk_width(self, preparer, rng):
        prepared = preparer.prepare(random_bits(64, rng))
        assert {v.phase for v in prepared.variants} == set(range(16))

    def test_phase0_pattern_is_negated_chunks(self, preparer, rng):
        q = random_bits(32, rng)
        prepared = preparer.prepare(q)
        v0 = next(v for v in prepared.variants if v.phase == 0 and v.rotation == 0)
        expected = chunk_bits(negate_bits(q), 16)
        assert np.array_equal(v0.pattern_chunks, expected)

    def test_phase0_full_chunks_not_flagged(self, preparer, rng):
        # 32-bit query at phase 0 covers whole chunks: exact detection
        prepared = preparer.prepare(random_bits(32, rng))
        v0 = next(v for v in prepared.variants if v.phase == 0)
        assert not v0.requires_verification

    def test_nonzero_phase_flagged_for_verification(self, preparer, rng):
        prepared = preparer.prepare(random_bits(32, rng))
        for v in prepared.variants:
            if v.phase != 0:
                assert v.requires_verification

    def test_interior_offset(self, preparer, rng):
        prepared = preparer.prepare(random_bits(48, rng))
        for v in prepared.variants:
            if v.phase == 0:
                assert v.query_bit_offset == 0
            else:
                assert v.query_bit_offset == 16 - v.phase

    def test_rotations_cover_span(self, preparer, rng):
        prepared = preparer.prepare(random_bits(64, rng))  # span 4 at phase 0
        phase0 = [v for v in prepared.variants if v.phase == 0]
        assert sorted(v.rotation for v in phase0) == [0, 1, 2, 3]

    def test_empty_query_raises(self, preparer):
        with pytest.raises(ValueError):
            preparer.prepare(np.zeros(0, dtype=np.uint8))

    def test_short_query_fallback_span_one(self, preparer, rng):
        prepared = preparer.prepare(random_bits(8, rng))
        for v in prepared.variants:
            assert v.span == 1
            assert v.requires_verification or v.phase == 0

    def test_coefficient_pattern_periodicity(self, preparer, rng):
        prepared = preparer.prepare(random_bits(64, rng))
        v = next(v for v in prepared.variants if v.span == 4 and v.rotation == 1)
        pattern = coefficient_pattern(v, 64, poly_chunk_base=0)
        # coefficient i holds pattern chunk (i - rotation) mod span
        for i in range(64):
            assert pattern[i] == v.pattern_chunks[(i - 1) % 4]


class TestGuaranteedPhases:
    def test_16bit_only_phase0(self):
        assert guaranteed_phases(16, 16) == [0]

    def test_31bit_guarantees_all(self):
        assert guaranteed_phases(31, 16) == list(range(16))

    def test_monotone_in_query_size(self):
        shorter = set(guaranteed_phases(20, 16))
        longer = set(guaranteed_phases(40, 16))
        assert shorter.issubset(longer)


class TestVariantEncryption:
    @pytest.fixture(scope="class")
    def keys(self, ctx):
        gen = KeyGenerator(BFVParams.test_small(64), seed=6)
        sk = gen.secret_key()
        return sk, gen.public_key(sk)

    def test_encrypted_variant_decrypts_to_pattern(self, ctx, preparer, keys, rng):
        sk, pk = keys
        prepared = preparer.prepare(random_bits(32, rng))
        (ct,) = preparer.ciphertexts(
            preparer.encrypt_variant_value(prepared, [0], pk, sk), sk
        )
        pt = ctx.decrypt(ct, sk)
        expected = coefficient_pattern(prepared.variants[0], ctx.params.n, 0)
        assert np.array_equal(pt.poly.coeffs, expected)

    def test_cache_by_residue(self, ctx, preparer, rng):
        """Pairs in one residue class read one query row, the key a
        row is cached and uploaded under."""
        prepared = preparer.prepare(random_bits(16, rng))  # span 1 everywhere
        row_map = query_row_layout(prepared.variants, ctx.params.n, range(6))
        assert row_map[0, 0] == row_map[0, 5]

    def test_cache_distinguishes_variants(self, ctx, preparer, rng):
        prepared = preparer.prepare(random_bits(16, rng))
        row_map = query_row_layout(prepared.variants, ctx.params.n, range(1))
        assert row_map[0, 0] != row_map[1, 0]


class TestPeriodicWindow:
    def test_repeats_query(self):
        q = np.array([1, 0, 1], dtype=np.uint8)
        window = _periodic_window(q, 0, 7)
        assert list(window) == [1, 0, 1, 1, 0, 1, 1]

    def test_start_offset(self):
        q = np.array([1, 0, 0], dtype=np.uint8)
        window = _periodic_window(q, 1, 4)
        assert list(window) == [0, 0, 1, 0]


class TestQueryRows:
    """One encrypted row per ``(phase, shift)`` plaintext: as many rows
    as variants, whatever the database size."""

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.integers(1, 208),
        n=st.sampled_from([64, 1024]),
        num_polys=st.integers(1, 300),
        seed=st.integers(0, 2**16),
    )
    def test_every_pair_reads_its_own_plaintext(self, preparer, bits, n, num_polys, seed):
        prepared = preparer.prepare(random_bits(bits, np.random.default_rng(seed)))
        row_map = query_row_layout(prepared.variants, n, range(num_polys))
        rows = prepared.row_plaintexts(range(prepared.num_variants), n)
        assert row_map.shape == (prepared.num_variants, num_polys)
        assert len(rows) == prepared.num_variants
        assert sorted(set(row_map.ravel().tolist())) == list(range(len(rows)))
        for v_idx, variant in enumerate(prepared.variants):
            # (j * n) mod span repeats with a period dividing span, and
            # so must the row
            j = np.arange(num_polys)
            assert np.array_equal(row_map[v_idx], row_map[v_idx, j % variant.span])
            for j in range(min(num_polys, variant.span)):
                assert np.array_equal(
                    rows[row_map[v_idx, j]],
                    coefficient_pattern(variant, n, j * n % variant.span),
                )

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.integers(1, 208),
        n=st.sampled_from([64, 1024]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_rows_are_the_modular_index_formula_byte_for_byte(
        self, preparer, bits, n, seed, data
    ):
        """The tiled-pattern slices equal the one ``(rows, n)`` int64
        index ``(i - rotation) mod span + (r - rotation)`` gathered over
        the phase patterns laid end to end — the form they replaced —
        for any subset of rows in any order, dtype included."""
        prepared = preparer.prepare(random_bits(bits, np.random.default_rng(seed)))
        rows = data.draw(
            st.lists(st.integers(0, prepared.num_variants - 1), max_size=40)
        )
        variants = prepared.variants
        patterns = np.concatenate(
            [v.pattern_chunks for v in variants if v.rotation == 0]
        )
        index = np.asarray(rows, dtype=np.intp)
        rotation = np.asarray([v.rotation for v in variants])[index, None]
        span = np.asarray([v.span for v in variants])[index, None]
        at = np.arange(n) - rotation
        np.remainder(at, span, out=at)
        at += index[:, None] - rotation
        want = patterns[at]
        got = prepared.row_plaintexts(rows, n)
        assert got.dtype == want.dtype and got.shape == (len(rows), n)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "bits, rows", [(24, 16), (40, 25), (48, 33), (64, 49), (80, 65),
                       (104, 89), (200, 185)],
    )
    def test_rows_per_read(self, preparer, bits, rows):
        """``docs/perf.md``'s rows-per-read table at ``w = 16``."""
        prepared = preparer.prepare(np.zeros(bits, dtype=np.uint8))
        assert prepared.num_variants == rows
