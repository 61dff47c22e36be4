"""Unit tests for the search engine and result decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClientConfig,
    CPUAdditionBackend,
    ResultDecoder,
    verify_candidates,
)
from repro.core.matcher import MatchCandidate, per_pair_blocks
from repro.core.client import CipherMatchClient
from repro.core.query import PreparedQuery, QueryVariant
from repro.he import BFVParams
from repro.utils.bits import random_bits
from tests.oracles import (
    encrypted_query_rows,
    hits_of_blocks,
    prefix_sum_offsets,
)


@pytest.fixture(scope="module")
def client():
    return CipherMatchClient(ClientConfig(BFVParams.test_small(64), key_seed=8))


class TestPerPairBlocks:
    def test_one_add_per_poly_per_variant(self, client, rng):
        db_bits = random_bits(3 * client.ctx.params.n * client.packer.chunk_width, rng)
        db = client.outsource(db_bits)
        prepared = client.prepare_query(random_bits(16, rng))
        _, query_cts, row_map = encrypted_query_rows(client, prepared, range(3))
        adds_before = client.ctx.counter.additions
        blocks = per_pair_blocks(
            CPUAdditionBackend(client.ctx), db, query_cts, row_map, range(3)
        )
        assert client.ctx.counter.additions - adds_before == 3 * 16
        assert len(blocks) == 3 * 16

    def test_blocks_metadata(self, client, rng):
        """A shard's range (polynomials 2..4) pairs with the row map's
        columns for it: each block is that database ciphertext plus
        that query row, variants outer, polynomials ascending."""
        db = client.outsource(random_bits(5 * 64 * 16, rng))
        prepared = client.prepare_query(random_bits(40, rng))
        polys = range(2, 5)
        _, query_cts, row_map = encrypted_query_rows(client, prepared, polys)
        blocks = per_pair_blocks(
            CPUAdditionBackend(client.ctx), db, query_cts, row_map, polys
        )
        assert [(b.variant_index, b.poly_index) for b in blocks] == [
            (v, j) for v in range(prepared.num_variants) for j in polys
        ]
        assert [b.query_row for b in blocks] == row_map.ravel().tolist()
        for b in blocks:
            want = client.ctx.add(db.ciphertexts[b.poly_index], query_cts[b.query_row])
            assert b.ciphertext == want


class TestResultDecoder:
    def _decode_single(self, client, prepared, flags_by_block, db_bits_len):
        n = client.ctx.params.n
        decoder = ResultDecoder(16, n, db_bits_len)
        return decoder.decode_hits(
            prepared, hits_of_blocks(flags_by_block, prepared.num_variants, n)
        )

    def test_phase0_offset_mapping(self, client, rng):
        prepared = client.prepare_query(random_bits(16, rng))
        v0 = next(
            i for i, v in enumerate(prepared.variants) if v.phase == 0
        )
        flags = {
            (v0, 0): np.eye(1, client.ctx.params.n, 5, dtype=bool)[0]
        }  # coefficient 5 flagged
        candidates = self._decode_single(client, prepared, flags, 2000)
        assert [c.offset for c in candidates] == [80]  # 5 * 16

    def test_nonzero_phase_offset_mapping(self, client, rng):
        prepared = client.prepare_query(random_bits(32, rng))
        idx, variant = next(
            (i, v) for i, v in enumerate(prepared.variants) if v.phase == 3
        )
        flags = {(idx, 0): np.eye(1, client.ctx.params.n, 4, dtype=bool)[0]}
        candidates = self._decode_single(client, prepared, flags, 2000)
        # offset = g*16 - (16 - 3) = 64 - 13 = 51
        assert [c.offset for c in candidates] == [51]

    def test_out_of_range_offsets_dropped(self, client, rng):
        prepared = client.prepare_query(random_bits(16, rng))
        v0 = next(i for i, v in enumerate(prepared.variants) if v.phase == 0)
        last = client.ctx.params.n - 1
        flags = {(v0, 0): np.eye(1, client.ctx.params.n, last, dtype=bool)[0]}
        # db only 100 bits long: offset 63*16 way out of range
        candidates = self._decode_single(client, prepared, flags, 100)
        assert candidates == []

    def test_run_detection_requires_full_span(self, client, rng):
        prepared = client.prepare_query(random_bits(64, rng))  # span 4 at phase 0
        idx = next(
            i
            for i, v in enumerate(prepared.variants)
            if v.phase == 0 and v.rotation == 0
        )
        n = client.ctx.params.n
        partial = np.zeros(n, dtype=bool)
        partial[8:11] = True  # only 3 of 4 consecutive
        candidates = self._decode_single(client, prepared, {(idx, 0): partial}, 5000)
        assert candidates == []
        full = np.zeros(n, dtype=bool)
        full[8:12] = True
        candidates = self._decode_single(client, prepared, {(idx, 0): full}, 5000)
        assert [c.offset for c in candidates] == [128]

    def test_rotation_filter(self, client, rng):
        prepared = client.prepare_query(random_bits(64, rng))
        idx = next(
            i
            for i, v in enumerate(prepared.variants)
            if v.phase == 0 and v.rotation == 1
        )
        n = client.ctx.params.n
        flags = np.zeros(n, dtype=bool)
        flags[8:12] = True  # run at g=8, but (8-1) % 4 != 0
        candidates = self._decode_single(client, prepared, {(idx, 0): flags}, 5000)
        assert candidates == []
        flags2 = np.zeros(n, dtype=bool)
        flags2[9:13] = True  # (9-1) % 4 == 0
        candidates = self._decode_single(client, prepared, {(idx, 0): flags2}, 5000)
        assert [c.offset for c in candidates] == [144]

    def test_multi_polynomial_flags_concatenate(self, client, rng):
        prepared = client.prepare_query(random_bits(16, rng))
        v0 = next(i for i, v in enumerate(prepared.variants) if v.phase == 0)
        n = client.ctx.params.n
        flags = {
            (v0, 0): np.zeros(n, dtype=bool),
            (v0, 1): np.eye(1, n, 2, dtype=bool)[0],
        }
        decoder = ResultDecoder(16, n, 16 * 3 * n)
        candidates = decoder.decode_hits(
            prepared, hits_of_blocks(flags, prepared.num_variants, n)
        )
        assert [c.offset for c in candidates] == [(n + 2) * 16]

    @pytest.mark.parametrize("density", [0.05, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("span", [1, 2, 3, 4, 5])
    def test_run_decode_matches_prefix_sum_reference(self, density, span):
        """The run rule on the set indices against the dense prefix-sum
        reference, for every rotation and every vector length 0-40 —
        vectors shorter than the span, fewer hits than the span, runs
        longer than the span, a run touching the last index and the
        all-True vector included — from the flat hits and from hits
        assembled block by block."""
        w = 4
        rng = np.random.default_rng(round(density * 100) * 10 + span)
        for rotation in range(span):
            variant = QueryVariant(
                phase=0,
                rotation=rotation,
                span=span,
                pattern_chunks=np.zeros(span, dtype=np.int64),
                query_bit_offset=2,  # a run at index 0 decodes below 0
                requires_verification=False,
            )
            prepared = PreparedQuery(
                query_bits=np.zeros(span * w, dtype=np.uint8),
                chunk_width=w,
                variants=[variant],
            )
            for total in range(41):
                # even lengths split over two polynomials
                polys = 2 if total and total % 2 == 0 else min(total, 1)
                n = total // polys if polys else 4
                # the last chunk is cut short, so a run touching it is
                # out of bounds for the query's full length
                decoder = ResultDecoder(w, n, max(total * w - 3, 0))
                grid = rng.random((1, polys, n)) < density
                flat = grid.reshape(-1)
                want = prefix_sum_offsets(decoder, variant, flat, prepared)
                hits = np.flatnonzero(flat)
                blocks = {(0, j): grid[0, j] for j in range(polys)}
                for candidates in (
                    decoder.decode_hits(prepared, hits_of_blocks(blocks, 1, n)),
                    decoder.decode_hits(prepared, [hits]),
                ):
                    assert [c.offset for c in candidates] == want.tolist()


class TestVerifyCandidates:
    def test_filters(self):
        cands = [MatchCandidate(0, 0, 0), MatchCandidate(16, 0, 0)]
        verified = verify_candidates(cands, lambda off: off == 16)
        assert [c.offset for c in verified] == [16]
        assert cands[0].verified is False
        assert cands[1].verified is True

    def test_empty(self):
        assert verify_candidates([], lambda off: True) == []


def _dict_loop_decode(decoder, prepared, hits):
    """The decoder as it was before it became one array pass: a run test
    per variant, then a dict keyed by offset that a variant needing no
    verification overwrites and any other leaves alone."""
    candidates = {}
    for v_idx, variant in enumerate(prepared.variants):
        span, found = variant.span, np.asarray(hits[v_idx], dtype=np.int64)
        heads = found[: max(len(found) - span + 1, 0)]
        starts = heads[found[span - 1 :] - heads == span - 1]
        starts = starts[(starts - variant.rotation) % span == 0]
        offsets = starts * decoder.chunk_width - variant.query_bit_offset
        offsets = offsets[
            (offsets >= 0) & (offsets + prepared.bit_length <= decoder.db_bit_length)
        ]
        for offset in offsets.tolist():
            if offset not in candidates or not variant.requires_verification:
                candidates[offset] = MatchCandidate(offset, variant.phase, v_idx)
    return sorted(candidates.values(), key=lambda c: c.offset)


class TestCandidateChoice:
    """When several variants find one offset, the candidate names the
    last of them that needs no verification, else the first."""

    @staticmethod
    def _variant(phase, verify, span=1, rotation=0, offset=0):
        return QueryVariant(
            phase=phase,
            rotation=rotation,
            span=span,
            pattern_chunks=np.zeros(span, dtype=np.int64),
            query_bit_offset=offset,
            requires_verification=verify,
        )

    @pytest.mark.parametrize(
        "verify, chosen",
        [
            ((True, True, True), 0),
            ((True, False, True), 1),
            ((False, True, False), 2),
            ((False, False, True), 1),
            ((True, True, False), 2),
        ],
    )
    def test_rule(self, verify, chosen):
        variants = [self._variant(v_idx, flag) for v_idx, flag in enumerate(verify)]
        prepared = PreparedQuery(np.zeros(4, dtype=np.uint8), 4, variants)
        decoder = ResultDecoder(4, 8, 64)
        hits = [np.array([3, 5])] * len(variants)
        got = decoder.decode_hits(prepared, hits)
        assert [(c.offset, c.phase, c.variant_index) for c in got] == [
            (12, chosen, chosen), (20, chosen, chosen)
        ]
        assert got == _dict_loop_decode(decoder, prepared, hits)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_pass_equals_the_dict_loop(self, data):
        """Byte-identical ``MatchCandidate`` lists — offset, phase and
        ``variant_index``, as Python ints — over drawn variant sets whose
        offsets collide, and drawn hits."""
        w = 4
        variants = []
        for phase in range(data.draw(st.integers(1, 6))):
            span = data.draw(st.integers(1, 3))
            variants.append(self._variant(
                phase,
                data.draw(st.booleans()),
                span,
                data.draw(st.integers(0, span - 1)),
                data.draw(st.integers(0, 2 * w)),
            ))
        total = data.draw(st.integers(0, 40))
        hits = [
            np.array(sorted(data.draw(st.sets(st.integers(0, total - 1)))
                            if total else []), dtype=np.intp)
            for _ in variants
        ]
        prepared = PreparedQuery(
            np.zeros(data.draw(st.integers(1, 12)), dtype=np.uint8), w, variants
        )
        decoder = ResultDecoder(w, 8, data.draw(st.integers(0, total * w + w)))
        got = decoder.decode_hits(prepared, hits)
        want = _dict_loop_decode(decoder, prepared, hits)
        assert got == want
        assert all(
            type(x) is int
            for c in got for x in (c.offset, c.phase, c.variant_index)
        )
