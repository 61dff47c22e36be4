"""Unit tests for the search engine and result decoder."""

import numpy as np
import pytest

from repro.core import (
    ClientConfig,
    CPUAdditionBackend,
    ResultDecoder,
    SecureSearchEngine,
    verify_candidates,
)
from repro.core.matcher import MatchCandidate
from repro.core.client import CipherMatchClient
from repro.core.query import PreparedQuery, QueryVariant
from repro.he import BFVParams
from repro.utils.bits import random_bits
from tests.oracles import hits_of_blocks, prefix_sum_offsets


@pytest.fixture(scope="module")
def client():
    return CipherMatchClient(ClientConfig(BFVParams.test_small(64), key_seed=8))


class TestSecureSearchEngine:
    def test_one_add_per_poly_per_variant(self, client, rng):
        db_bits = random_bits(3 * client.packer.bits_per_polynomial, rng)
        db = client.outsource(db_bits)
        prepared = client.prepare_query(random_bits(16, rng))
        engine = SecureSearchEngine(CPUAdditionBackend(client.ctx))
        blocks = engine.search(
            db, prepared, lambda v, j: client.encrypt_variant(prepared, v, j),
            range(3),
        )
        assert engine.hom_add_count == 3 * 16
        assert len(blocks) == 3 * 16

    def test_blocks_metadata(self, client, rng):
        db = client.outsource(random_bits(100, rng))
        prepared = client.prepare_query(random_bits(16, rng))
        engine = SecureSearchEngine(CPUAdditionBackend(client.ctx))
        blocks = engine.search(
            db, prepared, lambda v, j: client.encrypt_variant(prepared, v, j),
            range(1),
        )
        assert {b.poly_index for b in blocks} == {0}
        assert {b.variant_index for b in blocks} == set(range(16))


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
                got = decoder._offsets_for_variant(variant, hits, prepared)
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
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
