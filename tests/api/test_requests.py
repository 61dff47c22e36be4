"""Typed request/response contract: immutability, coercion, payloads."""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    BatchSearch,
    ExactSearch,
    HomOpTally,
    SearchResult,
    VerifyPolicy,
    WildcardSearch,
)
from repro.utils.bits import text_to_bits


class TestExactSearch:
    def test_frozen_and_hashable(self):
        req = ExactSearch.from_bits([1, 0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.bits = (0,)
        assert req == ExactSearch.from_bits(np.array([1, 0, 1]))
        assert hash(req) == hash(ExactSearch.from_bits((1, 0, 1)))

    def test_from_text_matches_text_to_bits(self):
        req = ExactSearch.from_text("fox")
        assert req.bits == tuple(int(b) for b in text_to_bits("fox"))
        assert req.num_bits == 24

    def test_from_bytes(self):
        assert ExactSearch.from_bytes(b"\x80").bits == (1, 0, 0, 0, 0, 0, 0, 0)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ExactSearch(())

    def test_non_bit_payload_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            ExactSearch((1, 2, 0))

    @pytest.mark.parametrize("bad", [2, -1])
    @pytest.mark.parametrize("form", [list, tuple, np.array])
    def test_from_bits_rejects_a_non_bit(self, bad, form):
        with pytest.raises(ValueError, match="0/1"):
            ExactSearch.from_bits(form([1, 0, bad, 1]))

    def test_from_bits_converts_once_to_python_ints(self, monkeypatch):
        """A bit array is validated and turned into a tuple of Python
        ints in one pass: ``from_bits`` does not convert again."""
        from repro.api import requests

        calls = []
        real = requests._as_bit_tuple

        def counting(bits):
            calls.append(bits)
            return real(bits)

        monkeypatch.setattr(requests, "_as_bit_tuple", counting)
        req = ExactSearch.from_bits(np.array([1, 0, 1, 1], dtype=np.uint8))
        assert len(calls) == 1
        assert req.bits == (1, 0, 1, 1)
        assert all(type(b) is int for b in req.bits)

    def test_bool_verify_coerces_to_policy(self):
        assert ExactSearch((1,), verify=True).verify is VerifyPolicy.VERIFY
        assert ExactSearch((1,), verify=False).verify is VerifyPolicy.SKIP
        assert ExactSearch((1,)).verify is VerifyPolicy.AUTO


class TestWildcardSearch:
    def test_from_text_layout(self):
        req = WildcardSearch.from_text("a?b")
        assert req.num_bits == 24
        assert req.mask[0:8] == (1,) * 8
        assert req.mask[8:16] == (0,) * 8
        assert req.literal_bits == 16

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            WildcardSearch((1, 0), (1,))

    def test_all_wildcard_rejected(self):
        with pytest.raises(ValueError, match="no literal"):
            WildcardSearch((0, 0), (0, 0))


class TestBatchSearch:
    def test_coerces_raw_bit_payloads(self):
        batch = BatchSearch((np.array([1, 0]), ExactSearch((1, 1))))
        assert all(isinstance(q, ExactSearch) for q in batch.queries)
        assert batch.num_queries == 2

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BatchSearch(())


class TestVerifyPolicy:
    def test_coerce(self):
        assert VerifyPolicy.coerce(None) is VerifyPolicy.AUTO
        assert VerifyPolicy.coerce(True) is VerifyPolicy.VERIFY
        assert VerifyPolicy.coerce(False) is VerifyPolicy.SKIP
        assert VerifyPolicy.coerce(VerifyPolicy.SKIP) is VerifyPolicy.SKIP
        with pytest.raises(TypeError):
            VerifyPolicy.coerce("yes")

    def test_resolve_against_engine_support(self):
        assert VerifyPolicy.AUTO.resolve(True) is True
        assert VerifyPolicy.AUTO.resolve(False) is False
        assert VerifyPolicy.VERIFY.resolve(False) is True
        assert VerifyPolicy.SKIP.resolve(True) is False


class TestSearchResult:
    def test_tally_total(self):
        tally = HomOpTally(additions=3, multiplications=2, bootstraps=1)
        assert tally.total == 6

    def test_result_is_frozen(self):
        result = SearchResult(
            matches=(4,),
            engine="bfv-sharded",
            scheme="bfv",
            hom_ops=HomOpTally(additions=1),
            elapsed_seconds=0.1,
            verified=True,
        )
        assert result.num_matches == 1
        assert not result.sharded
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.matches = ()
