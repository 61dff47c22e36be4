"""Scenario streams: determinism, oracles, capability clamping."""

import itertools

import numpy as np
import pytest

from repro.api import DEFAULT_REGISTRY, BatchSearch, WildcardSearch
from repro.api.capabilities import CapabilityError
from repro.baselines import find_all_matches
from repro.load import SCENARIO_REGISTRY, UnknownScenarioError
from repro.load.scenarios import (
    _detectable_exact_matches,
    _detectable_wildcard_matches,
    _wildcard_matches,
)

ALL_KEYS = ("dna", "biometric", "database", "readmapper")


def _prefix(scenario, n):
    return list(itertools.islice(scenario.requests(), n))


class TestRegistry:
    def test_registered_keys(self):
        assert SCENARIO_REGISTRY.keys() == ALL_KEYS
        assert "dna" in SCENARIO_REGISTRY

    def test_unknown_key_lists_known(self):
        with pytest.raises(UnknownScenarioError, match="readmapper"):
            SCENARIO_REGISTRY.create("web")

    def test_matrix_renders_requirements(self):
        matrix = SCENARIO_REGISTRY.scenario_matrix()
        for key in ALL_KEYS:
            assert key in matrix
        assert "batching, wildcard" in matrix

    def test_create_forwards_kwargs(self):
        scenario = SCENARIO_REGISTRY.create("dna", seed=3, num_bases=256)
        assert len(scenario.db_bits()) == 512  # 2 bits per base


class TestDeterminism:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_db_and_stream_reproducible(self, key):
        a = SCENARIO_REGISTRY.create(key, seed=5)
        b = SCENARIO_REGISTRY.create(key, seed=5)
        assert np.array_equal(a.db_bits(), b.db_bits())
        assert [
            (r.index, r.request, r.expected) for r in _prefix(a, 5)
        ] == [(r.index, r.request, r.expected) for r in _prefix(b, 5)]

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_seed_changes_db(self, key):
        a = SCENARIO_REGISTRY.create(key, seed=1)
        b = SCENARIO_REGISTRY.create(key, seed=2)
        assert not np.array_equal(a.db_bits(), b.db_bits())

    def test_stream_restart_is_identical(self):
        scenario = SCENARIO_REGISTRY.create("database", seed=4)
        first = [r.request for r in _prefix(scenario, 6)]
        again = [r.request for r in _prefix(scenario, 6)]
        assert first == again

    def test_stream_consumption_never_perturbs_db(self):
        scenario = SCENARIO_REGISTRY.create("dna", seed=8)
        before = scenario.db_bits().copy()
        _prefix(scenario, 10)
        assert np.array_equal(scenario.db_bits(), before)


class TestOracles:
    @pytest.mark.parametrize("key", ["dna", "biometric", "database"])
    def test_exact_expected_matches_plaintext_search(self, key):
        scenario = SCENARIO_REGISTRY.create(key, seed=6)
        db = scenario.db_bits()
        for item in _prefix(scenario, 8):
            assert item.expected == tuple(
                find_all_matches(db, item.request.bit_array())
            )

    def test_hit_fraction_yields_hits_and_misses(self):
        scenario = SCENARIO_REGISTRY.create("database", seed=0)
        outcomes = [bool(r.expected) for r in _prefix(scenario, 20)]
        assert any(outcomes) and not all(outcomes)

    def test_readmapper_mixes_batches_and_wildcards(self):
        scenario = SCENARIO_REGISTRY.create("readmapper", seed=2)
        items = _prefix(scenario, 8)
        # every 4th request is a wildcard read, the rest seed batches
        assert [isinstance(i.request, WildcardSearch) for i in items] == [
            False, False, False, True, False, False, False, True,
        ]
        batch = items[0]
        assert isinstance(batch.request, BatchSearch)
        db = scenario.db_bits()
        assert batch.expected == tuple(
            tuple(_detectable_exact_matches(db, q.bit_array()))
            for q in batch.request.queries
        )

    def test_wildcard_oracle_ignores_masked_bits(self):
        db = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
        bits = np.array([1, 1, 1], dtype=np.uint8)  # literal 1s
        mask = np.array([1, 0, 1], dtype=np.uint8)  # middle bit free
        assert _wildcard_matches(db, bits, mask) == (0, 3)

    def test_short_exact_oracle_clamps_to_guaranteed_phases(self):
        # a 16-bit needle planted at an off-phase offset is invisible
        # to the Hom-Add sweep; the oracle must agree with the engine
        rng = np.random.default_rng(0)
        db = rng.integers(0, 2, 512).astype(np.uint8)
        needle = db[73:89].copy()  # 73 % 16 != 0
        assert 73 in find_all_matches(db, needle)
        assert 73 not in _detectable_exact_matches(db, needle)
        db[160:176] = needle  # phase 0: detectable
        assert 160 in _detectable_exact_matches(db, needle)

    def test_wildcard_oracle_clamps_every_literal_run(self):
        rng = np.random.default_rng(1)
        db = rng.integers(0, 2, 512).astype(np.uint8)
        pat = rng.integers(0, 2, 48).astype(np.uint8)
        mask = np.ones(48, dtype=np.uint8)
        mask[16:32] = 0  # two 16-bit literal runs
        db[55:103] = pat  # off-phase plant
        db[320:368] = pat  # phase-0 plant
        got = _detectable_wildcard_matches(db, pat, mask)
        assert 320 in got and 55 not in got


class TestCapabilityClamp:
    def test_readmapper_refuses_unbatched_engine(self):
        caps = DEFAULT_REGISTRY.spec("bfv-wire").capabilities
        assert not caps.batching
        scenario = SCENARIO_REGISTRY.create("readmapper")
        with pytest.raises(CapabilityError, match="batching"):
            scenario.check(caps, "bfv-wire")

    def test_readmapper_refuses_query_bit_cap(self):
        caps = DEFAULT_REGISTRY.spec("yasuda").capabilities
        scenario = SCENARIO_REGISTRY.create("readmapper")
        with pytest.raises(CapabilityError):
            scenario.check(caps, "yasuda")

    @pytest.mark.parametrize("key", ["dna", "biometric", "database"])
    def test_exact_scenarios_run_everywhere_with_31plus_bits(self, key):
        # exact-only streams clear the capability gate on the
        # unbatched wire-protocol engine too
        caps = DEFAULT_REGISTRY.spec("bfv-wire").capabilities
        SCENARIO_REGISTRY.create(key).check(caps, "bfv-wire")

    def test_sharded_engine_serves_every_scenario(self):
        caps = DEFAULT_REGISTRY.spec("bfv-sharded").capabilities
        for key in ALL_KEYS:
            SCENARIO_REGISTRY.create(key).check(caps, "bfv-sharded")
