"""Hardware-software codesign integration: the secure search running
on the simulated in-flash backend, one SSD behind a one-shard serving
engine."""

import functools

import numpy as np
import pytest

from repro.baselines import find_all_matches
from repro.core import ClientConfig, IndexMode
from repro.flash import FlashOp
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine
from repro.ssd import IFPAdditionBackend
from repro.ssd.ftl import Region
from repro.utils.bits import random_bits

PARAMS = BFVParams.test_small(64)


def ifp_engine(seed, mode=IndexMode.CLIENT_DECRYPT):
    """A one-shard engine handing every database the same SSD."""
    engine = ShardedSearchEngine(
        ClientConfig(PARAMS, key_seed=seed, index_mode=mode)
    )
    backend = IFPAdditionBackend(engine.client.ctx)
    engine.backend_factory = lambda ctx, shard_id: backend
    return engine, backend


class TestIFPSearchCorrectness:
    def test_matches_cpu_pipeline(self, rng):
        db = random_bits(2500, rng)
        q = random_bits(32, rng)
        db[480:512] = q
        db[1203:1235] = q  # phase 3

        flash_engine, backend = ifp_engine(11)
        flash_engine.outsource(db)
        assert flash_engine.search(q).matches == find_all_matches(db, q)
        assert backend.ssd.controller.log.count(FlashOp.BOP_ADD) > 0

    def test_deterministic_mode_in_flash(self, rng):
        db = random_bits(1500, rng)
        q = random_bits(32, rng)
        db[320:352] = q
        engine, _ = ifp_engine(12, IndexMode.SERVER_DETERMINISTIC)
        engine.outsource(db)
        assert 320 in engine.search(q).matches

    def test_multiple_queries_reuse_flash_data(self, rng):
        db = random_bits(2000, rng)
        q1, q2 = random_bits(32, rng), random_bits(32, rng)
        db[160:192] = q1
        db[960:992] = q2
        engine, backend = ifp_engine(13)
        engine.outsource(db)
        from repro.flash import FlashOp

        engine.search(q1)
        writes_after_q1 = backend.ssd.controller.log.count(FlashOp.PROGRAM_PAGE)
        r2 = engine.search(q2)
        writes_after_q2 = backend.ssd.controller.log.count(FlashOp.PROGRAM_PAGE)
        assert 960 in r2.matches
        # the encrypted database stays resident: no new flash programs
        assert writes_after_q2 == writes_after_q1


    @pytest.mark.parametrize(
        "mode", [IndexMode.CLIENT_DECRYPT, IndexMode.SERVER_DETERMINISTIC]
    )
    def test_reoutsourcing_replaces_the_resident_database(self, rng, mode):
        """The flash holds the database the engine serves, not every
        database it was ever given: 12 re-outsource + search rounds (the
        functional region has 16 slots, a database takes 2) stay the
        oracle's and residency stays one database."""
        engine, backend = ifp_engine(18, mode)
        ftl = backend.ssd.controller.ftl
        for _ in range(12):
            db = random_bits(2000, rng)
            q = random_bits(32, rng)
            db[160:192] = q
            db[1203:1235] = q
            stored = engine.outsource(db)
            assert engine.search(q).matches == find_all_matches(db, q)
            assert engine.search(q).matches == find_all_matches(db, q)
            assert len(backend._resident) == stored.num_polynomials == 2
            assert all(
                any(ct is kept for kept in stored.ciphertexts)
                for ct, _ in backend._resident.values()
            )
            assert ftl._next_slot == len(ftl.tables[Region.CIPHERMATCH]) == 2

    def test_reoutsourcing_through_the_session_facade(self, rng):
        import repro

        with repro.open_session(
            "bfv-sharded", params=PARAMS, key_seed=19, num_shards=1,
            # one SSD for every database: the factory is called once per
            # outsource with the engine's one context
            backend_factory=functools.cache(lambda ctx, _: IFPAdditionBackend(ctx)),
        ) as session:
            for _ in range(12):
                db = random_bits(2000, rng)
                q = random_bits(32, rng)
                db[480:512] = q
                session.outsource(db)
                assert list(session.search(q).matches) == find_all_matches(db, q)
                (shard,) = session.engine.engine.shards
                assert len(shard.backend._resident) == 2


class TestIFPCostAccounting:
    def test_simulated_time_scales_with_work(self, rng):
        db_small = random_bits(500, rng)
        db_large = random_bits(4000, rng)

        engine1, b1 = ifp_engine(14)
        engine1.outsource(db_small)
        engine1.search(random_bits(16, rng))

        engine2, b2 = ifp_engine(15)
        engine2.outsource(db_large)
        engine2.search(random_bits(16, rng))

        assert b2.ssd.simulated_seconds > b1.ssd.simulated_seconds

    def test_bop_add_commands_issued(self, rng):
        from repro.flash import FlashOp

        engine, backend = ifp_engine(16)
        engine.outsource(random_bits(900, rng))  # one polynomial
        engine.search(random_bits(16, rng))
        # 16 variants x 1 polynomial x 1 slot
        assert backend.ssd.controller.log.count(FlashOp.BOP_ADD) == 16

    def test_energy_accrues(self, rng):
        engine, backend = ifp_engine(17)
        engine.outsource(random_bits(500, rng))
        engine.search(random_bits(16, rng))
        assert backend.ssd.simulated_joules > 0
