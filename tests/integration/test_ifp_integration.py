"""Hardware-software codesign integration: the secure search pipeline
running on the simulated in-flash backend."""

import numpy as np
import pytest

from repro.baselines import find_all_matches
from repro.core import ClientConfig, IndexMode, SecureStringMatchPipeline
from repro.he import BFVParams
from repro.ssd import IFPAdditionBackend
from repro.ssd.ftl import Region
from repro.utils.bits import random_bits

PARAMS = BFVParams.test_small(64)


def ifp_pipeline(seed, mode=IndexMode.CLIENT_DECRYPT):
    pipe = SecureStringMatchPipeline(ClientConfig(PARAMS, key_seed=seed, index_mode=mode))
    backend = IFPAdditionBackend(pipe.client.ctx)
    pipe.server.engine.backend = backend
    return pipe, backend


class TestIFPSearchCorrectness:
    def test_matches_cpu_pipeline(self, rng):
        db = random_bits(2500, rng)
        q = random_bits(32, rng)
        db[480:512] = q
        db[1203:1235] = q  # phase 3

        cpu_pipe = SecureStringMatchPipeline(ClientConfig(PARAMS, key_seed=11))
        cpu_pipe.outsource_database(db)
        cpu_matches = cpu_pipe.search(q).matches

        flash_pipe, backend = ifp_pipeline(11)
        flash_pipe.outsource_database(db)
        flash_matches = flash_pipe.search(q).matches

        assert flash_matches == cpu_matches == find_all_matches(db, q)
        assert backend.hom_add_count > 0

    def test_deterministic_mode_in_flash(self, rng):
        db = random_bits(1500, rng)
        q = random_bits(32, rng)
        db[320:352] = q
        pipe, _ = ifp_pipeline(12, IndexMode.SERVER_DETERMINISTIC)
        pipe.outsource_database(db)
        assert 320 in pipe.search(q).matches

    def test_multiple_queries_reuse_flash_data(self, rng):
        db = random_bits(2000, rng)
        q1, q2 = random_bits(32, rng), random_bits(32, rng)
        db[160:192] = q1
        db[960:992] = q2
        pipe, backend = ifp_pipeline(13)
        pipe.outsource_database(db)
        from repro.flash import FlashOp

        pipe.search(q1)
        writes_after_q1 = backend.ssd.controller.log.count(FlashOp.PROGRAM_PAGE)
        r2 = pipe.search(q2)
        writes_after_q2 = backend.ssd.controller.log.count(FlashOp.PROGRAM_PAGE)
        assert 960 in r2.matches
        # the encrypted database stays resident: no new flash programs
        assert writes_after_q2 == writes_after_q1


    @pytest.mark.parametrize(
        "mode", [IndexMode.CLIENT_DECRYPT, IndexMode.SERVER_DETERMINISTIC]
    )
    def test_reoutsourcing_replaces_the_resident_database(self, rng, mode):
        """The flash holds the database the server stores, not every
        database it ever stored: 12 re-outsource + search rounds (the
        functional region has 16 slots, a database takes 2) stay the
        oracle's and residency stays one database."""
        pipe, backend = ifp_pipeline(18, mode)
        ftl = backend.ssd.controller.ftl
        for _ in range(12):
            db = random_bits(2000, rng)
            q = random_bits(32, rng)
            db[160:192] = q
            db[1203:1235] = q
            stored = pipe.outsource_database(db)
            assert pipe.search(q).matches == find_all_matches(db, q)
            assert pipe.search(q).matches == find_all_matches(db, q)
            assert len(backend._resident) == stored.num_polynomials == 2
            assert all(
                any(ct is kept for kept in stored.ciphertexts)
                for ct, _ in backend._resident.values()
            )
            assert ftl._next_slot == len(ftl.tables[Region.CIPHERMATCH]) == 2

    def test_reoutsourcing_through_the_session_facade(self, rng):
        import repro

        with repro.open_session(
            "bfv", params=PARAMS, key_seed=19, addition_backend=IFPAdditionBackend
        ) as session:
            for _ in range(12):
                db = random_bits(2000, rng)
                q = random_bits(32, rng)
                db[480:512] = q
                session.outsource(db)
                assert list(session.search(q).matches) == find_all_matches(db, q)


class TestIFPCostAccounting:
    def test_simulated_time_scales_with_work(self, rng):
        db_small = random_bits(500, rng)
        db_large = random_bits(4000, rng)

        pipe1, b1 = ifp_pipeline(14)
        pipe1.outsource_database(db_small)
        pipe1.search(random_bits(16, rng))

        pipe2, b2 = ifp_pipeline(15)
        pipe2.outsource_database(db_large)
        pipe2.search(random_bits(16, rng))

        assert b2.ssd.simulated_seconds > b1.ssd.simulated_seconds

    def test_bop_add_commands_issued(self, rng):
        from repro.flash import FlashOp

        pipe, backend = ifp_pipeline(16)
        pipe.outsource_database(random_bits(900, rng))  # one polynomial
        pipe.search(random_bits(16, rng))
        # 16 variants x 1 polynomial x 1 slot
        assert backend.ssd.controller.log.count(FlashOp.BOP_ADD) == 16

    def test_energy_accrues(self, rng):
        pipe, backend = ifp_pipeline(17)
        pipe.outsource_database(random_bits(500, rng))
        pipe.search(random_bits(16, rng))
        assert backend.ssd.simulated_joules > 0
