"""End-to-end chaos: fault plans replayed through the live stack.

Covers the degradation contract (partial results + circuit breaker),
the service-side fault hooks (shed storms, server connection drops,
fail-fast admission), client retry/backoff recovery, and the load
harness's four-term accounting invariant under seeded fault plans
across target combinations.
"""

import time

import numpy as np
import pytest

import repro
from repro.faults import (
    CONN_DROP,
    SHED_STORM,
    SLOW_SHARD,
    WORKER_CRASH,
    FaultInjector,
    FaultPlan,
    install_engine_injector,
)
from repro.he import BFVParams
from repro.load import (
    ADMIT_REJECTED,
    COMPLETED,
    FAILED,
    SHED,
    SCENARIO_REGISTRY,
    ConstantArrivals,
    RemoteTarget,
    SessionTarget,
    generate_trace,
    run_trace,
)
from repro.net import Client, ServiceThread
from repro.net.codec import AdmissionRejectedError, RequestTimeoutError
from repro.serve import AdmissionController
from tests.net.conftest import assert_rows_partition
from tests.oracles import seeded_plan

PARAMS = BFVParams.test_small(64)
QUERY = np.ones(32, dtype=np.uint8)


def _db() -> np.ndarray:
    """4096-bit db with one match per shard when split across 2 shards."""
    db = np.zeros(4096, dtype=np.uint8)
    db[160:192] = 1
    db[3200:3232] = 1
    return db


def _session(**kwargs):
    return repro.open_session(
        "bfv-sharded", params=PARAMS, num_shards=2, key_seed=1, **kwargs
    )


def _service(**kwargs):
    return ServiceThread(
        "bfv-sharded", params=PARAMS, num_shards=2, key_seed=1, **kwargs
    )


class TestPartialResults:
    def test_thread_crash_degrades_then_breaker_recovers(self):
        with _session(
            degraded_mode="partial",
            breaker_threshold=1,
            breaker_cooldown=0.05,
            db_bits=_db(),
        ) as session:
            injector = FaultInjector(FaultPlan().worker_crash(0, shard=1))
            assert install_engine_injector(session.engine, injector)
            first = session.search(QUERY)
            assert first.degraded
            assert first.degraded_shards == (1,)
            assert first.matches == (160,)  # live shard's half only
            time.sleep(0.06)  # cooldown: half-open probe re-runs shard 1
            second = session.search(QUERY)
            assert not second.degraded
            assert second.degraded_shards == ()
            assert second.matches == (160, 3200)
            assert injector.summary() == {WORKER_CRASH: 1}

    def test_open_breaker_gates_shard_without_new_crash(self):
        with _session(
            degraded_mode="partial",
            breaker_threshold=1,
            breaker_cooldown=60.0,
            db_bits=_db(),
        ) as session:
            injector = FaultInjector(FaultPlan().worker_crash(0, shard=1))
            install_engine_injector(session.engine, injector)
            assert session.search(QUERY).degraded_shards == (1,)
            # one crash was injected; the open breaker keeps degrading
            again = session.search(QUERY)
            assert again.degraded_shards == (1,)
            assert again.matches == (160,)
            assert injector.summary() == {WORKER_CRASH: 1}

    def test_fail_mode_thread_crash_raises(self):
        with _session(db_bits=_db()) as session:
            install_engine_injector(
                session.engine,
                FaultInjector(FaultPlan().worker_crash(0, shard=1)),
            )
            with pytest.raises(Exception):
                session.search(QUERY)
            # the crash is single-fire: the next search is clean
            assert session.search(QUERY).matches == (160, 3200)


class TestServiceFaults:
    def test_shed_storm_sheds_then_retry_recovers(self):
        with _service(fault_plan="shed_storm@1:count=2") as service:
            client = Client(service.address, retry=6)
            try:
                client.outsource(_db())
                results = [client.search(QUERY) for _ in range(4)]
                stats = client.stats()
            finally:
                client.close()
            assert service.service.fault_injector.summary() == {SHED_STORM: 1}
        assert all(r.matches == (160, 3200) for r in results)
        assert stats.shed == 2  # the storm's victims, before their retries
        assert assert_rows_partition(stats)[""]["shed"] == 2
        assert stats.completed == 4

    def test_server_conn_drop_recovered_by_replay(self):
        with _service(fault_plan="conn_drop@1:side=server") as service:
            client = Client(service.address, pool_size=1)
            try:
                client.outsource(_db())
                results = [client.search(QUERY) for _ in range(3)]
            finally:
                client.close()
            assert service.service.fault_injector.summary() == {CONN_DROP: 1}
        assert all(r.matches == (160, 3200) for r in results)

    def test_admission_fail_fast_then_retry_recovers(self):
        controller = AdmissionController(5.0, initial_target=1, min_target=1)
        with _service(admission=controller, max_in_flight=32) as service:
            client = Client(service.address, pool_size=4)
            try:
                client.outsource(_db())
                futures = [client.submit(QUERY) for _ in range(8)]
                rejected = completed = 0
                for future in futures:
                    try:
                        result = future.result(120)
                    except AdmissionRejectedError:
                        rejected += 1
                    else:
                        completed += 1
                        assert result.matches == (160, 3200)
                assert rejected + completed == 8
                assert rejected >= 1  # target 1 against an 8-wide burst
                stats = client.stats()
                assert stats.admit_rejected == rejected
                rows = assert_rows_partition(stats)
                assert rows[""]["admit_rejected"] == rejected
                snapshot = controller.snapshot()["exact"]
                assert snapshot["rejected"] == rejected
                # bounded retry with backoff turns rejections into wins
                again = [client.submit(QUERY, retry=8) for _ in range(4)]
                assert all(
                    f.result(120).matches == (160, 3200) for f in again
                )
            finally:
                client.close()

    def test_request_timeout_bounds_the_caller(self):
        # the first shard task stalls 50 ms, so the 0.1 ms bound expires
        # however fast a search is and whichever thread runs first
        with _service(fault_plan=FaultPlan().slow_shard(0, shard=0)) as service:
            client = Client(service.address)
            try:
                client.outsource(_db())
                with pytest.raises(RequestTimeoutError):
                    client.search(QUERY, timeout=1e-4)
                # the client survives a timed-out request
                assert client.search(QUERY).matches == (160, 3200)
            finally:
                client.close()

    def test_stats_surface_resilience_counters(self):
        with _service(admission=1.0) as service:
            client = Client(service.address)
            try:
                client.outsource(_db())
                client.search(QUERY)
                stats = client.stats()
            finally:
                client.close()
        assert stats.admit_rejected == 0
        assert stats.degraded_shards == 0
        assert stats.completed == 1


def _trace(n=8, rate=400.0, seed=3):
    scenario = SCENARIO_REGISTRY.create("database", seed=seed)
    return scenario, generate_trace(
        scenario, ConstantArrivals(), rate, max_requests=n
    )


# corrupt_frame is exercised deterministically above the framing layer
# (tests/faults/test_inject.py); the sweep here sticks to the kinds whose
# blast radius is a request outcome, so the oracle stays meaningful.
SWEEP_KINDS = (WORKER_CRASH, SLOW_SHARD, CONN_DROP, SHED_STORM)


class TestAccountingInvariant:
    """Satellite: offered == completed + shed + admit_rejected + failed
    for every fault-plan seed x target combination."""

    @pytest.mark.parametrize("mode", ["session", "remote"])
    @pytest.mark.parametrize("seed", [7, 23])
    def test_four_term_accounting_balances(self, seed, mode):
        scenario, trace = _trace(n=8, rate=400.0)
        plan = seeded_plan(
            seed, requests=8, shards=2, faults=4, kinds=SWEEP_KINDS
        )
        client_injector = FaultInjector(plan)
        service = None
        if mode == "session":
            session = _session()
            target = SessionTarget(session, owns_session=True)
            install_engine_injector(session.engine, FaultInjector(plan))
        else:
            service = _service(
                fault_plan=plan,
                admission=AdmissionController(5.0, initial_target=2),
            )
            service.start()
            target = RemoteTarget(
                Client(service.address, pool_size=2), owns_client=True
            )
        try:
            scenario.check(target.capabilities, target.describe())
            target.outsource(scenario.db_bits())
            run = run_trace(trace, target, injector=client_injector)
        finally:
            target.close()
            if service is not None:
                service.stop()
        counts = {
            status: run.count(status)
            for status in (COMPLETED, SHED, ADMIT_REJECTED, FAILED)
        }
        assert run.offered == 8
        assert run.balanced, counts
        assert sum(counts.values()) == run.offered
        # completed requests are never silently wrong under faults
        assert sum(
            1 for o in run.outcomes if o.matched_expected is False
        ) == 0
