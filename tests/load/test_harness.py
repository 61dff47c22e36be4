"""Open-loop runner: accounting invariants, targets, real shedding."""

from concurrent.futures import Future

import pytest

import repro
from repro.he import BFVParams
from repro.load import (
    ADMIT_REJECTED,
    COMPLETED,
    FAILED,
    SHED,
    SCENARIO_REGISTRY,
    ConstantArrivals,
    LoadTarget,
    PoissonArrivals,
    RemoteTarget,
    SessionTarget,
    generate_trace,
    run_trace,
)
from repro.net import Client, ServiceThread
from repro.net.codec import RequestShedError


def _trace(key="database", seed=3, n=6, rate=200.0, arrival=None):
    scenario = SCENARIO_REGISTRY.create(key, seed=seed)
    return scenario, generate_trace(
        scenario, arrival or ConstantArrivals(), rate, max_requests=n
    )


class TestGenerateTrace:
    def test_deterministic_across_calls(self):
        _, a = _trace(arrival=PoissonArrivals())
        _, b = _trace(arrival=PoissonArrivals())
        assert [(e.at, e.request, e.expected) for e in a.events] == [
            (e.at, e.request, e.expected) for e in b.events
        ]

    def test_arrival_seed_independent_of_request_stream(self):
        # same scenario seed, different arrival processes: identical
        # request payloads on different timelines
        _, a = _trace(arrival=ConstantArrivals())
        _, b = _trace(arrival=PoissonArrivals())
        assert [e.request for e in a.events] == [e.request for e in b.events]
        assert [e.at for e in a.events] != [e.at for e in b.events]

    def test_header_carries_scenario_identity(self):
        scenario, trace = _trace()
        assert (trace.scenario, trace.seed, trace.arrival) == (
            scenario.key, scenario.seed, "constant",
        )
        assert len(trace.events) == trace.num_requests


class _StubTarget(LoadTarget):
    """Scripted outcomes, no engine: exercises classification paths."""

    def __init__(self, script):
        self.script = script  # index -> "ok" | "shed" | "fail" | "raise"
        self.submitted = 0

    @property
    def capabilities(self):
        raise NotImplementedError

    def describe(self):
        return "stub"

    def outsource(self, db_bits):
        pass

    def submit(self, request, deadline):
        action = self.script[self.submitted]
        self.submitted += 1
        if action == "raise":
            raise ConnectionResetError("socket gone")
        future = Future()
        if action == "ok":
            future.set_result(_FakeResult())
        elif action == "shed":
            future.set_exception(RequestShedError("admission control"))
        else:
            future.set_exception(RuntimeError("worker died"))
        return future


class _FakeResult:
    matches = (1, 2)
    num_matches = 2


class TestOutcomeClassification:
    def test_every_request_resolves_to_exactly_one_outcome(self):
        _, trace = _trace(n=4, rate=1000.0)
        target = _StubTarget(["ok", "shed", "fail", "raise"])
        run = run_trace(trace, target)
        assert [o.status for o in run.outcomes] == [
            COMPLETED, SHED, FAILED, FAILED,
        ]
        assert run.balanced
        assert run.offered == 4

    def test_submit_time_error_recorded(self):
        _, trace = _trace(n=2, rate=1000.0)
        run = run_trace(trace, _StubTarget(["raise", "ok"]))
        assert run.outcomes[0].status == FAILED
        assert "ConnectionResetError" in run.outcomes[0].error

    def test_oracle_mismatch_flagged_not_failed(self):
        _, trace = _trace(n=1, rate=1000.0)
        run = run_trace(trace, _StubTarget(["ok"]))
        # the stub returns matches (1, 2) which no oracle predicted
        assert run.outcomes[0].status == COMPLETED
        assert run.outcomes[0].matched_expected is False


class TestSessionTarget:
    def test_plaintext_run_completes_and_verifies(self):
        scenario, trace = _trace(key="dna", n=8, rate=500.0)
        session = repro.open_session("plaintext")
        target = SessionTarget(session, owns_session=True)
        try:
            scenario.check(target.capabilities, target.describe())
            target.outsource(scenario.db_bits())
            run = run_trace(trace, target)
        finally:
            target.close()
        assert run.balanced
        assert run.count(COMPLETED) == 8
        assert run.count(SHED) == run.count(FAILED) == 0
        assert all(o.matched_expected for o in run.outcomes)
        assert all(o.latency_seconds > 0 for o in run.outcomes)


class TestRemoteTargetShedding:
    def test_overload_sheds_and_accounting_balances(self):
        # max_in_flight=1 on one connection: a 5,000 req/s burst (0.2 ms
        # apart, well under one search) against a real bfv-sharded
        # engine must shed, never fail, and balance
        scenario, trace = _trace(key="database", n=10, rate=5000.0)
        with ServiceThread(
            "bfv-sharded",
            params=BFVParams.test_small(64),
            num_shards=2,
            key_seed=1,
            max_in_flight=1,
        ) as service:
            client = Client(service.address, pool_size=1)
            target = RemoteTarget(client, owns_client=True)
            try:
                scenario.check(target.capabilities, target.describe())
                target.outsource(scenario.db_bits())
                run = run_trace(trace, target)
                stats = target.stats()
            finally:
                target.close()
        assert run.balanced
        assert run.count(FAILED) == 0
        assert run.count(SHED) > 0
        assert run.count(COMPLETED) >= 1
        # the service counted the sheds the client observed, once, and
        # the tenant rows partition that count
        assert stats["service_shed"] == run.count(SHED)
        assert stats["admit_rejected"] == run.count(ADMIT_REJECTED) == 0
        for counter, total in (
            ("shed", stats["service_shed"]),
            ("admit_rejected", stats["admit_rejected"]),
        ):
            assert sum(row[counter] for row in stats["tenants"].values()) == total
        assert stats["service_completed"] == run.count(COMPLETED)
        completed = [o for o in run.outcomes if o.status == COMPLETED]
        assert all(o.matched_expected for o in completed)
