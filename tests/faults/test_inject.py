"""FaultInjector stepping semantics, payload corruption, shared hooks."""

import pytest

from repro.faults import (
    SITE_CLIENT_REQUEST,
    SITE_SHARD_TASK,
    WORKER_CRASH,
    FaultInjector,
    FaultPlan,
    corrupt_payload,
    install_engine_injector,
)
from repro.net.framing import Frame


class TestStep:
    def test_fires_on_exact_ordinal(self):
        injector = FaultInjector(FaultPlan().worker_crash(2, shard=0))
        assert injector.step(SITE_SHARD_TASK, 0) == ()
        assert injector.step(SITE_SHARD_TASK, 0) == ()
        hits = injector.step(SITE_SHARD_TASK, 0)
        assert len(hits) == 1 and hits[0].kind == WORKER_CRASH

    def test_fires_exactly_once(self):
        injector = FaultInjector(FaultPlan().worker_crash(0, shard=0))
        assert injector.step(SITE_SHARD_TASK, 0)
        # counter wraps past the ordinal; spent events never re-fire
        for _ in range(5):
            assert injector.step(SITE_SHARD_TASK, 0) == ()
        assert len(injector.fired) == 1

    def test_counters_are_per_site_and_target(self):
        injector = FaultInjector(FaultPlan().worker_crash(1, shard=1))
        # shard 0 visits don't advance shard 1's counter
        assert injector.step(SITE_SHARD_TASK, 0) == ()
        assert injector.step(SITE_SHARD_TASK, 0) == ()
        assert injector.step(SITE_SHARD_TASK, 1) == ()
        assert injector.step(SITE_SHARD_TASK, 1)

    def test_unscoped_event_fires_on_any_target(self):
        injector = FaultInjector(FaultPlan().worker_crash(0))
        assert injector.step(SITE_SHARD_TASK, 7)
        assert injector.step(SITE_SHARD_TASK, 0) == ()

    def test_scoped_event_ignores_other_targets(self):
        injector = FaultInjector(FaultPlan().worker_crash(0, shard=2))
        assert injector.step(SITE_SHARD_TASK, 0) == ()
        assert injector.step(SITE_SHARD_TASK, 2)

    def test_wrong_site_never_fires(self):
        injector = FaultInjector(FaultPlan().worker_crash(0))
        assert injector.step(SITE_CLIENT_REQUEST) == ()
        assert injector.pending  # still scheduled

    def test_two_events_same_visit(self):
        plan = FaultPlan().worker_crash(1, shard=0).slow_shard(1, shard=0)
        injector = FaultInjector(plan)
        injector.step(SITE_SHARD_TASK, 0)
        assert len(injector.step(SITE_SHARD_TASK, 0)) == 2


class TestAccounting:
    def test_visits_pending_summary_fired(self):
        plan = FaultPlan().worker_crash(0, shard=0).connection_drop(5)
        injector = FaultInjector(plan)
        injector.step(SITE_SHARD_TASK, 0)
        assert [ev.kind for ev in injector.pending] == ["conn_drop"]
        assert injector.summary() == {WORKER_CRASH: 1}
        fired = injector.fired[0]
        assert (fired.site, fired.target, fired.ordinal) == (SITE_SHARD_TASK, 0, 0)
        assert fired.event.kind == WORKER_CRASH


class TestCorruptPayload:
    def test_deterministic_and_length_preserving(self):
        payload = bytes(range(256)) * 3
        a = corrupt_payload(payload, seed=5)
        b = corrupt_payload(payload, seed=5)
        assert a == b
        assert len(a) == len(payload)
        assert a != payload

    def test_different_seeds_differ(self):
        payload = bytes(range(256))
        assert corrupt_payload(payload, seed=1) != corrupt_payload(payload, seed=2)

    def test_empty_passthrough(self):
        assert corrupt_payload(b"") == b""

    def test_seed_zero_uses_default(self):
        payload = b"x" * 64
        assert corrupt_payload(payload, 0) == corrupt_payload(payload, 0)
        assert corrupt_payload(payload, 0) != payload


class TestFrameHook:
    def test_corrupts_scheduled_frame_only(self):
        injector = FaultInjector(FaultPlan().corrupt_frame(1, seed=3))
        hook = injector.frame_hook()
        f0 = Frame(1, 10, b"payload-zero")
        f1 = Frame(1, 11, b"payload-one!")
        out0 = hook(f0)
        out1 = hook(f1)
        assert out0.payload == f0.payload
        assert out1.payload != f1.payload
        assert len(out1.payload) == len(f1.payload)
        assert (out1.type, out1.request_id) == (f1.type, f1.request_id)
        assert injector.summary() == {"corrupt_frame": 1}

    def test_counts_every_outbound_frame(self):
        injector = FaultInjector(FaultPlan().corrupt_frame(2))
        hook = injector.frame_hook()
        outs = [hook(Frame(1, i, b"payload")) for i in range(3)]
        assert [out.payload == b"payload" for out in outs] == [True, True, False]
        assert injector.summary() == {"corrupt_frame": 1}


class TestSharedHooks:
    def test_install_engine_injector_unwraps_facades(self):
        class Inner:
            fault_injector = None

        class Facade:
            def __init__(self, engine):
                self.engine = engine

        inner = Inner()
        injector = FaultInjector(FaultPlan())
        assert install_engine_injector(Facade(Facade(inner)), injector)
        assert inner.fault_injector is injector
        assert not install_engine_injector(object(), injector)


class TestEngineIntegration:
    def test_sharded_engine_exposes_injector_slot(self):
        import repro
        from repro.he import BFVParams

        with repro.open_session(
            "bfv-sharded", params=BFVParams.test_small(64), num_shards=2, key_seed=1
        ) as session:
            injector = FaultInjector(FaultPlan())
            assert install_engine_injector(session.engine, injector)
            inner = session.engine
            while not hasattr(inner, "fault_injector"):
                inner = inner.engine
            assert inner.fault_injector is injector
