"""FaultPlan: builders, spec/JSON round-trips, seeded determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    CONN_DROP,
    CORRUPT_FRAME,
    FAULT_KINDS,
    SHED_STORM,
    SITE_CLIENT_REQUEST,
    SITE_FRAME_SEND,
    SITE_SERVER_REQUEST,
    SITE_SHARD_TASK,
    SLOW_SHARD,
    WORKER_CRASH,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
)
from tests.oracles import seeded_plan


def plan_spec(plan: FaultPlan) -> str:
    """The compact spec :meth:`FaultPlan.parse` reads, written back
    for every event it can express."""
    parts = []
    for ev in plan.events:
        opts = []
        if ev.site == SITE_SHARD_TASK and ev.target >= 0:
            opts.append(f"shard={ev.target}")
        if ev.kind == CONN_DROP:
            side = "client" if ev.site == SITE_CLIENT_REQUEST else "server"
            opts.append(f"side={side}")
        if ev.kind == SLOW_SHARD:
            opts.append(f"delay={ev.delay}")
        if ev.kind == SHED_STORM:
            opts.append(f"count={ev.count}")
        if ev.kind == CORRUPT_FRAME and ev.seed:
            opts.append(f"seed={ev.seed}")
        tail = ":" + ",".join(opts) if opts else ""
        parts.append(f"{ev.kind}@{ev.at}{tail}")
    return ";".join(parts)


class TestBuilders:
    def test_chaining_accumulates_events(self):
        plan = (
            FaultPlan()
            .worker_crash(3, shard=1)
            .slow_shard(2, shard=0, delay=0.01)
            .connection_drop(10)
            .corrupt_frame(4, seed=9)
            .shed_storm(30, count=4)
        )
        assert len(plan) == 5
        assert [ev.kind for ev in plan] == [
            WORKER_CRASH, SLOW_SHARD, CONN_DROP, "corrupt_frame", SHED_STORM,
        ]

    def test_builders_return_new_plans(self):
        base = FaultPlan()
        grown = base.worker_crash(0)
        assert len(base) == 0 and len(grown) == 1

    def test_default_sites(self):
        plan = (
            FaultPlan()
            .worker_crash(0)
            .slow_shard(0)
            .connection_drop(0)
            .corrupt_frame(0)
            .shed_storm(0)
        )
        sites = [ev.site for ev in plan]
        assert sites == [
            SITE_SHARD_TASK,
            SITE_SHARD_TASK,
            SITE_CLIENT_REQUEST,
            SITE_FRAME_SEND,
            SITE_SERVER_REQUEST,
        ]

    def test_server_side_conn_drop(self):
        plan = FaultPlan().connection_drop(1, side="server")
        assert plan.events[0].site == SITE_SERVER_REQUEST

    def test_bad_side_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan().connection_drop(0, side="sideways")

    def test_event_validation(self):
        with pytest.raises(FaultPlanError):
            FaultEvent("nope", 0)
        with pytest.raises(FaultPlanError):
            FaultEvent(WORKER_CRASH, -1)
        with pytest.raises(FaultPlanError):
            FaultEvent(SHED_STORM, 0, count=0)
        with pytest.raises(FaultPlanError):
            FaultEvent(SLOW_SHARD, 0, delay=-0.1)
        with pytest.raises(FaultPlanError):
            FaultEvent(WORKER_CRASH, 0, site="nowhere")


class TestSpec:
    def test_parse_matches_builders(self):
        spec = "worker_crash@3:shard=1;conn_drop@10:side=client;shed_storm@30:count=4"
        assert FaultPlan.parse(spec) == (
            FaultPlan().worker_crash(3, shard=1).connection_drop(10).shed_storm(30, count=4)
        )

    def test_to_spec_round_trips(self):
        plan = (
            FaultPlan()
            .worker_crash(3, shard=1)
            .slow_shard(2, shard=0, delay=0.01)
            .connection_drop(10, side="server")
            .corrupt_frame(4, seed=9)
            .shed_storm(30, count=2)
        )
        assert FaultPlan.parse(plan_spec(plan)) == plan

    def test_parse_rejects_garbage(self):
        for bad in ("worker_crash", "worker_crash@x", "worker_crash@1:shard",
                    "worker_crash@1:bogus=1", "martian@1"):
            with pytest.raises(FaultPlanError):
                FaultPlan.parse(bad)

    def test_empty_spec_is_empty_plan(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse(" ; ")

    def test_load_file_reference(self, tmp_path):
        plan = FaultPlan().worker_crash(1, shard=0).shed_storm(5)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.load(f"@{path}") == plan
        assert FaultPlan.load("worker_crash@1:shard=0") == FaultPlan().worker_crash(1, shard=0)


class TestJson:
    def test_json_round_trip(self):
        plan = seeded_plan(11, requests=16, shards=4, faults=6)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_dict_rejects_bad_payload(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"events": "nope"})
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("{not json")


class TestSeeded:
    def test_same_seed_same_plan(self):
        assert seeded_plan(5) == seeded_plan(5)
        assert seeded_plan(5).to_json() == seeded_plan(5).to_json()

    def test_different_seeds_diverge(self):
        assert any(
            seeded_plan(a) != seeded_plan(a + 1) for a in range(5)
        )

    def test_kind_subset_respected(self):
        plan = seeded_plan(3, faults=8, kinds=(WORKER_CRASH, SLOW_SHARD))
        assert {ev.kind for ev in plan} <= {WORKER_CRASH, SLOW_SHARD}

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError):
            seeded_plan(0, kinds=("martian",))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), faults=st.integers(1, 8))
def test_seeded_plans_always_round_trip(seed, faults):
    """Property: every seeded plan survives JSON and (where expressible)
    spec round-trips with ordinals inside the request horizon."""
    plan = seeded_plan(seed, requests=12, shards=3, faults=faults)
    assert len(plan) == faults
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.parse(plan_spec(plan)) == plan
    assert all(0 <= ev.at < 12 for ev in plan)
    assert all(ev.kind in FAULT_KINDS for ev in plan)

