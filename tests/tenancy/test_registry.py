"""Tenant registry: per-tenant sessions, keys, caches and accounting.

The cryptographic-isolation lane is the load-bearing one: two tenants
registered from different key seeds must hold different secret keys,
and decrypting tenant A's ciphertext with tenant B's key must NOT
recover the plaintext.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.he import BFVParams
from repro.tenancy import (
    TenantQuota,
    TenantRegistry,
    TenantSpec,
    UnknownTenantError,
)

PARAMS = BFVParams.test_small(64)


def _registry(**kwargs):
    kwargs.setdefault("params", PARAMS)
    kwargs.setdefault("num_shards", 2)
    return TenantRegistry(
        [TenantSpec.parse("alice:11"), TenantSpec.parse("bob:22:2.0")],
        **kwargs,
    )


# -- spec parsing -------------------------------------------------------------


def test_spec_parse_forms():
    spec = TenantSpec.parse("alice:11")
    assert (spec.tenant_id, spec.key_seed) == ("alice", 11)
    assert spec.quota.share_weight == 1.0
    weighted = TenantSpec.parse("bob:22:2.5")
    assert weighted.quota.share_weight == 2.5
    with pytest.raises(ValueError):
        TenantSpec.parse("no-seed")
    with pytest.raises(ValueError):
        TenantSpec.parse("a:1:2:3")
    with pytest.raises(ValueError):
        TenantSpec(tenant_id="has:colon", key_seed=1)
    with pytest.raises(ValueError):
        TenantSpec(tenant_id="", key_seed=1)


def test_quota_validation():
    with pytest.raises(ValueError):
        TenantQuota(cache_entries=0)
    with pytest.raises(ValueError):
        TenantQuota(share_weight=0.0)
    with pytest.raises(ValueError):
        TenantQuota(cache_floor_bytes=-1)


# -- registration -------------------------------------------------------------


def test_registry_builds_isolated_sessions():
    with _registry() as reg:
        assert len(reg) == 2
        assert set(reg.ids()) == {"alice", "bob"}
        assert "alice" in reg and "mallory" not in reg
        alice, bob = reg.get("alice"), reg.get("bob")
        assert alice.session is not bob.session
        assert alice.session.tenant == "alice"
        assert alice.weight == 1.0 and bob.weight == 2.0
        # per-tenant key seeds forced from the spec: different secrets
        sk_a = alice.session.engine.engine.client.sk.s.coeffs
        sk_b = bob.session.engine.engine.client.sk.s.coeffs
        assert not np.array_equal(sk_a, sk_b)


def test_cross_tenant_decrypt_is_garbage():
    """Tenant B's key cannot decrypt tenant A's ciphertext."""
    with _registry() as reg:
        ctx_a = reg.get("alice").session.engine.engine.client.ctx
        client_a = reg.get("alice").session.engine.engine.client
        client_b = reg.get("bob").session.engine.engine.client
        coeffs = np.arange(PARAMS.n, dtype=np.int64) % PARAMS.t
        ct = ctx_a.encrypt(ctx_a.plaintext(coeffs), client_a.pk)
        own = ctx_a.decrypt(ct, client_a.sk).poly.coeffs
        cross = ctx_a.decrypt(ct, client_b.sk).poly.coeffs
        assert np.array_equal(own, coeffs)
        assert not np.array_equal(cross, coeffs)


def test_cache_wired_into_shared_broker():
    with _registry(global_cache_bytes=1 << 20) as reg:
        assert reg.broker.global_budget_bytes == 1 << 20
        snap = reg.broker.snapshot()
        assert set(snap) == {"alice", "bob"}
        for tenant in reg.tenants():
            assert tenant.cache is not None
            # the engine serves from the broker-registered cache object
            assert tenant.session.engine.engine.cache is tenant.cache
            assert tenant.session.engine.engine.tenant == tenant.tenant_id


def test_duplicate_and_unknown_tenants():
    with _registry() as reg:
        with pytest.raises(ValueError, match="already registered"):
            reg.register(TenantSpec.parse("alice:99"))
        with pytest.raises(UnknownTenantError):
            reg.get("mallory")


def test_failed_register_unwinds_broker_registration():
    reg = TenantRegistry([], params=PARAMS)
    with pytest.raises(Exception):
        reg.register(
            TenantSpec(
                tenant_id="broken",
                key_seed=1,
                engine_kwargs={"num_shards": -4},
            )
        )
    assert "broken" not in reg.broker.snapshot()
    # the id is reusable after the failure
    reg.register(
        TenantSpec(
            tenant_id="broken", key_seed=1, engine_kwargs={"num_shards": 1}
        )
    )
    reg.close_all()


def test_outsource_and_search_per_tenant():
    rng = np.random.default_rng(3)
    with _registry() as reg:
        dbs = {}
        for tenant_id in reg.ids():
            db = rng.integers(0, 2, 2048).astype(np.uint8)
            q = rng.integers(0, 2, 32).astype(np.uint8)
            off = 320 if tenant_id == "alice" else 640
            db[off : off + 32] = q
            reg.outsource(tenant_id, db)
            dbs[tenant_id] = (q, off)
        for tenant_id, (q, off) in dbs.items():
            result = reg.get(tenant_id).session.search(q)
            assert off in result.matches


def test_close_all_idempotent_and_context_manager():
    reg = _registry()
    reg.close_all()
    reg.close_all()  # second call is a no-op
    with pytest.raises(RuntimeError, match="closed"):
        reg.register(TenantSpec.parse("late:7"))


def test_from_spec_and_accounting_snapshot():
    specs = [TenantSpec.parse("a:1"), TenantSpec.parse("b:2:3.0")]
    with TenantRegistry(specs, params=PARAMS, num_shards=1) as reg:
        assert set(reg.ids()) == {"a", "b"}
        reg.get("a").accounting.record_accepted()
        reg.get("a").accounting.record_completed(0.010)
        rows = reg.accounting_snapshot()
        assert rows["a"]["accepted"] == 1
        assert rows["a"]["completed"] == 1
        assert rows["b"]["weight"] == 3.0
        for row in rows.values():
            assert {"cache_bytes", "cache_floor_bytes",
                    "pressure_evictions"} <= set(row)
