"""Tenant registry: many keypairs and databases over one serving fleet.

A :class:`TenantRegistry` maps tenant id -> :class:`Tenant`, where each
tenant owns a full :class:`~repro.api.session.Session` — its own
keypair (deterministic per-tenant ``key_seed``), its own outsourced
:class:`~repro.core.packing.EncryptedDatabase`, and its own
:class:`~repro.serve.cache.VariantCipherCache` — while the registry
wires the *shared* machinery around them: one
:class:`~repro.tenancy.TenantCacheBroker` byte budget with per-tenant
floors, per-tenant fair-scheduling weights, optional per-tenant AIMD
admission budgets, and per-tenant outcome accounting.

Cryptographic isolation falls out of the per-tenant sessions: tenant
A's engine never holds tenant B's secret key, so no code path can
decrypt across the boundary (``tests/tenancy`` asserts a cross-key
decrypt yields garbage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..api.session import Session
from ..serve.cache import VariantCipherCache
from .accounting import TenantAccounting
from .broker import TenantCacheBroker
from .quota import TenantQuota

#: engines whose constructor accepts an injected ``cache=`` (the
#: broker-managed per-tenant VariantCipherCache)
_CACHE_AWARE_ENGINES = ("bfv-sharded",)

#: the tenant a HELLO with no tenant id names; registered only by
#: :meth:`TenantRegistry.around` (a :class:`TenantSpec` cannot carry
#: it), so it exists exactly on a registry built around one session
DEFAULT_TENANT = ""


class UnknownTenantError(KeyError):
    """No tenant registered under the requested id."""


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant.

    ``engine_kwargs`` flow to the engine constructor on top of the
    registry-wide defaults (shard count, poly backend, ...);
    the spec's ``key_seed`` always wins so two tenants can never share
    a keypair by accident.
    """

    tenant_id: str
    key_seed: int
    quota: TenantQuota = field(default_factory=TenantQuota)
    engine: Optional[str] = None
    engine_kwargs: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if ":" in self.tenant_id or "," in self.tenant_id:
            raise ValueError(
                f"tenant_id {self.tenant_id!r} may not contain ':' or ','"
            )

    @classmethod
    def parse(cls, text: str) -> "TenantSpec":
        """Parse one ``id:key_seed[:weight]`` CLI token."""
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"tenant spec {text!r} is not of the form "
                f"id:key_seed[:weight]"
            )
        tenant_id, seed = parts[0].strip(), int(parts[1])
        weight = float(parts[2]) if len(parts) == 3 else 1.0
        return cls(
            tenant_id=tenant_id,
            key_seed=seed,
            quota=TenantQuota(share_weight=weight),
        )


class Tenant:
    """One registered tenant's runtime state (session + accounting)."""

    def __init__(
        self,
        tenant_id: str,
        quota: TenantQuota,
        session: Session,
        cache: Optional[VariantCipherCache],
        *,
        owns_session: bool = True,
    ):
        self.tenant_id = tenant_id
        self.quota = quota
        self.session = session
        self.cache = cache
        #: False for a session a caller lent to
        #: :meth:`TenantRegistry.around`: ``close_all`` leaves it open
        self.owns_session = owns_session
        self.accounting = TenantAccounting()

    @property
    def weight(self) -> float:
        return self.quota.share_weight


class TenantRegistry:
    """Tenant id -> (keypair, database, quotas) over shared budgets.

    Parameters
    ----------
    specs:
        Tenants to register eagerly (more can be added via
        :meth:`register`).
    global_cache_bytes:
        Fleet-wide cache byte budget handed to the
        :class:`TenantCacheBroker` (None -> no cross-tenant pressure).
    default_engine:
        Engine registry key used for specs that don't name their own.
    engine_kwargs:
        Registry-wide engine defaults every tenant's session is built
        with (``num_shards=``, ``cache_capacity=``, ...).
    """

    def __init__(
        self,
        specs: Iterable[TenantSpec] = (),
        *,
        global_cache_bytes: Optional[int] = None,
        default_engine: str = "bfv-sharded",
        **engine_kwargs,
    ):
        self.default_engine = default_engine
        self.engine_kwargs = dict(engine_kwargs)
        self.broker = TenantCacheBroker(global_cache_bytes)
        self._tenants: Dict[str, Tenant] = {}
        self._closed = False
        for spec in specs:
            self.register(spec)

    @classmethod
    def around(cls, session: Session, *, owned: bool) -> "TenantRegistry":
        """A registry of one :data:`DEFAULT_TENANT` serving ``session``.

        ``owned`` says whether :meth:`close_all` closes the session
        (the caller opened it for this registry) or leaves it to the
        caller who lent it.
        """
        registry = cls()
        cache = getattr(
            getattr(session.engine, "engine", None), "cache", None
        )
        if cache is not None:
            registry.broker.register(DEFAULT_TENANT, cache)
        registry._tenants[DEFAULT_TENANT] = Tenant(
            DEFAULT_TENANT, TenantQuota(), session, cache, owns_session=owned
        )
        return registry

    # -- registration ------------------------------------------------------

    def register(self, spec: TenantSpec) -> Tenant:
        """Open the tenant's session (keygen happens here) and wire its
        cache into the shared broker."""
        if self._closed:
            raise RuntimeError("registry is closed")
        if spec.tenant_id in self._tenants:
            raise ValueError(f"tenant {spec.tenant_id!r} already registered")
        engine_key = spec.engine or self.default_engine
        kwargs = dict(self.engine_kwargs)
        kwargs.update(spec.engine_kwargs)
        cache: Optional[VariantCipherCache] = None
        if engine_key in _CACHE_AWARE_ENGINES:
            cache = self.broker.create_cache(
                spec.tenant_id,
                capacity=spec.quota.cache_entries,
                floor_bytes=spec.quota.cache_floor_bytes,
                max_bytes=spec.quota.max_cache_bytes,
            )
            kwargs["cache"] = cache
            kwargs["tenant"] = spec.tenant_id
        if engine_key != "plaintext":
            kwargs["key_seed"] = spec.key_seed
        # Build the engine directly: ``tenant`` is both a Session-level
        # label (open_session kwarg) and, for cache-aware engines, an
        # engine-constructor kwarg — routing through open_session would
        # collide on the name.
        from ..api.registry import DEFAULT_REGISTRY

        try:
            built = DEFAULT_REGISTRY.create(engine_key, **kwargs)
        except BaseException:
            self.broker.unregister(spec.tenant_id)
            raise
        session = Session(built, tenant=spec.tenant_id)
        tenant = Tenant(spec.tenant_id, spec.quota, session, cache)
        self._tenants[spec.tenant_id] = tenant
        return tenant

    # -- lookup ------------------------------------------------------------

    def get(self, tenant_id: str) -> Tenant:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise UnknownTenantError(
                f"unknown tenant {tenant_id!r}; registered: "
                f"{sorted(self._tenants)}"
            ) from None

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def ids(self) -> List[str]:
        return list(self._tenants)

    def tenants(self) -> List[Tenant]:
        return list(self._tenants.values())

    # -- lifecycle ---------------------------------------------------------

    def outsource(self, tenant_id: str, db_bits) -> None:
        """Outsource a database into one tenant's session."""
        self.get(tenant_id).session.outsource(db_bits)

    def close_all(self) -> None:
        """Close every tenant session this registry owns (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for tenant in self._tenants.values():
            if tenant.owns_session:
                tenant.session.close()

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close_all()

    # -- accounting --------------------------------------------------------

    def accounting_snapshot(self) -> Dict[str, Dict]:
        """Per-tenant accounting merged with cache-broker residency —
        the payload behind the STATS frame's ``tenants_json`` blob."""
        cache_rows = self.broker.snapshot()
        out: Dict[str, Dict] = {}
        for tenant_id, tenant in self._tenants.items():
            row = tenant.accounting.snapshot()
            row["weight"] = tenant.weight
            row.update(
                cache_rows.get(
                    tenant_id,
                    {
                        "cache_bytes": 0,
                        "cache_floor_bytes": 0,
                        "cache_entries": 0,
                        "pressure_evictions": 0,
                    },
                )
            )
            out[tenant_id] = row
        return out
