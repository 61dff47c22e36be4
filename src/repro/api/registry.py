"""String-keyed registry of every search engine in the reproduction.

The registry is what makes engines swappable from call sites: a caller
names an engine (``"bfv-sharded"``, ``"yasuda"``, ...) and gets back a
fully-constructed adapter without importing any scheme-specific module.
``repro.open_session`` resolves through the default registry; custom
engines can be registered at runtime (e.g. an experimental matcher in a
notebook) and immediately gain the session/batching machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple, Type

from .capabilities import Capabilities, UnknownEngineError
from .engines import (
    BonteEngine,
    BooleanEngine,
    Engine,
    KimHomEQEngine,
    PipelineEngine,
    PlaintextEngine,
    ShardedEngine,
    TfheBooleanEngine,
    WireEngine,
    YasudaEngine,
)


@dataclass(frozen=True)
class EngineSpec:
    """One registry entry: how to build an engine and what it claims."""

    key: str
    factory: Callable[..., Engine]
    summary: str
    capabilities: Capabilities


class EngineRegistry:
    """Mutable mapping from string keys to engine factories."""

    def __init__(self) -> None:
        self._specs: Dict[str, EngineSpec] = {}

    # -- registration ----------------------------------------------------

    def register(
        self,
        key: str,
        factory: Callable[..., Engine],
        *,
        summary: str,
        capabilities: Capabilities,
        overwrite: bool = False,
    ) -> None:
        if not overwrite and key in self._specs:
            raise ValueError(f"engine key {key!r} already registered")
        self._specs[key] = EngineSpec(key, factory, summary, capabilities)

    def register_engine_class(
        self, cls: Type[Engine], *, summary: str, overwrite: bool = False
    ) -> None:
        """Register an :class:`Engine` subclass under its ``key``."""
        self.register(
            cls.key,
            cls,
            summary=summary,
            capabilities=cls.CAPS,
            overwrite=overwrite,
        )

    # -- lookup ----------------------------------------------------------

    def spec(self, key: str) -> EngineSpec:
        try:
            return self._specs[key]
        except KeyError:
            raise UnknownEngineError(key, self.keys()) from None

    def create(self, key: str, **kwargs) -> Engine:
        """Construct the engine registered under ``key``.

        Keyword arguments flow straight into the engine constructor
        (``params=``, ``key_seed=``, ``num_shards=``, ...), so an
        argument an engine does not take fails loudly with the engine's
        own ``TypeError`` rather than being dropped.
        """
        return self.spec(key).factory(**kwargs)

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def __contains__(self, key: str) -> bool:
        return key in self._specs

    def __iter__(self) -> Iterator[EngineSpec]:
        return iter(self._specs.values())

    # -- reporting -------------------------------------------------------

    def capability_matrix(self) -> str:
        """Engine x capability table (rendered like the eval tables)."""
        from ..eval.tables import format_table

        def mark(flag: bool) -> str:
            return "yes" if flag else "-"

        rows = []
        for spec in self:
            caps = spec.capabilities
            rows.append(
                [
                    spec.key,
                    caps.scheme,
                    mark(caps.wildcard),
                    mark(caps.batching),
                    mark(caps.sharded),
                    mark(caps.verify),
                    "-" if caps.max_query_bits is None else str(caps.max_query_bits),
                ]
            )
        return format_table(
            "registered engines",
            ["engine", "scheme", "wildcard", "batch", "shard", "verify",
             "max query bits"],
            rows,
        )


def _build_default_registry() -> EngineRegistry:
    reg = EngineRegistry()
    reg.register_engine_class(
        PipelineEngine,
        summary="CIPHERMATCH packing pipeline (Hom-Add only, in-process)",
    )
    reg.register_engine_class(
        WireEngine,
        summary="CIPHERMATCH over the serialized two-round wire protocol",
    )
    reg.register_engine_class(
        ShardedEngine,
        summary="concurrent sharded serving engine with variant cache",
    )
    reg.register_engine_class(
        PlaintextEngine, summary="unencrypted oracle (reference results)"
    )
    reg.register_engine_class(
        BooleanEngine,
        summary="Boolean per-bit XNOR/AND baseline on the BFV stand-in",
    )
    reg.register_engine_class(
        TfheBooleanEngine,
        summary="Boolean baseline over real bootstrapped TFHE gates",
    )
    reg.register_engine_class(
        YasudaEngine,
        summary="arithmetic baseline: packed Hamming distance (Yasuda)",
    )
    reg.register_engine_class(
        KimHomEQEngine,
        summary="arithmetic baseline: HomEQ equality circuit (Kim)",
    )
    reg.register_engine_class(
        BonteEngine,
        summary="arithmetic baseline: batched window equality (Bonte)",
    )
    return reg


#: The process-wide registry ``repro.open_session`` resolves against.
DEFAULT_REGISTRY = _build_default_registry()
