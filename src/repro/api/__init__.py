"""Unified search facade: typed requests, an engine registry, and a
session layer over every matcher in the reproduction.

One call gets a ready-to-search session on any registered engine —
the sharded CIPHERMATCH serving engine, the wire protocol, or any of
the prior-work baselines — and every
engine consumes the same frozen request types and returns the same
:class:`SearchResult`:

>>> import numpy as np, repro
>>> db = np.zeros(4096, dtype=np.uint8); db[160:192] = 1
>>> with repro.open_session("bfv-sharded", key_seed=7, db_bits=db) as s:
...     s.search(np.ones(32, dtype=np.uint8)).matches
(160,)

Swapping engines is a one-word change (``"bfv-sharded"`` ->
``"bfv-wire"`` -> ``"yasuda"`` -> ``"plaintext"``); requests an engine cannot serve
fail fast with :class:`CapabilityError`.  ``Session.submit`` gives
future-based asynchronous submission with native batch coalescing on
engines that declare it.  See ``docs/api.md`` for the full contract,
the capability matrix and the old-call -> new-call migration table.
"""

from .capabilities import Capabilities, CapabilityError, UnknownEngineError
from .engines import (
    BonteEngine,
    Engine,
    KimHomEQEngine,
    PlaintextEngine,
    ShardedEngine,
    TfheBooleanEngine,
    WireEngine,
    YasudaEngine,
)
from .registry import DEFAULT_REGISTRY, EngineRegistry, EngineSpec
from .requests import (
    BatchSearch,
    BatchSearchResult,
    ExactSearch,
    HomOpTally,
    SearchRequest,
    SearchResult,
    ShardBreakdown,
    WildcardSearch,
)
from .session import Session, open_session
from ..verify import VerifyLike, VerifyPolicy

__all__ = [
    "BatchSearch",
    "BatchSearchResult",
    "BonteEngine",
    "Capabilities",
    "CapabilityError",
    "DEFAULT_REGISTRY",
    "Engine",
    "EngineRegistry",
    "EngineSpec",
    "ExactSearch",
    "HomOpTally",
    "KimHomEQEngine",
    "PlaintextEngine",
    "SearchRequest",
    "SearchResult",
    "Session",
    "ShardBreakdown",
    "ShardedEngine",
    "TfheBooleanEngine",
    "UnknownEngineError",
    "VerifyLike",
    "VerifyPolicy",
    "WildcardSearch",
    "WireEngine",
    "YasudaEngine",
    "open_session",
]
