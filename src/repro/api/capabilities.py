"""Engine capability declarations and the errors the facade raises.

Every engine adapter declares what it can actually do — which scheme it
runs, whether it supports wildcard joins, native batching, sharding and
result verification, and the query/database sizes it handles.  The
session layer validates requests against these declarations *before*
any ciphertext work happens, so a wildcard request against an engine
without a wildcard path fails fast with :class:`CapabilityError`
instead of deep inside a matcher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..verify import VerifyPolicy
from .requests import BatchSearch, ExactSearch, SearchRequest, WildcardSearch


class CapabilityError(ValueError):
    """A request asks for something the target engine cannot do."""


class UnknownEngineError(KeyError):
    """A registry lookup used a key no engine is registered under."""

    def __init__(self, key: str, known: tuple[str, ...]):
        super().__init__(key)
        self.key = key
        self.known = known

    def __str__(self) -> str:
        return (
            f"no engine registered under {self.key!r}; "
            f"known engines: {', '.join(self.known)}"
        )


@dataclass(frozen=True)
class Capabilities:
    """What one engine supports, as validated by the session layer.

    ``max_query_bits`` is a *scheme* limit (e.g. Bonte's window must fit
    one plaintext slot); ``practical_query_bits``/``practical_db_bits``
    are functional-scale guidance for pure-Python runs (what the parity
    tests and demos size their fixtures to).  ``exact_query_bits`` is
    the minimum query length at which the engine detects occurrences at
    *every* bit phase without relying on verification-filtered
    candidates (2w - 1 for the packing pipeline).
    """

    scheme: str
    wildcard: bool = False
    batching: bool = False
    sharded: bool = False
    verify: bool = False
    max_query_bits: Optional[int] = None
    practical_query_bits: Optional[int] = None
    practical_db_bits: Optional[int] = None
    exact_query_bits: int = 1

    # -- request validation ---------------------------------------------

    def check(self, request: SearchRequest, engine_key: str) -> None:
        """Raise :class:`CapabilityError` if this engine cannot serve
        ``request``; return silently otherwise."""
        if isinstance(request, WildcardSearch) and not self.wildcard:
            raise CapabilityError(
                f"engine {engine_key!r} has no wildcard path "
                f"(capabilities: scheme={self.scheme!r}, wildcard=False)"
            )
        if request.verify is VerifyPolicy.VERIFY and not self.verify:
            raise CapabilityError(
                f"engine {engine_key!r} has no verification step; use "
                f"VerifyPolicy.AUTO (skips it) or VerifyPolicy.SKIP"
            )
        if isinstance(request, BatchSearch):
            for sub in request.queries:
                self.check(sub, engine_key)
            return
        if isinstance(request, (ExactSearch, WildcardSearch)):
            bits = request.num_bits
            if self.max_query_bits is not None and bits > self.max_query_bits:
                raise CapabilityError(
                    f"engine {engine_key!r} caps queries at "
                    f"{self.max_query_bits} bits, got {bits}"
                )
