"""Engine adapters: one uniform execution surface over every matcher.

The repo grew several parallel entry points to the same secure-search
capability — the wire-protocol session, the sharded serve engine and
the prior-work baseline matchers — each with
its own constructor, outsourcing step and result shape.  This module
wraps each of them in an :class:`Engine` with declared
:class:`~repro.api.capabilities.Capabilities`, a single ``outsource``
step and a single ``execute(request) -> SearchResult`` path, so callers
(and the :class:`~repro.api.session.Session` layer) can swap
BFV <-> TFHE <-> baseline or single-shard <-> sharded without rewriting
anything.

Wildcard execution is generic where an engine declares it: each literal
segment of the pattern runs as an ordinary exact search and the offsets
are joined by set intersection client-side — precisely the
:mod:`repro.core.wildcard` construction, now shared by every capable
engine.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from ..baselines import (
    BonteMatcher,
    KimHomEQMatcher,
    TfheBooleanMatcher,
    YasudaMatcher,
    find_all_matches,
)
from ..core.client import CipherMatchClient, ClientConfig
from ..core.match_polynomial import IndexMode
from ..core.protocol import WireProtocolSession
from ..core.wildcard import WildcardPattern
from ..he.params import BFVParams
from ..he.keys import generate_keys
from ..tfhe import TFHEParams
from ..verify import VerifyPolicy
from .capabilities import Capabilities, CapabilityError
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


@dataclass
class _Outcome:
    """What one engine-internal execution hands back to the wrapper."""

    matches: List[int]
    hom_ops: HomOpTally = field(default_factory=HomOpTally)
    verified: bool = False
    num_variants: int = 0
    encrypted_db_bytes: int = 0
    shards: tuple = ()
    degraded_shards: tuple = ()


class Engine(abc.ABC):
    """One secure-search implementation behind the uniform facade.

    Subclasses declare class-level default :attr:`CAPS` (what the
    registry's capability matrix shows) and may override the
    ``capabilities`` property when an instance is configured more or
    less capable than the default.
    """

    #: registry key / display name; set per subclass
    key: str = "abstract"
    CAPS: Capabilities = Capabilities(scheme="none")

    @property
    def capabilities(self) -> Capabilities:
        return self.CAPS

    # -- lifecycle -------------------------------------------------------

    @abc.abstractmethod
    def outsource(self, db_bits: np.ndarray) -> None:
        """Encrypt (as the scheme requires) and store the database."""

    @property
    @abc.abstractmethod
    def db_bit_length(self) -> Optional[int]:
        """Bit length of the outsourced database, or None before
        :meth:`outsource`."""

    def close(self) -> None:
        """Release engine resources (default: nothing to release)."""

    # -- execution -------------------------------------------------------

    def execute(self, request: SearchRequest):
        """Validate against capabilities, dispatch, time, and wrap."""
        caps = self.capabilities
        caps.check(request, self.key)
        if self.db_bit_length is None:
            raise RuntimeError("outsource a database first")
        if isinstance(request, BatchSearch):
            return self._execute_batch(request)
        start = time.perf_counter()
        if isinstance(request, WildcardSearch):
            outcome = self._wildcard(request)
        elif isinstance(request, ExactSearch):
            outcome = self._exact(
                request.bit_array(), request.verify.resolve(caps.verify)
            )
        else:  # pragma: no cover - future request types
            raise CapabilityError(
                f"engine {self.key!r} does not handle {type(request).__name__}"
            )
        return self._wrap(outcome, time.perf_counter() - start)

    def _wrap(self, outcome: _Outcome, elapsed: float) -> SearchResult:
        return SearchResult(
            matches=tuple(outcome.matches),
            engine=self.key,
            scheme=self.capabilities.scheme,
            hom_ops=outcome.hom_ops,
            elapsed_seconds=elapsed,
            verified=outcome.verified,
            num_variants=outcome.num_variants,
            encrypted_db_bytes=outcome.encrypted_db_bytes,
            shards=tuple(outcome.shards),
            degraded_shards=tuple(outcome.degraded_shards),
        )

    @abc.abstractmethod
    def _exact(self, bits: np.ndarray, verify: bool) -> _Outcome:
        """Run one exact search; ``verify`` is already policy-resolved."""

    def _wildcard(self, request: WildcardSearch) -> _Outcome:
        """Generic wildcard join: one exact sweep per literal segment,
        set intersection on displacement-shifted offsets."""
        pattern = WildcardPattern.from_bits(request.bits, request.mask)
        verify = request.verify.resolve(self.capabilities.verify)
        candidate_sets = []
        tally = HomOpTally()
        verified = verify
        for segment in pattern.segments:
            outcome = self._exact(segment.bit_array(), verify)
            tally = _merge_tallies(tally, outcome.hom_ops)
            verified = verified and outcome.verified
            candidate_sets.append(
                {m - segment.offset_bits for m in outcome.matches}
            )
        common = set.intersection(*candidate_sets)
        db_bits = self.db_bit_length or 0
        matches = sorted(
            p for p in common if 0 <= p and p + pattern.total_bits <= db_bits
        )
        return _Outcome(
            matches=matches,
            hom_ops=tally,
            verified=verified,
            num_variants=pattern.num_segments,
        )

    @staticmethod
    def _batch_queries(request: BatchSearch) -> tuple:
        """Sub-queries with the batch-level verify policy applied: a
        non-AUTO policy on the batch wrapper overrides each sub-request
        (so ``search_batch(qs, verify=False)`` means what it says on
        every engine); AUTO defers to the sub-requests' own policies."""
        if request.verify is VerifyPolicy.AUTO:
            return request.queries
        import dataclasses

        return tuple(
            dataclasses.replace(q, verify=request.verify)
            for q in request.queries
        )

    def _execute_batch(self, request: BatchSearch) -> BatchSearchResult:
        """Default batch path: sequential execution, one result each.
        Engines with a native batch executor override this."""
        start = time.perf_counter()
        results = tuple(self.execute(q) for q in self._batch_queries(request))
        return BatchSearchResult(
            results=results,
            engine=self.key,
            elapsed_seconds=time.perf_counter() - start,
        )


def _merge_tallies(a: HomOpTally, b: HomOpTally) -> HomOpTally:
    return HomOpTally(
        additions=a.additions + b.additions,
        multiplications=a.multiplications + b.multiplications,
        plain_multiplications=a.plain_multiplications + b.plain_multiplications,
        bootstraps=a.bootstraps + b.bootstraps,
    )


def _default_params() -> BFVParams:
    """Functional-scale default for the facade (swap in
    ``BFVParams.paper()`` for paper-scale runs)."""
    return BFVParams.test_small(64)


# ---------------------------------------------------------------------------
# CIPHERMATCH
# ---------------------------------------------------------------------------


class WireEngine(Engine):
    """The byte-boundary two-round protocol
    (:class:`~repro.core.protocol.WireProtocolSession`)."""

    key = "bfv-wire"
    CAPS = Capabilities(scheme="bfv", verify=True, exact_query_bits=31)

    def __init__(
        self,
        params: Optional[BFVParams] = None,
        *,
        key_seed: Optional[int] = None,
        chunk_width: Optional[int] = None,
    ):
        self.session = WireProtocolSession(
            ClientConfig(
                params or _default_params(),
                chunk_width=chunk_width,
                key_seed=key_seed,
            )
        )
        self._db_bits: Optional[int] = None

    def outsource(self, db_bits: np.ndarray) -> None:
        db_bits = np.asarray(db_bits, dtype=np.uint8)
        self.session.outsource(db_bits)
        self._db_bits = len(db_bits)

    @property
    def db_bit_length(self) -> Optional[int]:
        return self._db_bits

    def _exact(self, bits: np.ndarray, verify: bool) -> _Outcome:
        counter = self.session.server.ctx.counter
        adds_before = counter.additions
        matches = self.session.search(bits, verify=verify)
        return _Outcome(
            matches=list(matches),
            hom_ops=HomOpTally(additions=counter.additions - adds_before),
            verified=verify,
            encrypted_db_bytes=self.session.stats.database_upload,
        )


class ShardedEngine(Engine):
    """The production serving layer
    (:class:`~repro.serve.ShardedSearchEngine`) behind the facade."""

    key = "bfv-sharded"
    CAPS = Capabilities(
        scheme="bfv",
        wildcard=True,
        batching=True,
        sharded=True,
        verify=True,
        exact_query_bits=31,
    )

    def __init__(
        self,
        params: Optional[BFVParams] = None,
        *,
        num_shards: int = 4,
        key_seed: Optional[int] = None,
        chunk_width: Optional[int] = None,
        index_mode: IndexMode = IndexMode.CLIENT_DECRYPT,
        cache_capacity: int = 256,
        backend_factory: Optional[Callable] = None,
        client: Optional[CipherMatchClient] = None,
        degraded_mode: str = "fail",
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
        cache=None,
        tenant: str = "",
    ):
        # Imported here: repro.serve sits above repro.core in the layer
        # stack and pulling it at module import would be circular-ish
        # during package init.
        from ..serve import ShardedSearchEngine

        config = None
        if client is None:
            config = ClientConfig(
                params or _default_params(),
                chunk_width=chunk_width,
                index_mode=index_mode,
                key_seed=key_seed,
            )
        self.engine = ShardedSearchEngine(
            config,
            client=client,
            num_shards=num_shards,
            backend_factory=backend_factory,
            cache_capacity=cache_capacity,
            degraded_mode=degraded_mode,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            cache=cache,
            tenant=tenant,
        )
        #: full :class:`~repro.serve.report.ServeReport` of the most
        #: recent batch (wall/modeled latency percentiles, cache stats).
        self.last_serve_report = None

    def outsource(self, db_bits: np.ndarray) -> None:
        self.engine.outsource(np.asarray(db_bits, dtype=np.uint8))

    def close(self) -> None:
        """Close the serving engine."""
        self.engine.close()

    def adopt_database(self, db) -> None:
        """Shard a database this engine's client already encrypted."""
        self.engine.adopt_database(db)

    @property
    def db_bit_length(self) -> Optional[int]:
        return None if self.engine.db is None else self.engine.db.bit_length

    @staticmethod
    def _shard_breakdown(serve) -> tuple:
        """Per-shard work of the batch ``serve`` reports."""
        return tuple(
            ShardBreakdown(
                shard_id=s.shard_id,
                num_polynomials=s.num_polynomials,
                hom_adds=s.hom_adds,
                tasks_executed=s.tasks_executed,
            )
            for s in serve.shards
        )

    def _exact(self, bits: np.ndarray, verify: bool) -> _Outcome:
        serve = self.engine.search_batch([bits], verify=verify)
        self.last_serve_report = serve
        report = serve.reports[0]
        return _Outcome(
            matches=list(report.matches),
            hom_ops=HomOpTally(additions=report.hom_additions),
            verified=verify,
            num_variants=report.num_variants,
            encrypted_db_bytes=report.encrypted_db_bytes,
            shards=self._shard_breakdown(serve),
            degraded_shards=tuple(report.degraded_shards),
        )

    def _execute_batch(self, request: BatchSearch) -> BatchSearchResult:
        """Native batch path: the whole batch goes to the serving
        engine in one deduplicated submission."""
        if self.db_bit_length is None:
            raise RuntimeError("outsource a database first")
        queries = self._batch_queries(request)
        policies = {q.verify for q in queries}
        if len(policies) > 1:
            # Mixed per-query policies cannot share one serve submission;
            # fall back to the sequential path.
            return super()._execute_batch(request)
        verify = policies.pop().resolve(self.capabilities.verify)
        start = time.perf_counter()
        serve = self.engine.search_batch(
            [q.bit_array() for q in queries], verify=verify
        )
        self.last_serve_report = serve
        elapsed = time.perf_counter() - start
        shards = self._shard_breakdown(serve)
        results = tuple(
            SearchResult(
                matches=tuple(r.matches),
                engine=self.key,
                scheme=self.capabilities.scheme,
                hom_ops=HomOpTally(additions=r.hom_additions),
                elapsed_seconds=serve.latencies[i],
                verified=verify,
                num_variants=r.num_variants,
                encrypted_db_bytes=r.encrypted_db_bytes,
                shards=shards,
                degraded_shards=tuple(r.degraded_shards),
            )
            for i, r in enumerate(serve.reports)
        )
        return BatchSearchResult(
            results=results,
            engine=self.key,
            elapsed_seconds=elapsed,
            deduplicated_hits=serve.deduplicated_hits,
        )


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def _counted(matcher, db, *query) -> _Outcome:
    """``matcher.search(db, *query)`` on a BFV baseline, tallied from the
    operations it made on ``matcher.ctx.counter`` (a plaintext addition
    has no tally slot)."""
    counter = matcher.ctx.counter
    add0, mult0, pmult0 = (
        counter.additions,
        counter.multiplications,
        counter.plain_multiplications,
    )
    matches = matcher.search(db, *query)
    return _Outcome(
        matches=list(matches),
        hom_ops=HomOpTally(
            additions=counter.additions - add0,
            multiplications=counter.multiplications - mult0,
            plain_multiplications=counter.plain_multiplications - pmult0,
        ),
        encrypted_db_bytes=db.serialized_bytes,
    )


class PlaintextEngine(Engine):
    """The unencrypted oracle, addressable like any other engine."""

    key = "plaintext"
    CAPS = Capabilities(
        scheme="none", wildcard=True, batching=True, verify=True
    )

    def __init__(self):
        self._db: Optional[np.ndarray] = None

    def outsource(self, db_bits: np.ndarray) -> None:
        self._db = np.asarray(db_bits, dtype=np.uint8).copy()

    @property
    def db_bit_length(self) -> Optional[int]:
        return None if self._db is None else len(self._db)

    def _exact(self, bits: np.ndarray, verify: bool) -> _Outcome:
        return _Outcome(
            matches=find_all_matches(self._db, bits), verified=True
        )


class TfheBooleanEngine(Engine):
    """Per-bit XNOR/AND Boolean baseline over real bootstrapped TFHE
    gates (:class:`~repro.baselines.TfheBooleanMatcher`)."""

    key = "boolean-tfhe"
    CAPS = Capabilities(
        scheme="tfhe",
        practical_query_bits=4,
        practical_db_bits=24,
    )

    def __init__(
        self, params: Optional[TFHEParams] = None, *, seed: Optional[int] = None
    ):
        self.matcher = TfheBooleanMatcher(params or TFHEParams.test_tiny(), seed)
        self._db = None
        self._db_bits: Optional[int] = None

    def outsource(self, db_bits: np.ndarray) -> None:
        db_bits = np.asarray(db_bits, dtype=np.uint8)
        self._db = self.matcher.encrypt_database(db_bits)
        self._db_bits = len(db_bits)

    @property
    def db_bit_length(self) -> Optional[int]:
        return self._db_bits

    def _exact(self, bits: np.ndarray, verify: bool) -> _Outcome:
        ctx = self.matcher.ctx
        boots0 = ctx.bootstrap_count
        matches = self.matcher.search(self._db, bits)
        return _Outcome(
            matches=list(matches),
            hom_ops=HomOpTally(bootstraps=ctx.bootstrap_count - boots0),
            encrypted_db_bytes=self._db.serialized_bytes,
        )


class YasudaEngine(Engine):
    """Arithmetic baseline [27]: packed Hamming-distance correlation
    (:class:`~repro.baselines.YasudaMatcher`)."""

    key = "yasuda"
    CAPS = Capabilities(
        scheme="bfv-arith",
        max_query_bits=32,
        practical_db_bits=512,
    )

    def __init__(
        self,
        params: Optional[BFVParams] = None,
        *,
        max_query_bits: int = 32,
        seed: Optional[int] = None,
    ):
        params = params or BFVParams.arithmetic_baseline(n=128, t=512)
        self.matcher = YasudaMatcher(
            params,
            max_query_bits=max_query_bits,
            seed=seed,
        )
        self.sk, self.pk, self.rlk = generate_keys(params, seed, relin=True)
        self._db = None
        self._db_bits: Optional[int] = None

    @property
    def capabilities(self) -> Capabilities:
        return replace(self.CAPS, max_query_bits=self.matcher.max_query_bits)

    def outsource(self, db_bits: np.ndarray) -> None:
        db_bits = np.asarray(db_bits, dtype=np.uint8)
        self._db = self.matcher.encrypt_database(db_bits, self.pk)
        self._db_bits = len(db_bits)

    @property
    def db_bit_length(self) -> Optional[int]:
        return self._db_bits

    def _exact(self, bits: np.ndarray, verify: bool) -> _Outcome:
        return _counted(self.matcher, self._db, bits, self.pk, self.sk, self.rlk)


class KimHomEQEngine(Engine):
    """Kim et al. [34] HomEQ equality-circuit baseline, with database
    bits embedded as ``F_t`` characters."""

    key = "kim-homeq"
    CAPS = Capabilities(
        scheme="bfv-arith",
        max_query_bits=4,  # query length must stay below t = 5
        practical_db_bits=24,
    )

    def __init__(
        self,
        params: Optional[BFVParams] = None,
        *,
        seed: Optional[int] = None,
    ):
        self.matcher = KimHomEQMatcher(params, seed)
        self._db = None
        self._db_bits: Optional[int] = None

    @property
    def capabilities(self) -> Capabilities:
        return replace(self.CAPS, max_query_bits=self.matcher.params.t - 1)

    def outsource(self, db_bits: np.ndarray) -> None:
        db_bits = np.asarray(db_bits, dtype=np.uint8)
        self._db = self.matcher.encrypt_database([int(b) for b in db_bits])
        self._db_bits = len(db_bits)

    @property
    def db_bit_length(self) -> Optional[int]:
        return self._db_bits

    def _exact(self, bits: np.ndarray, verify: bool) -> _Outcome:
        return _counted(self.matcher, self._db, [int(b) for b in bits])


class BonteEngine(Engine):
    """Bonte & Iliashenko [29] constant-depth batched window equality.

    The construction windows the database at the *query* length, so the
    adapter keeps the plaintext bits and lazily encrypts one windowed
    database per distinct query size (cached).
    """

    key = "bonte"
    CAPS = Capabilities(
        scheme="bfv-arith",
        max_query_bits=4,  # window value must fit one F_17 slot
        practical_db_bits=32,
    )

    def __init__(
        self,
        params: Optional[BFVParams] = None,
        *,
        seed: Optional[int] = None,
    ):
        self.matcher = BonteMatcher(params, seed)
        self._db_plain: Optional[np.ndarray] = None
        self._windowed: dict[int, object] = {}

    @property
    def capabilities(self) -> Capabilities:
        return replace(self.CAPS, max_query_bits=self.matcher.max_window_bits)

    def outsource(self, db_bits: np.ndarray) -> None:
        self._db_plain = np.asarray(db_bits, dtype=np.uint8).copy()
        self._windowed.clear()

    @property
    def db_bit_length(self) -> Optional[int]:
        return None if self._db_plain is None else len(self._db_plain)

    def _exact(self, bits: np.ndarray, verify: bool) -> _Outcome:
        window = len(bits)
        if window not in self._windowed:
            self._windowed[window] = self.matcher.encrypt_database(
                self._db_plain, window_bits=window
            )
        db = self._windowed[window]
        return _counted(self.matcher, db, bits)
