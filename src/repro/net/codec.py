"""Payload encodings for every CMN1 frame type.

Requests and results cross the wire in a compact binary layout built
from the same primitives as :mod:`repro.he.serialize` (little-endian
fixed-width integers, length-prefixed sequences):

* bit payloads travel packed 8-to-a-byte (``np.packbits``) behind a
  32-bit bit count, so a 32-bit query costs 8 payload bytes, not 32;
* strings are UTF-8 behind a 16-bit byte count;
* a :class:`~repro.api.requests.SearchResult` serializes every field
  the facade contract defines — matches, engine/scheme, the
  :class:`~repro.api.requests.HomOpTally`, timing, verification flag
  and the per-shard breakdown — so a remote caller sees exactly what an
  in-process caller sees.

The verify policy crosses as one byte (``AUTO``/``VERIFY``/``SKIP``)
and deadlines as an IEEE double of *relative* seconds (negative means
"no deadline"); the server re-anchors them against its own clock, so
client/server clock skew never misorders the shedding policy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..api.requests import (
    BatchSearch,
    BatchSearchResult,
    ExactSearch,
    HomOpTally,
    SearchRequest,
    SearchResult,
    ShardBreakdown,
    WildcardSearch,
)
from ..verify import VerifyPolicy
from .framing import FrameType, FramingError

#: wire byte <-> VerifyPolicy
_POLICY_TO_BYTE = {
    VerifyPolicy.AUTO: 0,
    VerifyPolicy.VERIFY: 1,
    VerifyPolicy.SKIP: 2,
}
_BYTE_TO_POLICY = {v: k for k, v in _POLICY_TO_BYTE.items()}

#: request-scoped error codes carried by ERROR frames
ERR_REMOTE = 1        # server-side execution failure
ERR_CAPABILITY = 2    # engine cannot serve the request
ERR_SHED = 3          # dropped by admission control (backpressure)
ERR_DRAINING = 4      # service is draining; no new work accepted
ERR_BAD_FRAME = 5     # request payload failed to decode
ERR_ADMIT = 6         # fail-fast reject by the adaptive admission target
ERR_TENANT = 7        # HELLO named a tenant the service does not serve
ERR_VERSION = 8       # HELLO named a protocol version the service does not speak


class RemoteError(RuntimeError):
    """A request failed on the server; carries the remote message."""


class RequestShedError(RemoteError):
    """Admission control dropped the request (bounded in-flight queue)."""


class AdmissionRejectedError(RemoteError):
    """The adaptive admission controller rejected the request before it
    entered the queue (its class is over the AIMD admission target)."""


class ServiceDrainingError(RemoteError):
    """The service is draining and accepts no new requests."""


class TenantRejectedError(RemoteError):
    """The service rejected the tenant id the connection's HELLO named
    (no such tenant is registered)."""


class ProtocolVersionError(RemoteError):
    """The service speaks a different CMN1 protocol version than the
    connection's HELLO; it answers ``ERR_VERSION`` and closes."""


class ConnectionLostError(ConnectionError):
    """The connection died and bounded resends were exhausted — the
    request's fate on the server is unknown."""


class RequestTimeoutError(TimeoutError):
    """A client-side per-request timeout expired before a response."""


def error_to_exception(code: int, message: str) -> Exception:
    from ..api.capabilities import CapabilityError

    if code == ERR_CAPABILITY:
        return CapabilityError(message)
    if code == ERR_SHED:
        return RequestShedError(message)
    if code == ERR_ADMIT:
        return AdmissionRejectedError(message)
    if code == ERR_DRAINING:
        return ServiceDrainingError(message)
    if code == ERR_TENANT:
        return TenantRejectedError(message)
    if code == ERR_VERSION:
        return ProtocolVersionError(message)
    return RemoteError(message)


# -- little-endian composition helpers ---------------------------------------


class _Writer:
    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, v: int) -> "_Writer":
        self._buf += struct.pack("<B", v)
        return self

    def u16(self, v: int) -> "_Writer":
        self._buf += struct.pack("<H", v)
        return self

    def u32(self, v: int) -> "_Writer":
        self._buf += struct.pack("<I", v)
        return self

    def u64(self, v: int) -> "_Writer":
        self._buf += struct.pack("<Q", v)
        return self

    def i64(self, v: int) -> "_Writer":
        self._buf += struct.pack("<q", v)
        return self

    def f64(self, v: float) -> "_Writer":
        self._buf += struct.pack("<d", v)
        return self

    def text(self, s: str) -> "_Writer":
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FramingError("string field exceeds 65535 bytes")
        return self.u16(len(raw)).raw(raw)

    def blob(self, b: bytes) -> "_Writer":
        return self.u32(len(b)).raw(b)

    def raw(self, b: bytes) -> "_Writer":
        self._buf += b
        return self

    def bits(self, bits) -> "_Writer":
        arr = np.asarray(bits, dtype=np.uint8).ravel()
        return self.u32(arr.size).raw(np.packbits(arr).tobytes())

    def bytes(self) -> bytes:
        return bytes(self._buf)


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FramingError(f"text field is not valid UTF-8: {exc}") from None


class _Reader:
    def __init__(self, payload: bytes):
        self._buf = payload
        self._off = 0

    def _take(self, fmt: str):
        s = struct.Struct(fmt)
        if self._off + s.size > len(self._buf):
            raise FramingError("truncated payload field")
        (value,) = s.unpack_from(self._buf, self._off)
        self._off += s.size
        return value

    def u8(self) -> int:
        return self._take("<B")

    def u16(self) -> int:
        return self._take("<H")

    def u32(self) -> int:
        return self._take("<I")

    def u64(self) -> int:
        return self._take("<Q")

    def i64(self) -> int:
        return self._take("<q")

    def f64(self) -> float:
        return self._take("<d")

    def raw(self, count: int) -> bytes:
        if self._off + count > len(self._buf):
            raise FramingError("truncated payload field")
        out = self._buf[self._off : self._off + count]
        self._off += count
        return out

    def text(self) -> str:
        return _utf8(self.raw(self.u16()))

    def blob(self) -> bytes:
        return self.raw(self.u32())

    def bits(self) -> np.ndarray:
        count = self.u32()
        packed = np.frombuffer(self.raw((count + 7) // 8), dtype=np.uint8)
        return np.unpackbits(packed, count=count).astype(np.uint8)

    def done(self) -> None:
        if self._off != len(self._buf):
            raise FramingError(
                f"{len(self._buf) - self._off} trailing payload bytes"
            )


def _policy_byte(policy: VerifyPolicy) -> int:
    return _POLICY_TO_BYTE[VerifyPolicy.coerce(policy)]


def _policy(byte: int) -> VerifyPolicy:
    try:
        return _BYTE_TO_POLICY[byte]
    except KeyError:
        raise FramingError(f"unknown verify policy byte {byte}") from None


def _deadline_f64(deadline: Optional[float]) -> float:
    return -1.0 if deadline is None else float(deadline)


def _deadline(value: float) -> Optional[float]:
    return None if value < 0 else value


# -- handshake ----------------------------------------------------------------


@dataclass(frozen=True)
class Welcome:
    """Server identity + declared capabilities (WELCOME payload)."""

    protocol_version: int
    engine: str
    scheme: str
    wildcard: bool
    batching: bool
    sharded: bool
    verify: bool
    max_query_bits: Optional[int]
    db_bit_length: Optional[int]
    #: tenant the connection was bound to ("" = single-tenant service)
    tenant: str = ""


def encode_welcome(w: Welcome) -> bytes:
    flags = (
        (1 if w.wildcard else 0)
        | (2 if w.batching else 0)
        | (4 if w.sharded else 0)
        | (8 if w.verify else 0)
    )
    return (
        _Writer()
        .u16(w.protocol_version)
        .text(w.engine)
        .text(w.scheme)
        .u8(flags)
        .i64(-1 if w.max_query_bits is None else w.max_query_bits)
        .i64(-1 if w.db_bit_length is None else w.db_bit_length)
        .text(w.tenant)
        .bytes()
    )


def decode_welcome(payload: bytes) -> Welcome:
    r = _Reader(payload)
    version = r.u16()
    engine, scheme = r.text(), r.text()
    flags = r.u8()
    max_bits, db_bits = r.i64(), r.i64()
    tenant = r.text()
    r.done()
    return Welcome(
        protocol_version=version,
        engine=engine,
        scheme=scheme,
        wildcard=bool(flags & 1),
        batching=bool(flags & 2),
        sharded=bool(flags & 4),
        verify=bool(flags & 8),
        max_query_bits=None if max_bits < 0 else max_bits,
        db_bit_length=None if db_bits < 0 else db_bits,
        tenant=tenant,
    )


#: the largest HELLO payload: a u16 version and a u16-prefixed tenant.
#: A connection's first frame is read under this bound, so a peer that
#: has not said HELLO cannot make the service allocate more.
MAX_HELLO_BYTES = 2 + 2 + 0xFFFF


def encode_hello(protocol_version: int, tenant: str = "") -> bytes:
    return _Writer().u16(protocol_version).text(tenant).bytes()


def decode_hello(payload: bytes) -> Tuple[int, str]:
    """Returns ``(protocol_version, tenant)``."""
    r = _Reader(payload)
    version, tenant = r.u16(), r.text()
    r.done()
    return version, tenant


# -- database outsourcing -----------------------------------------------------


def encode_outsource(db_bits) -> bytes:
    return _Writer().bits(db_bits).bytes()


def decode_outsource(payload: bytes) -> np.ndarray:
    r = _Reader(payload)
    bits = r.bits()
    r.done()
    return bits


def encode_outsource_ok(db_bit_length: int) -> bytes:
    return _Writer().u64(db_bit_length).bytes()


def decode_outsource_ok(payload: bytes) -> int:
    r = _Reader(payload)
    bit_length = r.u64()
    r.done()
    return bit_length


# -- requests -----------------------------------------------------------------


def encode_request(
    request: SearchRequest, deadline: Optional[float] = None
) -> Tuple[FrameType, bytes]:
    """Serialize one facade request; returns (frame type, payload).

    ``deadline`` is a relative latency budget in seconds; the server
    uses it for oldest-deadline shedding under backpressure.  A request
    bills to the tenant its connection's HELLO named.
    """
    if not isinstance(request, (ExactSearch, WildcardSearch, BatchSearch)):
        raise FramingError(
            f"cannot encode request type {type(request).__name__}"
        )
    w = _Writer().u8(_policy_byte(request.verify))
    w.f64(_deadline_f64(deadline))
    if isinstance(request, ExactSearch):
        return FrameType.SEARCH, w.bits(request.bits).bytes()
    if isinstance(request, WildcardSearch):
        return FrameType.WILDCARD, w.bits(request.bits).bits(request.mask).bytes()
    w.u32(request.num_queries)
    for query in request.queries:
        w.u8(_policy_byte(query.verify)).bits(query.bits)
    return FrameType.BATCH, w.bytes()


def _request(make, *args, **kwargs):
    """Build a request object from decoded fields: a value the request
    type rejects (empty query, empty batch, mismatched mask) is a
    malformed frame."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise FramingError(f"invalid request: {exc}") from None


def decode_request(
    ftype: FrameType, payload: bytes
) -> Tuple[SearchRequest, Optional[float]]:
    """Inverse of :func:`encode_request`; returns ``(request,
    deadline)``.  Raises :class:`FramingError` for any payload that does
    not decode to a valid request."""
    r = _Reader(payload)
    policy = _policy(r.u8())
    deadline = _deadline(r.f64())
    if ftype is FrameType.SEARCH:
        request: SearchRequest = _request(
            ExactSearch.from_bits, r.bits(), verify=policy
        )
    elif ftype is FrameType.WILDCARD:
        bits = r.bits()
        request = _request(
            WildcardSearch,
            tuple(int(b) for b in bits),
            tuple(int(m) for m in r.bits()),
            verify=policy,
        )
    elif ftype is FrameType.BATCH:
        count = r.u32()
        queries = []
        for _ in range(count):
            sub_policy = _policy(r.u8())  # written before the bits
            queries.append(
                _request(ExactSearch.from_bits, r.bits(), verify=sub_policy)
            )
        request = _request(BatchSearch, tuple(queries), verify=policy)
    else:
        raise FramingError(f"frame type {ftype.name} is not a request")
    r.done()
    return request, deadline


# -- results ------------------------------------------------------------------


def _write_result(w: _Writer, result: SearchResult) -> None:
    w.u32(len(result.matches))
    for offset in result.matches:
        w.u64(offset)
    w.text(result.engine).text(result.scheme)
    tally = result.hom_ops
    for field in (
        tally.additions,
        tally.multiplications,
        tally.plain_multiplications,
        tally.bootstraps,
    ):
        w.u64(field)
    w.f64(result.elapsed_seconds).u8(1 if result.verified else 0)
    w.u32(result.num_variants).u64(result.encrypted_db_bytes)
    w.u16(len(result.shards))
    for shard in result.shards:
        w.u32(shard.shard_id).u32(shard.num_polynomials)
        w.u64(shard.hom_adds).u32(shard.tasks_executed)
    w.u16(len(result.degraded_shards))
    for shard_id in result.degraded_shards:
        w.u32(shard_id)


def _read_result(r: _Reader) -> SearchResult:
    matches = tuple(r.u64() for _ in range(r.u32()))
    engine, scheme = r.text(), r.text()
    tally = HomOpTally(
        additions=r.u64(),
        multiplications=r.u64(),
        plain_multiplications=r.u64(),
        bootstraps=r.u64(),
    )
    elapsed = r.f64()
    verified = bool(r.u8())
    num_variants = r.u32()
    encrypted_db_bytes = r.u64()
    shards = tuple(
        ShardBreakdown(
            shard_id=r.u32(),
            num_polynomials=r.u32(),
            hom_adds=r.u64(),
            tasks_executed=r.u32(),
        )
        for _ in range(r.u16())
    )
    degraded = tuple(r.u32() for _ in range(r.u16()))
    return SearchResult(
        matches=matches,
        engine=engine,
        scheme=scheme,
        hom_ops=tally,
        elapsed_seconds=elapsed,
        verified=verified,
        num_variants=num_variants,
        encrypted_db_bytes=encrypted_db_bytes,
        shards=shards,
        degraded_shards=degraded,
    )


def encode_result(result: SearchResult) -> bytes:
    w = _Writer()
    _write_result(w, result)
    return w.bytes()


def decode_result(payload: bytes) -> SearchResult:
    r = _Reader(payload)
    result = _read_result(r)
    r.done()
    return result


def encode_batch_result(batch: BatchSearchResult) -> bytes:
    w = _Writer().text(batch.engine).f64(batch.elapsed_seconds)
    w.u32(batch.deduplicated_hits).u32(len(batch.results))
    for result in batch.results:
        _write_result(w, result)
    return w.bytes()


def decode_batch_result(payload: bytes) -> BatchSearchResult:
    r = _Reader(payload)
    engine = r.text()
    elapsed = r.f64()
    dedup = r.u32()
    results = tuple(_read_result(r) for _ in range(r.u32()))
    r.done()
    return BatchSearchResult(
        results=results,
        engine=engine,
        elapsed_seconds=elapsed,
        deduplicated_hits=dedup,
    )


def encode_search_outcome(
    outcome: Union[SearchResult, BatchSearchResult],
) -> Tuple[FrameType, bytes]:
    if isinstance(outcome, BatchSearchResult):
        return FrameType.BATCH_RESULT, encode_batch_result(outcome)
    return FrameType.RESULT, encode_result(outcome)


# -- errors -------------------------------------------------------------------


def encode_error(code: int, message: str) -> bytes:
    # error text can exceed the u16 string bound (tracebacks); clamp
    return _Writer().u8(code).text(message[:2000]).bytes()


def decode_error(payload: bytes) -> Tuple[int, str]:
    r = _Reader(payload)
    code, message = r.u8(), r.text()
    r.done()
    return code, message


# -- service statistics -------------------------------------------------------


@dataclass(frozen=True)
class ServiceStats:
    """Operational snapshot the STATS frame serializes.

    Combines the network front end's admission counters with the
    backing engine's most recent :class:`~repro.serve.report.ServeReport`
    (percentiles are 0.0 when no batch has been served yet — the empty
    latency sample renders, it does not raise).
    """

    active_connections: int
    total_connections: int
    accepted: int
    completed: int
    shed: int
    failed: int
    draining: bool
    served_queries: int
    wall_p50: float
    wall_p95: float
    wall_p99: float
    throughput_qps: float
    cache_hit_rate: float
    #: rendered ServeReport.summary_table() of the last batch ("" if none)
    report_text: str
    #: machine-readable ServeReport.to_json() of the last batch ("" if
    #: none) — the artifact surface bench_load and dashboards parse
    report_json: str = ""
    #: fail-fast rejects by the adaptive admission controller (ERR_ADMIT)
    admit_rejected: int = 0
    #: shards currently degraded (circuit breaker not closed)
    degraded_shards: int = 0
    #: JSON object of per-tenant accounting rows keyed by tenant id
    #: ("" when the service is single-tenant) — counters, p50/p99,
    #: cache residency, pressure evictions, fair-share dispatch counts
    tenants_json: str = ""


def encode_stats(stats: ServiceStats) -> bytes:
    w = _Writer()
    w.u32(stats.active_connections).u64(stats.total_connections)
    w.u64(stats.accepted).u64(stats.completed)
    w.u64(stats.shed).u64(stats.failed)
    w.u8(1 if stats.draining else 0).u64(stats.served_queries)
    w.f64(stats.wall_p50).f64(stats.wall_p95).f64(stats.wall_p99)
    w.f64(stats.throughput_qps).f64(stats.cache_hit_rate)
    w.u64(stats.admit_rejected).u64(stats.degraded_shards)
    w.blob(stats.report_text.encode("utf-8"))
    w.blob(stats.report_json.encode("utf-8"))
    w.blob(stats.tenants_json.encode("utf-8"))
    return w.bytes()


def decode_stats(payload: bytes) -> ServiceStats:
    r = _Reader(payload)
    stats = ServiceStats(
        active_connections=r.u32(),
        total_connections=r.u64(),
        accepted=r.u64(),
        completed=r.u64(),
        shed=r.u64(),
        failed=r.u64(),
        draining=bool(r.u8()),
        served_queries=r.u64(),
        wall_p50=r.f64(),
        wall_p95=r.f64(),
        wall_p99=r.f64(),
        throughput_qps=r.f64(),
        cache_hit_rate=r.f64(),
        admit_rejected=r.u64(),
        degraded_shards=r.u64(),
        report_text=_utf8(r.blob()),
        report_json=_utf8(r.blob()),
        tenants_json=_utf8(r.blob()),
    )
    r.done()
    return stats


#: results a response frame can carry, by type
__all__: List[str] = [
    "ERR_ADMIT",
    "ERR_BAD_FRAME",
    "ERR_CAPABILITY",
    "ERR_DRAINING",
    "ERR_REMOTE",
    "ERR_SHED",
    "ERR_TENANT",
    "ERR_VERSION",
    "MAX_HELLO_BYTES",
    "AdmissionRejectedError",
    "ConnectionLostError",
    "ProtocolVersionError",
    "RemoteError",
    "RequestShedError",
    "RequestTimeoutError",
    "ServiceDrainingError",
    "ServiceStats",
    "TenantRejectedError",
    "Welcome",
    "decode_batch_result",
    "decode_error",
    "decode_hello",
    "decode_outsource",
    "decode_outsource_ok",
    "decode_request",
    "decode_result",
    "decode_stats",
    "decode_welcome",
    "encode_batch_result",
    "encode_error",
    "encode_hello",
    "encode_outsource",
    "encode_outsource_ok",
    "encode_request",
    "encode_result",
    "encode_search_outcome",
    "encode_stats",
    "encode_welcome",
    "error_to_exception",
]
