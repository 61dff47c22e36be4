"""Framing + payload codec round-trips for the CMN1 wire protocol.

Property tests sweep frame sizes from empty through >64 KiB (the
serialized-ciphertext regime: one n=8192, q=2**32 ciphertext is 64 KiB
of coefficients before the header), both through the in-memory codec
and through a real socket pair with the sync reader.
"""

import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.requests import (
    BatchSearch,
    BatchSearchResult,
    ExactSearch,
    HomOpTally,
    SearchResult,
    ShardBreakdown,
    WildcardSearch,
)
from repro.net import codec
from repro.net.framing import (
    HEADER_BYTES,
    Frame,
    FrameType,
    FramingError,
    decode_header,
    encode_frame,
    read_frame_sync,
    write_frame_sync,
)
from repro.verify import VerifyPolicy

# -- frame layer -------------------------------------------------------------


def decode_frame(blob: bytes) -> Frame:
    """One complete frame from an in-memory buffer, through the header
    parser the readers use."""
    ftype, request_id, length = decode_header(blob[:HEADER_BYTES])
    assert len(blob) == HEADER_BYTES + length
    return Frame(ftype, request_id, blob[HEADER_BYTES:])


@settings(max_examples=30, deadline=None)
@given(
    ftype=st.sampled_from(list(FrameType)),
    request_id=st.integers(min_value=0, max_value=2**64 - 1),
    payload=st.binary(max_size=512),
)
def test_frame_roundtrip_small(ftype, request_id, payload):
    frame = Frame(ftype, request_id, payload)
    assert decode_frame(encode_frame(frame)) == frame


@settings(max_examples=8, deadline=None)
@given(
    size=st.one_of(
        st.integers(min_value=0, max_value=256),
        # the ciphertext regime: beyond one 64 KiB socket buffer
        st.integers(min_value=(1 << 16) + 1, max_value=(1 << 16) + 100_000),
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_frame_roundtrip_over_socket(size, seed):
    """Exact-length reads survive payloads larger than one recv."""
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    frame = Frame(FrameType.RESULT, seed, payload)
    a, b = socket.socketpair()
    try:
        writer = threading.Thread(target=write_frame_sync, args=(a, frame))
        writer.start()
        got = read_frame_sync(b)
        writer.join()
        assert got == frame
    finally:
        a.close()
        b.close()


def test_frame_carries_serialized_ciphertext_over_64k():
    """A real he/serialize ciphertext blob >64 KiB rides one frame."""
    from repro.he import BFVContext, BFVParams, KeyGenerator
    from repro.he.serialize import deserialize_ciphertext, serialize_ciphertext

    params = BFVParams(n=8192, q=1 << 32, t=1 << 16, name="frame-64k")
    ctx = BFVContext(params, seed=3)
    keygen = KeyGenerator(params, seed=3)
    sk = keygen.secret_key()
    pk = keygen.public_key(sk)
    ct = ctx.encrypt(ctx.plaintext(np.arange(params.n) % params.t), pk)
    blob = serialize_ciphertext(ct)
    assert len(blob) > 1 << 16

    frame = decode_frame(encode_frame(Frame(FrameType.RESULT, 1, blob)))
    restored = deserialize_ciphertext(frame.payload, ctx)
    assert ctx.decrypt(restored, sk).poly.coeffs.tolist() == (
        ctx.decrypt(ct, sk).poly.coeffs.tolist()
    )


def test_clean_eof_returns_none():
    a, b = socket.socketpair()
    a.close()
    assert read_frame_sync(b) is None
    b.close()


def test_bad_magic_raises():
    blob = b"XXXX" + encode_frame(Frame(FrameType.PING, 0))[4:]
    with pytest.raises(FramingError, match="magic"):
        decode_header(blob[:HEADER_BYTES])


def test_truncated_payload_raises():
    blob = encode_frame(Frame(FrameType.RESULT, 9, b"abcdef"))
    a, b = socket.socketpair()
    try:
        a.sendall(blob[: HEADER_BYTES + 3])
        a.close()
        with pytest.raises(ConnectionError, match="3 of 6 bytes unread"):
            read_frame_sync(b)
    finally:
        b.close()


def test_unknown_frame_type_raises():
    blob = bytearray(encode_frame(Frame(FrameType.PING, 0)))
    blob[4] = 250
    with pytest.raises(FramingError, match="unknown frame type"):
        decode_header(bytes(blob[:HEADER_BYTES]))


def test_oversized_length_prefix_rejected():
    header = struct.pack("<4sBQI", b"CMN1", 1, 0, (1 << 30) + 1)
    with pytest.raises(FramingError, match="exceeds bound"):
        decode_header(header)
    # the bound a service reads a connection's first frame under
    header = struct.pack("<4sBQI", b"CMN1", 1, 0, codec.MAX_HELLO_BYTES + 1)
    assert decode_header(header)[2] == codec.MAX_HELLO_BYTES + 1
    with pytest.raises(FramingError, match="exceeds bound"):
        decode_header(header, codec.MAX_HELLO_BYTES)


# -- request payloads --------------------------------------------------------

_POLICIES = st.sampled_from(list(VerifyPolicy))
_BITS = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=96)


@settings(max_examples=50, deadline=None)
@given(bits=_BITS, policy=_POLICIES,
       deadline_s=st.one_of(st.none(), st.floats(0, 60)))
def test_exact_request_roundtrip(bits, policy, deadline_s):
    request = ExactSearch.from_bits(bits, verify=policy)
    ftype, payload = codec.encode_request(request, deadline_s)
    assert ftype is FrameType.SEARCH
    assert codec.decode_request(ftype, payload) == (request, deadline_s)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), policy=_POLICIES)
def test_wildcard_request_roundtrip(data, policy):
    size = data.draw(st.integers(min_value=1, max_value=64))
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=size, max_size=size)
    )
    mask = data.draw(
        st.lists(st.integers(0, 1), min_size=size, max_size=size).filter(any)
    )
    request = WildcardSearch(tuple(bits), tuple(mask), verify=policy)
    ftype, payload = codec.encode_request(request, None)
    assert ftype is FrameType.WILDCARD
    assert codec.decode_request(ftype, payload) == (request, None)


@settings(max_examples=30, deadline=None)
@given(
    queries=st.lists(_BITS, min_size=1, max_size=6),
    policies=st.lists(_POLICIES, min_size=6, max_size=6),
    batch_policy=_POLICIES,
)
def test_batch_request_roundtrip(queries, policies, batch_policy):
    request = BatchSearch(
        tuple(
            ExactSearch.from_bits(bits, verify=policy)
            for bits, policy in zip(queries, policies)
        ),
        verify=batch_policy,
    )
    ftype, payload = codec.encode_request(request, 2.5)
    assert ftype is FrameType.BATCH
    assert codec.decode_request(ftype, payload) == (request, 2.5)


# -- result payloads ---------------------------------------------------------

_RESULTS = st.builds(
    SearchResult,
    matches=st.lists(
        st.integers(min_value=0, max_value=2**40), max_size=16
    ).map(tuple),
    engine=st.sampled_from(["bfv", "bfv-sharded", "remote", "plaintext"]),
    scheme=st.sampled_from(["bfv", "none", "tfhe"]),
    hom_ops=st.builds(
        HomOpTally,
        additions=st.integers(0, 2**32),
        multiplications=st.integers(0, 1000),
        plain_multiplications=st.integers(0, 1000),
        bootstraps=st.integers(0, 1000),
    ),
    elapsed_seconds=st.floats(0, 1e6),
    verified=st.booleans(),
    num_variants=st.integers(0, 64),
    encrypted_db_bytes=st.integers(0, 2**48),
    shards=st.lists(
        st.builds(
            ShardBreakdown,
            shard_id=st.integers(0, 64),
            num_polynomials=st.integers(0, 2**20),
            hom_adds=st.integers(0, 2**40),
            tasks_executed=st.integers(0, 2**20),
        ),
        max_size=4,
    ).map(tuple),
)


@settings(max_examples=50, deadline=None)
@given(result=_RESULTS)
def test_result_roundtrip(result):
    assert codec.decode_result(codec.encode_result(result)) == result


@settings(max_examples=20, deadline=None)
@given(
    results=st.lists(_RESULTS, min_size=1, max_size=5),
    elapsed=st.floats(0, 1e4),
    dedup=st.integers(0, 100),
)
def test_batch_result_roundtrip(results, elapsed, dedup):
    batch = BatchSearchResult(
        results=tuple(results),
        engine="remote",
        elapsed_seconds=elapsed,
        deduplicated_hits=dedup,
    )
    assert codec.decode_batch_result(codec.encode_batch_result(batch)) == batch


# -- handshake / stats / error payloads --------------------------------------


def test_welcome_roundtrip():
    welcome = codec.Welcome(
        protocol_version=3,
        engine="bfv-sharded",
        scheme="bfv",
        wildcard=True,
        batching=True,
        sharded=False,
        verify=True,
        max_query_bits=None,
        db_bit_length=4096,
        tenant="alice",
    )
    assert codec.decode_welcome(codec.encode_welcome(welcome)) == welcome
    capped = codec.Welcome(
        protocol_version=3, engine="bonte", scheme="bfv-arith",
        wildcard=False, batching=False, sharded=False, verify=False,
        max_query_bits=4, db_bit_length=None,
    )
    assert codec.decode_welcome(codec.encode_welcome(capped)) == capped


def test_outsource_roundtrip():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, 777).astype(np.uint8)
    assert np.array_equal(
        codec.decode_outsource(codec.encode_outsource(bits)), bits
    )
    assert codec.decode_outsource_ok(codec.encode_outsource_ok(777)) == 777


def test_error_roundtrip_and_exception_mapping():
    from repro.api.capabilities import CapabilityError

    payload = codec.encode_error(codec.ERR_CAPABILITY, "no wildcard path")
    code, message = codec.decode_error(payload)
    assert (code, message) == (codec.ERR_CAPABILITY, "no wildcard path")
    assert isinstance(
        codec.error_to_exception(code, message), CapabilityError
    )
    assert isinstance(
        codec.error_to_exception(codec.ERR_SHED, "x"), codec.RequestShedError
    )
    assert isinstance(
        codec.error_to_exception(codec.ERR_DRAINING, "x"),
        codec.ServiceDrainingError,
    )
    assert isinstance(
        codec.error_to_exception(codec.ERR_REMOTE, "x"), codec.RemoteError
    )


def _stats() -> codec.ServiceStats:
    return codec.ServiceStats(
        active_connections=3,
        total_connections=11,
        accepted=100,
        completed=95,
        shed=4,
        failed=1,
        draining=True,
        served_queries=95,
        wall_p50=0.011,
        wall_p95=0.045,
        wall_p99=0.101,
        throughput_qps=812.5,
        cache_hit_rate=0.75,
        report_text="== serving batch report ==\n...",
        report_json='{"version": 1, "num_shards": 4}',
        admit_rejected=6,
        degraded_shards=1,
        tenants_json='{"alice": {"completed": 40}}',
    )


def test_stats_roundtrip():
    stats = _stats()
    assert codec.decode_stats(codec.encode_stats(stats)) == stats


def test_stats_frame_v3_layout_is_byte_exact():
    """The CMN1 v3 STATS payload, field by field: the counters, the
    latency and rate figures, then the three UTF-8 blobs.  No reserved
    slot sits between them."""
    s = _stats()

    def blob(raw: str) -> bytes:
        return struct.pack("<I", len(raw.encode())) + raw.encode()

    layout = (
        struct.pack(
            "<IQQQQQBQdddddQQ",
            s.active_connections, s.total_connections, s.accepted,
            s.completed, s.shed, s.failed, s.draining, s.served_queries,
            s.wall_p50, s.wall_p95, s.wall_p99,
            s.throughput_qps, s.cache_hit_rate,
            s.admit_rejected, s.degraded_shards,
        )
        + blob(s.report_text)
        + blob(s.report_json)
        + blob(s.tenants_json)
    )
    assert codec.encode_stats(s) == layout
    assert codec.decode_stats(layout) == s
    with pytest.raises(FramingError, match="truncated"):
        codec.decode_stats(layout[: -len(blob(s.tenants_json))])


def test_two_byte_hello_is_a_framing_error():
    """A HELLO is a u16 version and a u16-prefixed tenant; the bare
    version word a v1 peer sent does not decode."""
    assert codec.decode_hello(codec.encode_hello(3, "carol")) == (3, "carol")
    assert codec.decode_hello(codec.encode_hello(3)) == (3, "")
    assert len(codec.encode_hello(3, "x" * 0xFFFF)) == codec.MAX_HELLO_BYTES
    with pytest.raises(FramingError, match="truncated"):
        codec.decode_hello(struct.pack("<H", 1))


def test_request_payload_trailing_bytes_rejected():
    ftype, payload = codec.encode_request(ExactSearch.from_bits([1, 0, 1]))
    with pytest.raises(FramingError, match="trailing"):
        codec.decode_request(ftype, payload + b"\x00")


# -- invalid UTF-8 in text fields ---------------------------------------------

_MARK = "zz-text-zz"


def _text_payloads():
    result = SearchResult(
        matches=(1,), engine=_MARK, scheme="bfv", hom_ops=HomOpTally(),
        elapsed_seconds=0.0, verified=True,
    )
    welcome = dict(
        protocol_version=2, engine="bfv", scheme="bfv", wildcard=True,
        batching=True, sharded=False, verify=True, max_query_bits=None,
        db_bit_length=None,
    )
    stats = dict(
        active_connections=0, total_connections=0, accepted=0, completed=0,
        shed=0, failed=0, draining=False, served_queries=0,
        wall_p50=0.0, wall_p95=0.0, wall_p99=0.0, throughput_qps=0.0,
        cache_hit_rate=0.0, report_text="",
    )
    cases = {
        "hello": (codec.encode_hello(2, _MARK), codec.decode_hello),
        "welcome-engine": (
            codec.encode_welcome(codec.Welcome(**{**welcome, "engine": _MARK})),
            codec.decode_welcome,
        ),
        "welcome-tenant": (
            codec.encode_welcome(codec.Welcome(**welcome, tenant=_MARK)),
            codec.decode_welcome,
        ),
        "result": (codec.encode_result(result), codec.decode_result),
        "batch-result": (
            codec.encode_batch_result(
                BatchSearchResult((result,), engine="bfv", elapsed_seconds=0.0)
            ),
            codec.decode_batch_result,
        ),
        "error": (codec.encode_error(codec.ERR_REMOTE, _MARK), codec.decode_error),
    }
    for field in ("report_text", "report_json", "tenants_json"):
        cases[f"stats-{field}"] = (
            codec.encode_stats(codec.ServiceStats(**{**stats, field: _MARK})),
            codec.decode_stats,
        )
    return cases


_TEXT_PAYLOADS = _text_payloads()


@pytest.mark.parametrize("case", sorted(_TEXT_PAYLOADS))
def test_invalid_utf8_text_field_raises_framing_error(case):
    """Every decoder keeps its ``FramingError`` contract when a text
    field holds bytes that are not UTF-8 (same length, so every length
    prefix still checks out)."""
    payload, decode = _TEXT_PAYLOADS[case]
    decode(payload)  # the well-formed payload decodes
    mark = _MARK.encode()
    assert payload.count(mark) == 1
    with pytest.raises(FramingError, match="UTF-8"):
        decode(payload.replace(mark, b"\xff\xfe" + mark[2:]))


def test_malformed_hello_from_the_issue_raises_framing_error():
    with pytest.raises(FramingError):
        codec.decode_hello(b"\x02\x00\x02\x00\xff\xfe")


# -- request-object validation stays behind FramingError ----------------------

_REQUEST_HEAD = b"\x00" + struct.pack("<d", -1.0)


@pytest.mark.parametrize(
    "ftype, body, message",
    [
        (FrameType.SEARCH, b"\x00\x00\x00\x00", "empty query"),
        (FrameType.BATCH, b"\x00\x00\x00\x00", "empty batch"),
        (
            FrameType.WILDCARD,
            b"\x08\x00\x00\x00\xff\x10\x00\x00\x00\xff\xff",
            "same length",
        ),
    ],
    ids=["search", "batch", "wildcard"],
)
def test_request_the_request_type_rejects_raises_framing_error(
    ftype, body, message
):
    with pytest.raises(FramingError, match=message):
        codec.decode_request(ftype, _REQUEST_HEAD + body)


@pytest.mark.parametrize("case", ["exact", "wildcard", "batch"])
def test_mutated_request_payload_decodes_or_raises_framing_error(case):
    """Seeded byte flips, truncations and appended bytes over one valid
    payload per request frame type: ``decode_request`` returns a request
    or raises ``FramingError``, nothing else."""
    request = {
        "exact": ExactSearch.from_bits([1, 0, 1]),
        "wildcard": WildcardSearch((1, 0, 1), (1, 0, 1)),
        "batch": BatchSearch((ExactSearch.from_bits([1, 0, 1]),)),
    }[case]
    ftype, payload = codec.encode_request(request, 2.5)
    rng = np.random.default_rng(13)
    outcomes = {"decoded": 0, "rejected": 0}
    for _ in range(3000):
        data = bytearray(payload)
        kind = rng.integers(3)
        if kind == 0:
            for pos in rng.integers(0, len(data), size=rng.integers(1, 4)):
                data[pos] ^= 1 << rng.integers(8)
        elif kind == 1:
            del data[rng.integers(0, len(data)) :]
        else:
            data += rng.integers(0, 256, size=rng.integers(1, 9), dtype=np.uint8).tobytes()
        try:
            codec.decode_request(ftype, bytes(data))
        except FramingError:
            outcomes["rejected"] += 1
        else:
            outcomes["decoded"] += 1
    assert outcomes["decoded"] and outcomes["rejected"]
