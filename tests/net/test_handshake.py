"""The CMN1 v3 handshake: HELLO comes first, is version-checked and is
read under a bound.

A connection's first frame is read with at most
:data:`~repro.net.codec.MAX_HELLO_BYTES` of payload.  A header that
declares more closes the connection before a payload byte is read; a
first frame that is not a HELLO gets ``ERR_BAD_FRAME``; a HELLO of
another protocol version gets ``ERR_VERSION``, which the client raises
as :class:`~repro.net.codec.ProtocolVersionError`.  Each case closes
the connection and leaves the service serving the next client.
"""

from __future__ import annotations

import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PlaintextEngine, Session
from repro.api.requests import ExactSearch
from repro.net import Client, ServiceThread, codec
from repro.net import client as client_module
from repro.net.codec import ProtocolVersionError
from repro.net.framing import (
    MAGIC,
    PROTOCOL_VERSION,
    Frame,
    FrameType,
    read_frame_sync,
    write_frame_sync,
)


@pytest.fixture(scope="module")
def service():
    engine = PlaintextEngine()
    engine.outsource(np.ones(64, dtype=np.uint8))
    with ServiceThread(session=Session(engine)) as thread:
        yield thread


def _assert_still_serving(service) -> None:
    with Client(service.address) as client:
        assert client.welcome.protocol_version == PROTOCOL_VERSION
        assert list(client.search(np.ones(8, dtype=np.uint8)).matches)


def _first_frame_reply(service, frame: Frame):
    """Send ``frame`` as a connection's first frame; returns the reply
    and what the connection reads after it (None: the service closed)."""
    with socket.create_connection(service.address, timeout=10) as sock:
        write_frame_sync(sock, frame)
        return read_frame_sync(sock), read_frame_sync(sock)


@settings(max_examples=25, deadline=None)
@given(
    ftype=st.sampled_from(list(FrameType)),
    length=st.integers(codec.MAX_HELLO_BYTES + 1, 2**32 - 1),
)
def test_oversized_first_frame_closes_after_the_header(service, ftype, length):
    """Only the 17-byte header is sent: the service must close on it,
    without waiting for (or allocating) the payload it declares."""
    header = struct.pack("<4sBQI", MAGIC, int(ftype), 1, length)
    with socket.create_connection(service.address, timeout=10) as sock:
        sock.sendall(header)
        assert sock.recv(1) == b""


def test_a_hello_at_the_bound_is_read_in_full(service):
    hello = codec.encode_hello(PROTOCOL_VERSION, "x" * 0xFFFF)
    assert len(hello) == codec.MAX_HELLO_BYTES
    reply, after = _first_frame_reply(service, Frame(FrameType.HELLO, 1, hello))
    # read in full and decoded: only then is the unknown tenant refused
    assert reply.type is FrameType.ERROR
    assert codec.decode_error(reply.payload)[0] == codec.ERR_TENANT
    assert after is None
    _assert_still_serving(service)


def test_v2_hello_gets_err_version_and_the_connection_closes(service):
    hello = codec.encode_hello(2, "")
    reply, after = _first_frame_reply(service, Frame(FrameType.HELLO, 1, hello))
    assert reply.type is FrameType.ERROR
    code, message = codec.decode_error(reply.payload)
    assert code == codec.ERR_VERSION
    assert "v3" in message
    assert after is None
    _assert_still_serving(service)


def test_client_of_another_version_raises_protocol_version_error(
    service, monkeypatch
):
    monkeypatch.setattr(client_module, "PROTOCOL_VERSION", 2)
    with pytest.raises(ProtocolVersionError, match="version 2"):
        with Client(service.address) as client:
            client.search(np.ones(8, dtype=np.uint8))
    monkeypatch.undo()
    _assert_still_serving(service)


@pytest.mark.parametrize("ftype", [FrameType.SEARCH, FrameType.STATS])
def test_a_first_frame_that_is_not_hello_gets_err_bad_frame(service, ftype):
    payload = b""
    if ftype is FrameType.SEARCH:
        _, payload = codec.encode_request(ExactSearch.from_bits([1, 1, 1]))
    reply, after = _first_frame_reply(service, Frame(ftype, 7, payload))
    assert (reply.type, reply.request_id) == (FrameType.ERROR, 7)
    code, message = codec.decode_error(reply.payload)
    assert code == codec.ERR_BAD_FRAME
    assert "expected HELLO" in message
    assert after is None
    _assert_still_serving(service)


def test_a_second_hello_is_an_unexpected_frame(service):
    """The tenant is bound once per connection."""
    hello = Frame(FrameType.HELLO, 1, codec.encode_hello(PROTOCOL_VERSION))
    with socket.create_connection(service.address, timeout=10) as sock:
        write_frame_sync(sock, hello)
        assert read_frame_sync(sock).type is FrameType.WELCOME
        write_frame_sync(sock, Frame(FrameType.HELLO, 2, hello.payload))
        reply = read_frame_sync(sock)
        assert codec.decode_error(reply.payload)[0] == codec.ERR_BAD_FRAME
        write_frame_sync(sock, Frame(FrameType.PING, 3))
        assert read_frame_sync(sock) == Frame(FrameType.PONG, 3)
