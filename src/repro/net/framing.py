"""Length-prefixed binary framing for the networked serving layer.

One frame is the unit of every exchange between :mod:`repro.net`
clients and the :class:`~repro.net.server.AsyncSearchService`:

    magic       b"CMN1"                      (4 bytes)
    type        :class:`FrameType`           (1 byte)
    request_id  client correlation id        (8 bytes, little-endian)
    length      payload byte count           (4 bytes, little-endian)
    payload     ``length`` bytes

The payload encodings live in :mod:`repro.net.codec`; ciphertext-sized
payloads (an outsourced database upload, a serialized
:mod:`repro.he.serialize` blob riding inside a frame) routinely exceed
64 KiB, so both the async and the sync readers accumulate exact-length
reads rather than trusting a single ``recv``.

``request_id`` correlates responses to requests: the service answers
frames in *completion* order (whatever internal batching the session
layer performed), and the client SDK resolves each submitted future by
id, never by arrival position.
"""

from __future__ import annotations

import enum
import socket
import struct
from dataclasses import dataclass
from typing import Callable, Optional

MAGIC = b"CMN1"
#: wire protocol version, checked in the HELLO/WELCOME handshake: a
#: service answers a HELLO of any other version with ``ERR_VERSION``
PROTOCOL_VERSION = 3
#: hard bound on one frame's payload (a corrupt length prefix must not
#: make a reader allocate unbounded memory); a service reads a
#: connection's first frame under the much smaller HELLO bound
MAX_PAYLOAD_BYTES = 1 << 30

_HEADER = struct.Struct("<4sBQI")
HEADER_BYTES = _HEADER.size


class FramingError(ValueError):
    """The byte stream is not a valid CMN1 frame sequence."""


class FrameType(enum.IntEnum):
    """Every frame kind the CMN1 protocol exchanges."""

    # handshake
    HELLO = 1          # client -> server: protocol version
    WELCOME = 2        # server -> client: engine identity + capabilities
    # database lifecycle
    OUTSOURCE = 3      # client -> server: plaintext db bits to outsource
    OUTSOURCE_OK = 4   # server -> client: outsourced bit length
    # queries
    SEARCH = 5         # exact search request
    WILDCARD = 6       # wildcard search request
    BATCH = 7          # batch of exact searches
    RESULT = 8         # one SearchResult
    BATCH_RESULT = 9   # one BatchSearchResult
    ERROR = 10         # request-scoped failure (code + message)
    # operations
    STATS = 11         # client -> server: stats request
    STATS_RESULT = 12  # server -> client: serialized service/serve stats
    DRAIN = 13         # client -> server: finish in-flight work, then stop
    DRAIN_OK = 14      # server -> client: drain complete
    PING = 15
    PONG = 16


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type, correlation id, raw payload."""

    type: FrameType
    request_id: int
    payload: bytes = b""


# -- fault injection boundary --------------------------------------------------

#: when set (see :class:`repro.faults.FaultInjector.frame_hook`), every
#: outbound frame passes through the hook, which may return a replacement
#: (e.g. with a corrupted payload) — the chaos harness's way of testing
#: that a garbled response surfaces as a decode error, never a hang
_send_fault_hook: Optional[Callable[[Frame], Frame]] = None


def set_send_fault_hook(hook: Optional[Callable[[Frame], Frame]]) -> None:
    """Install (or clear, with ``None``) the outbound-frame fault hook."""
    global _send_fault_hook
    _send_fault_hook = hook


def _apply_send_fault(frame: Frame) -> Frame:
    hook = _send_fault_hook
    if hook is None:
        return frame
    return hook(frame) or frame


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame, header and payload."""
    if len(frame.payload) > MAX_PAYLOAD_BYTES:
        raise FramingError(
            f"payload of {len(frame.payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame bound"
        )
    return (
        _HEADER.pack(
            MAGIC, int(frame.type), frame.request_id, len(frame.payload)
        )
        + frame.payload
    )


def decode_header(
    header: bytes, max_payload: int = MAX_PAYLOAD_BYTES
) -> tuple[FrameType, int, int]:
    """Parse a frame header; returns (type, request_id, payload_len).
    A length over ``max_payload`` is a :class:`FramingError`."""
    magic, ftype, request_id, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FramingError(f"bad magic {magic!r}; not a CMN1 frame stream")
    if length > max_payload:
        raise FramingError(
            f"frame payload length {length} exceeds bound {max_payload}"
        )
    try:
        ftype = FrameType(ftype)
    except ValueError:
        raise FramingError(f"unknown frame type {ftype}") from None
    return ftype, request_id, length


async def read_frame(
    reader, max_payload: int = MAX_PAYLOAD_BYTES
) -> Frame | None:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`FramingError` on EOF mid-frame or a corrupt header, which
    includes a declared length over ``max_payload`` (checked before any
    payload byte is read).
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FramingError("connection closed mid-header") from exc
    ftype, request_id, length = decode_header(header, max_payload)
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise FramingError("connection closed mid-payload") from exc
    return Frame(ftype, request_id, payload)


async def write_frame(writer, frame: Frame) -> None:
    """Write one frame to an :class:`asyncio.StreamWriter` and drain."""
    writer.write(encode_frame(_apply_send_fault(frame)))
    await writer.drain()


# -- blocking socket helpers (sync client SDK) --------------------------------


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed with {remaining} of {count} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(sock: socket.socket) -> Frame | None:
    """Blocking frame read; ``None`` on clean EOF at a frame boundary."""
    first = sock.recv(1)
    if not first:
        return None
    header = first + _recv_exact(sock, HEADER_BYTES - 1)
    ftype, request_id, length = decode_header(header)
    payload = _recv_exact(sock, length) if length else b""
    return Frame(ftype, request_id, payload)


def write_frame_sync(sock: socket.socket, frame: Frame) -> None:
    """Blocking frame write."""
    sock.sendall(encode_frame(_apply_send_fault(frame)))
