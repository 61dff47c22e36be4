"""Client SDK for the networked serving layer.

:class:`Client` is the one client of the CMN1 frame protocol.  It
mirrors the :class:`~repro.api.session.Session` surface (``search`` /
``submit``-returning-a-future / ``search_batch`` / ``outsource``),
multiplexes requests over a small **connection pool**, and
transparently **reconnects and resends** outstanding requests when a
connection drops (search requests are read-only and idempotent, so
replaying them is safe).  Each pooled connection runs one reader thread
that resolves futures by request id, so many submitters share one
socket without head-of-line coupling between their results.  A caller
on an event loop awaits ``asyncio.wrap_future(client.submit(query))``.

Every connection opens with the HELLO/WELCOME handshake, which names
the protocol version and the tenant; the negotiated
:class:`~repro.net.codec.Welcome` (engine key, scheme, capability
flags, outsourced bit length) is available as ``client.welcome`` and is
what :class:`repro.net.RemoteEngine` reports as its capabilities.
"""

from __future__ import annotations

import itertools
import socket
import threading
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..api.requests import (
    BatchSearch,
    BatchSearchResult,
    ExactSearch,
    SearchRequest,
    SearchResult,
)
from ..faults import RetryPolicy
from ..verify import VerifyLike, VerifyPolicy
from . import codec
from .framing import (
    PROTOCOL_VERSION,
    Frame,
    FrameType,
    read_frame_sync,
    write_frame_sync,
)

AddressLike = Union[str, Tuple[str, int]]

#: errors a retry policy treats as transient unless it overrides them:
#: lost connections (idempotent searches are safe to replay), load
#: sheds, and fail-fast admission rejects — all are "try again later",
#: never "the request is wrong"
DEFAULT_RETRYABLE = (
    ConnectionError,
    codec.RequestShedError,
    codec.AdmissionRejectedError,
)


def parse_address(address: AddressLike) -> Tuple[str, int]:
    """Accept ``"host:port"`` or an ``(host, port)`` tuple."""
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"address {address!r} is not of the form host:port"
            )
        return host, int(port)
    host, port = address
    return str(host), int(port)


def _as_request(request, verify: VerifyLike = None) -> SearchRequest:
    from ..api.session import _as_request as session_as_request

    return session_as_request(request, verify)


def _decode_response(frame: Frame):
    """Response frame -> result object (or raises the carried error)."""
    if frame.type is FrameType.RESULT:
        return codec.decode_result(frame.payload)
    if frame.type is FrameType.BATCH_RESULT:
        return codec.decode_batch_result(frame.payload)
    if frame.type is FrameType.STATS_RESULT:
        return codec.decode_stats(frame.payload)
    if frame.type is FrameType.OUTSOURCE_OK:
        return codec.decode_outsource_ok(frame.payload)
    if frame.type in (FrameType.DRAIN_OK, FrameType.PONG):
        return None
    if frame.type is FrameType.ERROR:
        code, message = codec.decode_error(frame.payload)
        raise codec.error_to_exception(code, message)
    raise codec.RemoteError(f"unexpected response frame {frame.type.name}")


class _Call:
    """One outstanding request: resend material + the caller's future."""

    def __init__(self, frame: Frame, future: Future, retries: int,
                 idempotent: bool):
        self.frame = frame
        self.future = future
        self.retries = retries
        #: only idempotent frames (searches, stats, ping) are replayed
        #: onto a fresh connection after a drop
        self.idempotent = idempotent


class _Connection:
    """One pooled socket with its reader thread and outstanding calls."""

    def __init__(self, client: "Client"):
        self._client = client
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[threading.Thread] = None
        self._send_lock = threading.Lock()
        self._calls_lock = threading.Lock()
        self._calls: Dict[int, _Call] = {}
        self._closed = False
        self.welcome: Optional[codec.Welcome] = None

    # -- connection management ------------------------------------------

    def _connect_locked(self) -> socket.socket:
        """(Re)establish the socket + handshake; caller holds _send_lock."""
        sock = socket.create_connection(
            self._client.address, timeout=self._client.connect_timeout
        )
        sock.settimeout(self._client.handshake_timeout)
        write_frame_sync(
            sock,
            Frame(
                FrameType.HELLO,
                0,
                codec.encode_hello(PROTOCOL_VERSION, self._client.tenant),
            ),
        )
        frame = read_frame_sync(sock)
        if frame is not None and frame.type is FrameType.ERROR:
            code, message = codec.decode_error(frame.payload)
            sock.close()
            raise codec.error_to_exception(code, message)
        if frame is None or frame.type is not FrameType.WELCOME:
            sock.close()
            raise ConnectionError("handshake failed: no WELCOME frame")
        self.welcome = codec.decode_welcome(frame.payload)
        # The reader thread blocks on this socket between responses; a
        # timeout here would tear down idle pooled connections (and
        # resend slow requests, amplifying load exactly when the server
        # is slowest).  Callers bound their own waits via
        # ``future.result(timeout=...)``.
        sock.settimeout(None)
        self._sock = sock
        self._reader = threading.Thread(
            target=self._read_loop, args=(sock,),
            name="repro-net-client-reader", daemon=True,
        )
        self._reader.start()
        return sock

    def ensure_connected(self) -> None:
        with self._send_lock:
            if self._sock is None and not self._closed:
                self._connect_locked()

    def close(self) -> None:
        self._closed = True
        with self._send_lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        self._fail_outstanding(codec.ConnectionLostError("client closed"))

    # -- request path ----------------------------------------------------

    def send_call(self, call: _Call) -> None:
        """Register + transmit one call, reconnecting/retrying on a
        dropped connection."""
        with self._calls_lock:
            self._calls[call.frame.request_id] = call
        while True:
            try:
                with self._send_lock:
                    sock = self._sock or self._connect_locked()
                    write_frame_sync(sock, call.frame)
                return
            except (ConnectionError, OSError) as exc:
                self._drop_socket()
                if call.retries <= 0 or self._closed:
                    with self._calls_lock:
                        self._calls.pop(call.frame.request_id, None)
                    if not call.future.done():
                        call.future.set_exception(
                            codec.ConnectionLostError(
                                f"send failed after resend budget "
                                f"exhausted: {exc}"
                            )
                        )
                    return
                call.retries -= 1

    def _drop_socket(self) -> None:
        with self._send_lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    # -- reader ----------------------------------------------------------

    def _read_loop(self, sock: socket.socket) -> None:
        try:
            while True:
                frame = read_frame_sync(sock)
                if frame is None:
                    break
                with self._calls_lock:
                    call = self._calls.pop(frame.request_id, None)
                if call is None:
                    continue  # response to a shed/abandoned request
                try:
                    result = _decode_response(frame)
                except Exception as exc:  # carried remote error
                    result, error = None, exc
                else:
                    error = None
                # A caller that timed out cancels its future; the late
                # response settles into the void instead of killing the
                # reader thread with InvalidStateError.
                try:
                    if error is not None:
                        call.future.set_exception(error)
                    else:
                        call.future.set_result(result)
                except InvalidStateError:
                    pass
        except (ConnectionError, OSError, ValueError):
            pass
        # The socket died (or EOF).  If it is still the active socket,
        # drop it and replay outstanding idempotent calls on a fresh
        # connection.
        with self._send_lock:
            if self._sock is sock:
                self._sock = None
        sock.close()
        if not self._closed:
            self._replay_outstanding()

    def _replay_outstanding(self) -> None:
        with self._calls_lock:
            outstanding = list(self._calls.values())
            self._calls.clear()
        for call in outstanding:
            if call.future.done():
                continue
            if call.idempotent and call.retries > 0 and not self._closed:
                call.retries -= 1
                self.send_call(call)
            else:
                call.future.set_exception(
                    codec.ConnectionLostError(
                        "connection lost before the response"
                        + (
                            ""
                            if call.idempotent
                            else " (non-idempotent request; not replayed)"
                        )
                    )
                )

    def _fail_outstanding(self, exc: Exception) -> None:
        with self._calls_lock:
            outstanding = list(self._calls.values())
            self._calls.clear()
        for call in outstanding:
            if not call.future.done():
                call.future.set_exception(exc)


class Client:
    """Synchronous client for :class:`~repro.net.AsyncSearchService`.

    Parameters
    ----------
    address:
        ``"host:port"`` or ``(host, port)``.
    pool_size:
        Number of pooled connections; requests round-robin across them.
    max_retries:
        Reconnect-and-resend attempts per idempotent request after a
        dropped connection.  Exhausting the budget fails the future
        with :class:`~repro.net.codec.ConnectionLostError`.
    retry:
        Application-level retry for shed/admission-rejected/lost
        requests: ``None`` (off), an attempt count, or a
        :class:`~repro.faults.RetryPolicy` (decorrelated-jitter
        exponential backoff).  Each retry reuses the original request
        id, so service-side accounting never double-counts one logical
        request.
    request_timeout:
        Default per-request bound, in seconds, on :meth:`search`'s
        synchronous wait (``None`` → wait forever).  Expiry raises
        :class:`~repro.net.codec.RequestTimeoutError`.
    handshake_timeout / connect_timeout:
        Bounds on connection establishment and the HELLO/WELCOME
        exchange, in seconds.  Established connections have *no* read
        timeout (the reader blocks between responses; idle pooled
        connections must not churn, and a slow search must not be
        silently re-executed) — bound waits per call via
        ``future.result(timeout=...)``.
    """

    def __init__(
        self,
        address: AddressLike,
        *,
        pool_size: int = 2,
        max_retries: int = 2,
        retry: Union[None, int, RetryPolicy] = None,
        request_timeout: Optional[float] = 120.0,
        handshake_timeout: Optional[float] = 30.0,
        connect_timeout: Optional[float] = 10.0,
        tenant: str = "",
    ):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.address = parse_address(address)
        #: tenant id every pooled connection names in its HELLO; its
        #: requests bill to that tenant ("" on a single-tenant service)
        self.tenant = tenant
        self.max_retries = max_retries
        self.retry = RetryPolicy.coerce(retry)
        self.request_timeout = request_timeout
        self.handshake_timeout = handshake_timeout
        self.connect_timeout = connect_timeout
        self._pool: List[_Connection] = [
            _Connection(self) for _ in range(pool_size)
        ]
        self._rr = itertools.count()
        self._ids = itertools.count(1)
        self._closed = False

    # -- plumbing --------------------------------------------------------

    def _connection(self) -> _Connection:
        return self._pool[next(self._rr) % len(self._pool)]

    def _submit_frame(
        self, ftype: FrameType, payload: bytes, *, idempotent: bool
    ) -> Future:
        if self._closed:
            raise RuntimeError("client is closed")
        future: Future = Future()
        call = _Call(
            Frame(ftype, next(self._ids), payload),
            future,
            self.max_retries,
            idempotent,
        )
        self._connection().send_call(call)
        return future

    def _submit_with_retry(
        self, ftype: FrameType, payload: bytes, policy: RetryPolicy
    ) -> Future:
        """Submit one idempotent frame under a retry policy.

        The caller's future resolves with the first successful attempt,
        or the last attempt's error once the budget is spent.  Every
        attempt reuses one request id: a retry of a shed request is the
        *same* logical request to the service, so accounting (and any
        response racing the retry) stays single-counted.  Backoff waits
        run on daemon timers — no caller thread blocks between tries.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        outer: Future = Future()
        request_id = next(self._ids)
        frame_template = Frame(ftype, request_id, payload)
        backoff = policy.begin()
        attempts = [0]

        def launch() -> None:
            if outer.done() or self._closed:
                if not outer.done():
                    outer.set_exception(
                        codec.ConnectionLostError("client closed")
                    )
                return
            attempts[0] += 1
            inner: Future = Future()
            inner.add_done_callback(settle)
            self._connection().send_call(
                _Call(frame_template, inner, self.max_retries, True)
            )

        def settle(inner: Future) -> None:
            if outer.done():
                return
            exc = inner.exception()
            if exc is None:
                outer.set_result(inner.result())
                return
            if (
                self._closed
                or attempts[0] >= policy.max_attempts
                or not policy.is_retryable(exc, DEFAULT_RETRYABLE)
            ):
                outer.set_exception(exc)
                return
            timer = threading.Timer(backoff.next_delay(), launch)
            timer.daemon = True
            timer.start()

        launch()
        return outer

    @property
    def welcome(self) -> codec.Welcome:
        """Server identity from the handshake (connects if needed)."""
        conn = self._pool[0]
        conn.ensure_connected()
        assert conn.welcome is not None
        return conn.welcome

    def close(self) -> None:
        self._closed = True
        for conn in self._pool:
            conn.close()

    def drop_connections(self) -> None:
        """Forcibly sever every pooled socket (fault-injection hook for
        ``conn_drop`` events).  Reader threads observe the reset and
        replay outstanding idempotent calls on fresh connections —
        exactly the client-side path a real network blip exercises."""
        for conn in self._pool:
            sock = conn._sock
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- session-mirroring surface ---------------------------------------

    def submit(
        self,
        request,
        *,
        verify: VerifyLike = None,
        deadline: Optional[float] = None,
        retry: Union[None, int, RetryPolicy] = None,
    ) -> Future:
        """Queue one request on the service; returns a future of its
        :class:`SearchResult` (or :class:`BatchSearchResult`).

        ``deadline`` is a relative latency budget in seconds the
        service's admission control uses for oldest-deadline shedding.
        ``retry`` overrides the client-level retry policy for this
        request (``None`` → use the client's).
        """
        ftype, payload = codec.encode_request(
            _as_request(request, verify), deadline
        )
        policy = RetryPolicy.coerce(retry) if retry is not None else self.retry
        if policy is not None:
            return self._submit_with_retry(ftype, payload, policy)
        return self._submit_frame(ftype, payload, idempotent=True)

    def search(
        self,
        request,
        *,
        verify: VerifyLike = None,
        deadline: Optional[float] = None,
        retry: Union[None, int, RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> Union[SearchResult, BatchSearchResult]:
        """Execute one request synchronously over the wire.

        ``timeout`` bounds this call (``None`` → the client's
        ``request_timeout``); expiry raises
        :class:`~repro.net.codec.RequestTimeoutError` — the request may
        still complete server-side, but this caller stops waiting."""
        bound = self.request_timeout if timeout is None else timeout
        future = self.submit(
            request, verify=verify, deadline=deadline, retry=retry
        )
        try:
            return future.result(bound)
        except _FutureTimeout:
            future.cancel()
            raise codec.RequestTimeoutError(
                f"no response within {bound:.1f}s"
            ) from None

    def search_batch(
        self, queries: Sequence, *, verify: VerifyLike = None
    ) -> BatchSearchResult:
        """Execute many exact queries as one native server-side batch."""
        batch = BatchSearch(
            tuple(
                q if isinstance(q, ExactSearch) else ExactSearch.from_bits(q)
                for q in queries
            ),
            verify=VerifyPolicy.coerce(verify),
        )
        return self.search(batch)

    def submit_batch(
        self, queries: Sequence, *, verify: VerifyLike = None
    ) -> List[Future]:
        """Submit many exact queries; one future per query, in order."""
        return [self.submit(q, verify=verify) for q in queries]

    def outsource(self, db_bits) -> int:
        """Ship plaintext database bits for the server to pack/encrypt;
        returns the outsourced bit length.  Not idempotent (it rebuilds
        server-side state), so it is never silently replayed."""
        payload = codec.encode_outsource(
            np.asarray(db_bits, dtype=np.uint8)
        )
        return self._submit_frame(
            FrameType.OUTSOURCE, payload, idempotent=False
        ).result()

    def stats(self) -> codec.ServiceStats:
        """Fetch the service's operational snapshot (STATS frame)."""
        return self._submit_frame(
            FrameType.STATS, b"", idempotent=True
        ).result()

    def drain(self) -> None:
        """Ask the service to drain gracefully; returns when it has."""
        self._submit_frame(FrameType.DRAIN, b"", idempotent=False).result()
