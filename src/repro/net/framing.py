"""The framed-RPC link: how one envelope request is sent, received and
served over a TCP socket — the only module that touches one, shared by
the loopback transport, the fleet transport, ``repro serve`` and the
fleet controller.

Wire format: a request is one frame, ``u32 length || envelope bytes``;
a response is ``u32 count`` followed by ``count`` frames.  Both numbers
come from the peer, so both are bounded (:data:`MAX_FRAME_BYTES`,
:data:`MAX_REPLY_FRAMES`) before anything is buffered.

:class:`FramedConnection` is the client half (one persistent, lazily
dialled connection; the server answers its frames one at a time, in
order — the ordering that keeps seeded rounds deterministic — so a
caller may send several before reading their replies, as the fleet's
layer fan-out does); :func:`serve` is the server half (blocking accept
loop, a thread per connection).

Error taxonomy, which :class:`~repro.net.resilience.ResilientTransport`
keys its retries on: a deadline overrun is :class:`RpcTimeout`; a
reset, short read, refused dial or garbled reply is
:class:`RetryableTransportError`; either way the connection is dropped,
so the next request dials fresh instead of reading a stale half-reply.
A handler that raised answers with a ``transport-error`` FAULT, which
the client surfaces as a plain, non-retryable :class:`TransportError`.
"""

from __future__ import annotations

import contextlib
import logging
import socket
import struct
import threading
from typing import Callable, List, Optional, Tuple

from repro.crypto.groups import GroupBackend as Group
from repro.net.envelopes import (
    COORDINATOR, Envelope, Fault, Kind, WireFormatError, wrap,
)

logger = logging.getLogger(__name__)

_LEN = struct.Struct(">I")

#: largest frame either side will buffer: far above any MIX_BATCH or
#: checkpoint bundle this repo ships, far below the 4 GiB a u32 allows
MAX_FRAME_BYTES = 1 << 28
#: most frames one reply may carry (a MIX answers with one MIX_BATCH
#: per successor plus a summary)
MAX_REPLY_FRAMES = 1 << 16
#: buffers per gathered send, under every platform's IOV_MAX
_SENDMSG_BUFFERS = 512


class TransportError(RuntimeError):
    """Routing or connection failure at the transport layer."""


class RetryableTransportError(TransportError):
    """A failure where the request may not have been processed — the
    connection dropped, the peer reset, the reply was garbled.  The
    resilience layer may retry these (idempotency via request IDs makes
    the retry safe); a plain :class:`TransportError` is terminal."""


class RpcTimeout(RetryableTransportError):
    """The peer did not answer within the caller's deadline."""


def transport_fault(request: Envelope, message: str) -> Envelope:
    """The FAULT reporting a server-side failure that is not part of
    the protocol (unexpected exception, routing miss)."""
    return wrap(
        Fault(code="transport-error", message=message),
        request.round_id, request.dest, COORDINATOR,
    )


# -- the one reader and the one writer ---------------------------------

def _recv_exact(
    sock: socket.socket, n: int, eof_ok: bool = False
) -> Optional[bytes]:
    """Exactly ``n`` bytes.  A peer that hung up raises — except with
    ``eof_ok`` before the first byte (between two requests), which
    returns None."""
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            if eof_ok and not chunks:
                return None
            raise RetryableTransportError("connection closed mid-frame")
        chunks += chunk
    return bytes(chunks)


def _bounded(head: bytes, limit: int, what: str) -> int:
    (value,) = _LEN.unpack(head)
    if value > limit:
        raise RetryableTransportError(f"{what} {value} exceeds {limit}")
    return value


def _recv_frame(sock: socket.socket, eof_ok: bool = False) -> Optional[bytes]:
    head = _recv_exact(sock, _LEN.size, eof_ok)
    if head is None:
        return None
    return _recv_exact(sock, _bounded(head, MAX_FRAME_BYTES, "frame length"))


def _send_frames(sock: socket.socket, parts: List[bytes]) -> None:
    """Gathered send (``writev``) tolerating short writes: a
    multi-megabyte MIX_BATCH ships without being copied once more just
    to prepend its 4-byte length."""
    views = [memoryview(p) for p in parts if p]
    while views:
        sent = sock.sendmsg(views[:_SENDMSG_BUFFERS])
        while views and sent >= len(views[0]):
            sent -= len(views[0])
            views.pop(0)
        if sent:
            views[0] = views[0][sent:]


# -- client half -------------------------------------------------------

class FramedConnection:
    """One persistent connection to ``address``; ``peer`` names the far
    end in error messages."""

    def __init__(self, address: Tuple[str, int], group: Group, peer: str):
        self.address = address
        self.group = group
        self.peer = peer
        self._sock: Optional[socket.socket] = None

    def drop(self) -> None:
        """Discard a connection whose stream state is no longer trusted
        (idempotent; the next request dials fresh)."""
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def request(self, env: Envelope, timeout=None) -> List[Envelope]:
        """Send ``env``, return its decoded replies; ``timeout``
        (seconds) bounds the dial and every read."""
        self.send(env, timeout)
        return self.receive(env, timeout)

    def send(self, env: Envelope, timeout=None) -> None:
        """Write ``env``'s frame, dialling first if needed.  Several
        frames may go out before :meth:`receive` reads their replies,
        in send order."""
        frame = env.to_bytes(self.group)
        with self._io(env, timeout, dial=True) as sock:
            _send_frames(sock, [_LEN.pack(len(frame)), frame])

    def receive(self, env: Envelope, timeout=None) -> List[Envelope]:
        """Read the reply to ``env``, the oldest frame not yet answered."""
        with self._io(env, timeout) as sock:
            count = _bounded(
                _recv_exact(sock, _LEN.size), MAX_REPLY_FRAMES, "reply count"
            )
            replies = [
                Envelope.from_bytes(_recv_frame(sock), self.group)
                for _ in range(count)
            ]
        for reply in replies:
            if reply.kind is Kind.FAULT and (
                reply.payload.code == "transport-error"
            ):
                # The peer *did* process the request and crashed doing
                # so; retrying would re-execute the failure.
                raise TransportError(
                    f"{env.kind.name} to node {env.dest} on {self.peer} "
                    f"failed: {reply.payload.message}"
                )
        return replies

    @contextlib.contextmanager
    def _io(self, env: Envelope, timeout, dial: bool = False):
        """The socket, with any failure mapped onto the error taxonomy
        and the connection dropped, so the next request dials fresh."""
        what = f"{env.kind.name} to node {env.dest} on {self.peer}"
        try:
            if self._sock is None:
                if not dial:
                    raise TransportError("connection dropped before the reply")
                self._sock = socket.create_connection(self.address, timeout)
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.settimeout(timeout)
            yield self._sock
        except socket.timeout as exc:
            self.drop()
            raise RpcTimeout(f"{what} timed out after {timeout}s") from exc
        except (OSError, WireFormatError, TransportError) as exc:
            self.drop()
            raise RetryableTransportError(f"{what} failed: {exc}") from exc


# -- server half -------------------------------------------------------

def _serve_connection(conn: socket.socket, peer, group, dispatch, stopping):
    try:
        while not stopping.is_set():
            raw = _recv_frame(conn, eof_ok=True)
            if raw is None:
                return  # peer hung up between requests
            env = Envelope.from_bytes(raw, group)
            try:
                frames = [reply.to_bytes(group) for reply in dispatch(env)]
            except Exception as exc:  # crossed-wire: no raising back
                logger.exception(
                    "handler for %s from %s failed", env.kind.name, peer
                )
                frames = [transport_fault(env, repr(exc)).to_bytes(group)]
            parts = [_LEN.pack(len(frames))]
            for frame in frames:
                parts += (_LEN.pack(len(frame)), frame)
            _send_frames(conn, parts)
    except (WireFormatError, TransportError) as exc:
        # Nothing after a bad frame can be trusted to be a frame start.
        logger.warning("closing connection from %s: %s", peer, exc)
    except OSError:
        pass  # peer vanished; nothing to clean beyond the socket
    finally:
        conn.close()


def serve(
    listener: socket.socket,
    group: Group,
    dispatch: Callable[[Envelope], List[Envelope]],
    stopping: threading.Event,
) -> None:
    """Accept connections on ``listener`` until :func:`stop_serving`,
    answering each request frame with ``dispatch(envelope)``'s replies
    (``dispatch`` does its own locking; an exception it raises becomes
    a ``transport-error`` FAULT).  On the way out the listener is
    closed and every connection thread joined: a request already being
    handled still gets its reply, idle connections are hung up on."""
    workers: List[Tuple[threading.Thread, socket.socket]] = []
    try:
        while not stopping.is_set():
            try:
                conn, peer = listener.accept()
            except OSError:
                break  # listener closed under us
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=_serve_connection,
                args=(conn, peer, group, dispatch, stopping),
                name="atom-rpc-conn",
                daemon=True,
            )
            thread.start()
            workers = [w for w in workers if w[0].is_alive()]
            workers.append((thread, conn))
    finally:
        listener.close()
        for _, conn in workers:
            try:
                conn.shutdown(socket.SHUT_RD)  # wakes a blocked recv
            except OSError:
                pass  # that thread already closed its socket
        for thread, _ in workers:
            thread.join()


def stop_serving(listener: socket.socket, stopping: threading.Event) -> None:
    """End :func:`serve` on ``listener`` from another thread or a
    signal handler: closing a socket does not wake a blocked
    ``accept``, a connection does."""
    stopping.set()
    try:
        socket.create_connection(listener.getsockname()[:2], timeout=1.0).close()
    except OSError:
        pass  # already closed: serve() is on its way out
