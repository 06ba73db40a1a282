"""Transports: how envelopes move between the coordinator and nodes.

The contract is a blocking RPC primitive::

    replies = transport.request(envelope)

``envelope.dest`` names a logical node registered under
``(round_id, node_id)``; the transport delivers the envelope to that
node's ``handle`` method and returns whatever envelopes it replies
with; ``request_many`` delivers a mixing layer's requests at once (a
loop here, pipelined across processes by the fleet).  Each node sees
its requests in the coordinator's order, which is what makes rounds
deterministic under a
:class:`~repro.crypto.groups.DeterministicRng` regardless of the
transport in use — the cross-transport parity tests rely on it.

Two implementations:

- :class:`InProcessTransport` — the default.  Registered nodes live in
  a dict and ``request`` is a direct method call; envelope payloads are
  passed through as objects (zero copy, zero serialization), so the
  refactored round pays only envelope construction over the old direct
  calls.

- :class:`TcpTransport` — all registered nodes sit behind one
  loopback listening socket; ``request`` frames ``envelope.to_bytes()``
  over one persistent connection and decodes the framed replies.  This
  is the real service boundary: everything a round needs crosses the
  wire as bytes, exactly as it does between ``repro serve`` processes.

The socket work (frame format, size caps, accept loop, error taxonomy)
is :mod:`repro.net.framing`, shared with the fleet.
"""

from __future__ import annotations

import abc
import socket
import threading
from typing import Dict, List, Sequence, Tuple

from repro.crypto.groups import GroupBackend as Group
from repro.net import framing
from repro.net.envelopes import Envelope
from repro.net.framing import (  # noqa: F401  (the contract's errors)
    RetryableTransportError,
    RpcTimeout,
    TransportError,
)

NodeKey = Tuple[int, int]  # (round_id, node_id)


class Transport(abc.ABC):
    """Blocking request/reply delivery between registered nodes."""

    name: str

    @abc.abstractmethod
    def register(self, round_id: int, node_id: int, node) -> None:
        """Expose ``node`` (anything with ``handle(env) -> [env]``)
        under ``(round_id, node_id)``.  Re-registering a live key swaps
        the node behind the same endpoint (stream rekeys do this)."""

    @abc.abstractmethod
    def unregister_round(self, round_id: int) -> None:
        """Tear down every endpoint of ``round_id`` (idempotent)."""

    @abc.abstractmethod
    def request(self, env: Envelope, timeout=None) -> List[Envelope]:
        """Deliver ``env`` to its destination; return its replies.

        ``timeout`` (seconds) bounds the wait for the reply where the
        transport has a real wire to wait on; transports with no
        network in between (in-process dispatch) ignore it."""

    def request_many(
        self, envs: Sequence[Envelope], timeout=None
    ) -> List[List[Envelope]]:
        """Deliver every envelope; return their replies, aligned with
        ``envs`` (a mixing layer's fan-out).  Here: :meth:`request` in
        a loop.  An override may have several processes working at
        once (the fleet) but, like the loop, leaves no reply unread
        when it returns or raises."""
        return [self.request(env, timeout) for env in envs]

    def close(self) -> None:  # pragma: no cover - overridden where needed
        """Release all endpoints and connections."""


class InProcessTransport(Transport):
    """Zero-copy direct dispatch (the single-process fast path)."""

    name = "inproc"

    def __init__(self):
        self._nodes: Dict[NodeKey, object] = {}

    def register(self, round_id: int, node_id: int, node) -> None:
        self._nodes[(round_id, node_id)] = node

    def unregister_round(self, round_id: int) -> None:
        for key in [k for k in self._nodes if k[0] == round_id]:
            del self._nodes[key]

    def request(self, env: Envelope, timeout=None) -> List[Envelope]:
        try:
            node = self._nodes[(env.round_id, env.dest)]
        except KeyError:
            raise TransportError(
                f"no node {env.dest} registered for round {env.round_id}"
            ) from None
        return node.handle(env)

    def close(self) -> None:
        self._nodes.clear()


class TcpTransport(Transport):
    """Loopback TCP: every node behind one listening socket.

    One :func:`~repro.net.framing.serve` accept loop (in a daemon
    thread) and one :class:`~repro.net.framing.FramedConnection` live
    as long as the transport; handlers dispatch on the envelope header
    ``(round_id, dest)``, so registering a round, or swapping the node
    behind a key (stream rekey), binds nothing.  A handler exception
    comes back as a :class:`TransportError` carrying its repr —
    protocol failures proper travel as FAULT envelopes.
    """

    name = "tcp"

    def __init__(self, group: Group, host: str = "127.0.0.1"):
        self._nodes: Dict[NodeKey, object] = {}
        #: handlers run one at a time even when a timed-out request's
        #: handler is still busy as its retry arrives on a new connection
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._listener = socket.create_server((host, 0))
        self._conn = framing.FramedConnection(
            self._listener.getsockname()[:2], group, "loopback"
        )
        self._thread = threading.Thread(
            target=framing.serve,
            args=(self._listener, group, self._dispatch, self._stopping),
            name="atom-rpc-accept",
            daemon=True,
        )
        self._thread.start()

    def _dispatch(self, env: Envelope) -> List[Envelope]:
        with self._lock:
            node = self._nodes.get((env.round_id, env.dest))
            if node is None:
                return [framing.transport_fault(env, "no such node")]
            return node.handle(env)

    def register(self, round_id: int, node_id: int, node) -> None:
        if self._stopping.is_set():
            raise TransportError("transport is closed")
        self._nodes[(round_id, node_id)] = node

    def unregister_round(self, round_id: int) -> None:
        for key in [k for k in self._nodes if k[0] == round_id]:
            del self._nodes[key]

    def request(self, env: Envelope, timeout=None) -> List[Envelope]:
        if (env.round_id, env.dest) not in self._nodes:
            raise TransportError(
                f"no node {env.dest} registered for round {env.round_id}"
            )
        return self._conn.request(env, timeout)

    def close(self) -> None:
        """Hang up, stop the accept loop and join its threads
        (idempotent); the port is free when this returns."""
        self._conn.drop()
        framing.stop_serving(self._listener, self._stopping)
        self._thread.join()
        self._nodes.clear()


TRANSPORTS = ("inproc", "tcp")


def make_transport(name: str, group: Group) -> Transport:
    """Factory for ``DeploymentConfig.transport`` / CLI ``--transport``."""
    if name == "inproc":
        return InProcessTransport()
    if name == "tcp":
        return TcpTransport(group)
    raise ValueError(f"unknown transport {name!r}; choose from {TRANSPORTS}")
