"""Message-driven node architecture (the service boundary).

- :mod:`repro.net.envelopes` — typed, versioned wire envelopes with
  byte codecs for every inter-node interaction.
- :mod:`repro.net.transport` — the :class:`Transport` contract with
  the zero-copy :class:`InProcessTransport` and the socket-backed
  :class:`TcpTransport`.
- :mod:`repro.net.framing` — the one framed-RPC socket link (client
  connection, accept loop, size caps) every socket user shares.
- :mod:`repro.net.nodes` — :class:`ServerNode` / :class:`TrusteeNode`
  services exposing ``handle(envelope) -> [envelope]``.
- :mod:`repro.net.coordinator` — the :class:`Coordinator` that drives
  a full round purely over envelopes.
- :mod:`repro.net.resilience` — deadlines, deterministic retries,
  idempotent request ids, and the heartbeat suspicion tracker.
- :mod:`repro.net.chaos` — :class:`ChaosTransport`, a reproducible
  adversarial network driven by a parseable :class:`NetFaultPlan`.
"""

from repro.net.chaos import ChaosTransport, NetFaultPlan, NetFaultPlanError
from repro.net.coordinator import Coordinator
from repro.net.envelopes import Envelope, Kind, WireFormatError, wrap
from repro.net.nodes import ServerNode, TrusteeNode
from repro.net.resilience import (
    DedupCache,
    ResilientTransport,
    RpcExhausted,
    RpcPolicy,
    SuspicionTracker,
)
from repro.net.transport import (
    InProcessTransport,
    RetryableTransportError,
    RpcTimeout,
    TcpTransport,
    Transport,
    TransportError,
    TRANSPORTS,
    make_transport,
)

__all__ = [
    "ChaosTransport",
    "NetFaultPlan",
    "NetFaultPlanError",
    "Coordinator",
    "Envelope",
    "Kind",
    "WireFormatError",
    "wrap",
    "ServerNode",
    "TrusteeNode",
    "DedupCache",
    "ResilientTransport",
    "RpcExhausted",
    "RpcPolicy",
    "SuspicionTracker",
    "InProcessTransport",
    "RetryableTransportError",
    "RpcTimeout",
    "TcpTransport",
    "Transport",
    "TransportError",
    "TRANSPORTS",
    "make_transport",
]
