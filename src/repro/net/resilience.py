"""RPC resilience: deadlines, retries, idempotency, and suspicion.

PR 4's transports assume a perfect network: ``request`` blocks forever
on a silent peer and any hiccup surfaces as an exception the round
machinery treats as fatal.  This module is the layer between the
:class:`~repro.net.coordinator.Coordinator` and the transport that
makes those assumptions explicit and survivable:

- :class:`RpcPolicy` — per-envelope-kind deadlines and a bounded,
  deterministic exponential-backoff retry budget.  Jitter comes from a
  dedicated :class:`~repro.crypto.groups.DeterministicRng` (never the
  protocol rng), so a retried run draws the same protocol randomness
  as a fault-free one — byte-identical results are preserved.

- :class:`ResilientTransport` — a :class:`~repro.net.transport.Transport`
  decorator applying the policy.  It stamps a unique ``req_id`` into
  every outgoing envelope; paired with the node-side
  :class:`DedupCache` this makes retries *idempotent*: a request whose
  reply was lost is re-sent, the node recognises the id, and replays
  the cached reply instead of re-executing (the two-phase layer commit
  stays replay-safe).

- :class:`DedupCache` — bounded LRU of ``req_id -> replies`` consulted
  by ``ServerNode.handle`` / ``TrusteeNode.handle`` before dispatch.

- :class:`SuspicionTracker` — phi-accrual-lite failure detector state
  for the coordinator's heartbeat probes: consecutive missed PONGs
  accumulate per group until a miss threshold declares the endpoint
  dead, surfacing the existing ``GroupStalled`` into buddy recovery.

Retries exist for *delivery* failures (:class:`RetryableTransportError`:
timeouts, resets, garbled frames).  A plain ``TransportError`` means
the node processed the request and failed doing so — re-executing a
failure is never an improvement, so those propagate immediately.
"""

from __future__ import annotations

import secrets
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.crypto.groups import DeterministicRng
from repro.net.envelopes import Envelope, Kind
from repro.net.transport import (
    RetryableTransportError,
    Transport,
    TransportError,
)


class RpcExhausted(TransportError):
    """Every retry attempt against one destination failed."""

    def __init__(self, dest: int, kind: Kind, attempts: int, last_error):
        super().__init__(
            f"rpc {kind.name} to node {dest} exhausted "
            f"{attempts} attempt(s): {last_error}"
        )
        self.dest = dest
        self.kind = kind
        self.attempts = attempts
        self.last_error = last_error


#: backoff shape: 20 ms doubling per attempt, capped at 2 s, scaled by
#: jitter in [0.5, 1.5) drawn from the policy's dedicated rng.
_BACKOFF_BASE_S = 0.02
_BACKOFF_CAP_S = 2.0
#: delivery attempts per RPC in the stock policy (1 = no retries)
RPC_ATTEMPTS = 4
#: per-PING deadline in seconds: deliberately tight, since a PING that
#: needs 30 s is indistinguishable from a dead peer
HEARTBEAT_TIMEOUT_S = 0.25


@dataclass
class RpcPolicy:
    """Deadlines and retry budget, resolved per envelope kind."""

    base_timeout: float = 30.0
    max_attempts: int = RPC_ATTEMPTS
    kind_timeouts: Dict[Kind, float] = field(default_factory=dict)

    @classmethod
    def default(
        cls,
        base_timeout: Optional[float] = None,
        max_attempts: Optional[int] = None,
        ping_timeout: float = HEARTBEAT_TIMEOUT_S,
    ) -> "RpcPolicy":
        """The stock policy: mixing RPCs (a node re-encrypting and
        shuffling a whole batch, with proofs in the NIZK variant) get 4x
        the base deadline; liveness probes get
        :data:`HEARTBEAT_TIMEOUT_S`.  ``max_attempts`` defaults to
        :data:`RPC_ATTEMPTS`, read at call time."""
        base = base_timeout if base_timeout is not None else 30.0
        return cls(
            base_timeout=base,
            max_attempts=(
                max_attempts if max_attempts is not None else RPC_ATTEMPTS
            ),
            kind_timeouts={
                Kind.MIX: base * 4,
                Kind.PING: ping_timeout,
                Kind.PONG: ping_timeout,
            },
        )

    def timeout_for(self, kind: Kind) -> float:
        return self.kind_timeouts.get(kind, self.base_timeout)

    def attempts_for(self, kind: Kind) -> int:
        # Heartbeats measure liveness; retrying one inside the rpc
        # layer would hide exactly the misses the SuspicionTracker
        # exists to count.
        if kind in (Kind.PING, Kind.PONG):
            return 1
        return self.max_attempts

    def backoff(self, attempt: int, rng: DeterministicRng) -> float:
        """Sleep before retry ``attempt`` (1-based): exponential with
        deterministic jitter so co-retrying callers decorrelate without
        breaking run-to-run reproducibility."""
        u = int.from_bytes(rng.randbytes(4), "big") / 2**32
        return min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2**attempt) * (0.5 + u)


class ResilientTransport(Transport):
    """Transport decorator enforcing an :class:`RpcPolicy`.

    Outgoing envelopes with ``req_id == 0`` are stamped with a unique
    id ``(session_nonce << 32) | counter`` — the random nonce keeps ids
    from colliding across process restarts, so replies journaled by a
    pre-crash session never alias a fresh session's requests.
    """

    def __init__(self, inner: Transport, policy: RpcPolicy, seed: bytes):
        self.inner = inner
        self.policy = policy
        self.name = "rpc+" + inner.name
        self._rng = DeterministicRng(seed)
        self._nonce = int.from_bytes(secrets.token_bytes(4), "big")
        self._counter = 0
        self.retries = 0  # observability: total re-sends this session

    def _next_req_id(self) -> int:
        self._counter += 1
        return (self._nonce << 32) | (self._counter & 0xFFFFFFFF)

    # -- Transport interface (registry delegates straight down) --------

    def register(self, round_id: int, node_id: int, node) -> None:
        self.inner.register(round_id, node_id, node)

    def unregister_round(self, round_id: int) -> None:
        self.inner.unregister_round(round_id)

    def close(self) -> None:
        self.inner.close()

    def request(self, env: Envelope, timeout=None) -> List[Envelope]:
        if env.req_id == 0:
            env.req_id = self._next_req_id()
        deadline = timeout if timeout is not None else (
            self.policy.timeout_for(env.kind)
        )
        attempts = self.policy.attempts_for(env.kind)
        last_error = None
        for attempt in range(1, attempts + 1):
            try:
                return self.inner.request(env, timeout=deadline)
            except RetryableTransportError as exc:
                last_error = exc
                if attempt < attempts:
                    self.retries += 1
                    time.sleep(self.policy.backoff(attempt, self._rng))
        raise RpcExhausted(env.dest, env.kind, attempts, last_error)

    def request_many(
        self, envs: Sequence[Envelope], timeout=None
    ) -> List[List[Envelope]]:
        """Stamp every envelope, fan them out through the inner
        transport, and on a delivery failure re-send each one through
        :meth:`request` under the same ``req_id``: a node whose request
        already ran replays its cached reply, so no mix runs twice."""
        for env in envs:
            if env.req_id == 0:
                env.req_id = self._next_req_id()
        deadline = timeout if timeout is not None else max(
            (self.policy.timeout_for(env.kind) for env in envs),
            default=self.policy.base_timeout,
        )
        try:
            return self.inner.request_many(envs, timeout=deadline)
        except RetryableTransportError:
            self.retries += len(envs)
            return [self.request(env, timeout) for env in envs]


class DedupCache:
    """Bounded LRU of ``req_id -> cached replies`` (node side).

    ``get`` returns ``None`` on a miss — never a cached value — and
    callers must test ``is not None``: a legitimately cached reply list
    can be empty (MIX_BATCH and COMMIT_LAYER reply with ``[]``).
    Failed handlers are *not* cached; a retry re-executes them.
    """

    def __init__(self, capacity: int = 8192):
        self.capacity = capacity
        self._entries: "OrderedDict[int, List[Envelope]]" = OrderedDict()
        self.hits = 0  # observability: replays served from cache

    def get(self, req_id: int) -> Optional[List[Envelope]]:
        if req_id == 0:  # unstamped traffic opts out of dedup
            return None
        replies = self._entries.get(req_id)
        if replies is None:
            return None
        self._entries.move_to_end(req_id)
        self.hits += 1
        return replies

    def put(self, req_id: int, replies: List[Envelope]) -> None:
        if req_id == 0:
            return
        self._entries[req_id] = replies
        self._entries.move_to_end(req_id)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class SuspicionTracker:
    """Per-group consecutive-miss counter behind the heartbeat probes.

    Phi-accrual-lite: a missed PONG increments the group's suspicion, a
    received one clears it, and ``miss_threshold`` consecutive misses
    (each separated by the coordinator's grace sleep) declare the
    endpoint dead.  One slow probe therefore never kills a group — only
    sustained silence does.
    """

    def __init__(self, miss_threshold: int):
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.miss_threshold = miss_threshold
        self._misses: Dict[int, int] = {}
        self.declared: List[int] = []

    def record_miss(self, gid: int) -> int:
        self._misses[gid] = self._misses.get(gid, 0) + 1
        return self._misses[gid]

    def record_pong(self, gid: int) -> None:
        self._misses.pop(gid, None)

    def suspected(self, gid: int) -> bool:
        return self._misses.get(gid, 0) >= self.miss_threshold

    def declare(self, gid: int) -> None:
        """The group is dead as far as this detector is concerned; the
        caller surfaces it as ``GroupStalled`` and recovery takes over."""
        self.declared.append(gid)
        self._misses.pop(gid, None)
