"""Coordinator-side transport for a multi-process fleet.

:class:`FleetTransport` routes each envelope by destination: group ids
assigned in the :class:`~repro.fleet.plan.DeploymentPlan` go over a
persistent :class:`~repro.net.framing.FramedConnection` to the owning
``repro serve`` process, everything else — the
trustee, unassigned groups, buddy-recovered groups re-homed into the
coordinator — dispatches to locally registered nodes, zero-copy.

A mixing layer goes out through :meth:`FleetTransport.request_many`:
every process gets its groups' ``MIX`` frames (in gid order) before any
reply is read, so the processes mix at once — the paper's horizontal
scaling — while each one still sees its requests in the coordinator's
order, which is what keeps rounds deterministic.

The control plane rides the same connection: ``open_round`` broadcasts a
ROUND_OPEN carrying the deterministic-rng epoch mark so every process
re-derives byte-identical GroupContexts, and ``unregister_round``
broadcasts ROUND_CLOSE so settled rounds are dropped (and not replayed
after a restart).

Connection failures surface as
:class:`~repro.net.transport.RetryableTransportError`, so the standard
:class:`~repro.net.resilience.ResilientTransport` wrapper transparently
re-dials a process that was restarted (rolling restart) between
requests.
"""

from __future__ import annotations

import logging
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.groups import GroupBackend as Group
from repro.net import envelopes as ev
from repro.net.envelopes import Envelope
from repro.net.framing import FramedConnection
from repro.net.transport import (
    NodeKey,
    RetryableTransportError,
    Transport,
    TransportError,
)

logger = logging.getLogger(__name__)


class FleetTransport(Transport):
    name = "fleet"

    #: attempts/backoff for control-plane broadcasts (they bypass the
    #: ResilientTransport wrapper, which only sees node-addressed RPCs)
    _CONTROL_ATTEMPTS = 5
    _CONTROL_BACKOFF_S = 0.2
    _CONTROL_TIMEOUT_S = 30.0

    def __init__(self, group: Group, plan):
        self.plan = plan
        #: gid -> owning process name
        self.placement: Dict[int, str] = plan.placement
        #: process name -> its (lazily dialled) connection
        self._conns: Dict[str, FramedConnection] = {
            p.name: FramedConnection(
                (p.host, p.port), group, f"fleet process {p.name!r}"
            )
            for p in plan.processes
        }
        #: gids taken over by the coordinator after buddy recovery of a
        #: dead process — later rounds host them locally from the start
        self.rehomed: set = set()
        self._local: Dict[NodeKey, object] = {}
        #: (epoch_round, seed, counter) — the rng mark remote processes
        #: re-derive the current contexts from; refreshed on fresh opens
        self._epoch: Optional[Tuple[int, bytes, int]] = None

    # -- registry ------------------------------------------------------

    def register(self, round_id: int, node_id: int, node) -> None:
        if node_id in self.placement:
            # Remote-homed: the serve process builds this node itself
            # on ROUND_OPEN; a local registration would shadow it.
            return
        self._local[(round_id, node_id)] = node

    def rehome(self, round_id: int, gid: int, node) -> None:
        """Route ``gid`` to an in-coordinator node from now on: buddy
        recovery rebuilt the group locally after its process died."""
        self.rehomed.add(gid)
        self._local[(round_id, gid)] = node

    def unregister_round(self, round_id: int) -> None:
        for key in [k for k in self._local if k[0] == round_id]:
            del self._local[key]
        close = ev.wrap(
            ev.RoundClose(), round_id, ev.COORDINATOR, ev.CONTROL
        )
        for name in self._conns:
            try:
                self._control(name, close)
            except TransportError as exc:
                # Best-effort: a process that is down right now will
                # drop the round when its WAL replays the next OPEN.
                logger.warning(
                    "fleet: ROUND_CLOSE(%d) to %s failed: %s",
                    round_id, name, exc,
                )

    # -- round lifecycle (called by AtomDeployment) --------------------

    def open_round(self, round_id: int, fresh: bool, rng) -> None:
        """Broadcast the round's rng epoch mark to every process.

        Every call re-announces (even for an already-seen round id):
        a repeated open means the coordinator rebuilt the Round object
        (abort retry, §4.6 rekey) and the processes must reset their
        per-round state to match.
        """
        if rng is None:
            raise TransportError(
                "fleet transport needs a seeded run: remote processes "
                "derive group contexts from the DeterministicRng mark"
            )
        if fresh or self._epoch is None:
            self._epoch = (round_id, rng.seed, rng.counter)
        epoch_round, seed, counter = self._epoch
        payload = ev.RoundOpen(
            fresh=fresh, epoch_round=epoch_round, seed=seed, counter=counter
        )
        for name in self._conns:
            env = ev.wrap(payload, round_id, ev.COORDINATOR, ev.CONTROL)
            try:
                self._control(name, env)
            except TransportError as exc:
                # Best-effort: a dead process cannot open the round, but
                # its groups stall on first contact and buddy recovery
                # re-homes them into the coordinator; failing here would
                # kill the whole stream instead.
                logger.warning(
                    "fleet: ROUND_OPEN(%d) to %s failed: %s",
                    round_id, name, exc,
                )

    def revive(self, gid: int) -> None:
        """Buddy recovery revived ``gid``: drop the cached connection
        to its (dead) owner so nothing reuses the stale socket."""
        name = self.placement.get(gid)
        if name is not None:
            self._conns[name].drop()

    # -- request path --------------------------------------------------

    def _route(self, env: Envelope):
        """The local node serving ``env``, else its process's connection."""
        node = self._local.get((env.round_id, env.dest))
        if node is not None:
            return node
        name = (
            self.placement.get(env.dest)
            if env.dest not in self.rehomed
            else None
        )
        if name is None:
            raise TransportError(
                f"no node {env.dest} registered for round {env.round_id}"
            )
        return self._conns[name]

    def request(self, env: Envelope, timeout=None) -> List[Envelope]:
        return self.request_many([env], timeout)[0]

    def request_many(
        self, envs: Sequence[Envelope], timeout=None
    ) -> List[List[Envelope]]:
        """One layer's fan-out: write every remote envelope's frame to
        its process, handle the coordinator-local ones meanwhile, then
        read each reply in send order — the processes work through
        their shares at once.  Any failure drops every connection
        written to before it propagates: no reply is left unread for a
        later request to take for its own."""
        routes = [self._route(env) for env in envs]  # before any send
        remote = [isinstance(route, FramedConnection) for route in routes]
        results: List[List[Envelope]] = [[] for _ in envs]
        try:
            for env, route, far in zip(envs, routes, remote):
                if far:
                    route.send(env, timeout)
            for i, (env, route, far) in enumerate(zip(envs, routes, remote)):
                if not far:
                    results[i] = route.handle(env)
            for i, (env, route, far) in enumerate(zip(envs, routes, remote)):
                if far:
                    results[i] = route.receive(env, timeout)
        except BaseException:
            for route, far in zip(routes, remote):
                if far:
                    route.drop()
            raise
        return results

    # -- control plane -------------------------------------------------

    def _control(self, name: str, env: Envelope) -> List[Envelope]:
        """Send a control envelope with a built-in retry budget (these
        bypass the ResilientTransport wrapper, which only decorates the
        coordinator's node-addressed RPCs)."""
        last: Optional[Exception] = None
        for attempt in range(self._CONTROL_ATTEMPTS):
            if attempt:
                time.sleep(self._CONTROL_BACKOFF_S * attempt)
            try:
                return self._conns[name].request(
                    env, timeout=self._CONTROL_TIMEOUT_S
                )
            except RetryableTransportError as exc:
                last = exc
        raise TransportError(
            f"control RPC {env.kind.name} to fleet process {name!r} "
            f"failed after {self._CONTROL_ATTEMPTS} attempts: {last}"
        )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        for conn in self._conns.values():
            conn.drop()
        self._local.clear()
