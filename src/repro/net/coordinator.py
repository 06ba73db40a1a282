"""Round orchestration over envelopes.

The :class:`Coordinator` re-implements the round sequence that
``AtomDeployment`` used to run by calling group objects directly —
intake, T mixing layers, exit, trap checks, trustee key release —
purely in terms of :mod:`repro.net.envelopes` messages moved by a
:mod:`repro.net.transport`.  One coordinator drives one round; the
stream engine steps it layer by layer (:meth:`Coordinator.run_layer`)
so fault recovery and pipelined intake can run in between.

Layer protocol (two-phase, so a failed layer changes nothing):

1. ``MIX`` to every group that holds ciphertexts, in gid order, as one
   :meth:`~repro.net.transport.Transport.request_many` (the fleet's
   processes mix at once).
2. Each node replies with its ``MIX_BATCH``/``MIX_SUMMARY`` set or a
   ``FAULT``; the first ``FAULT`` in gid order is raised once all are in.
3. Only when every group succeeded: the buffered ``MIX_BATCH``
   envelopes are delivered to their destination nodes and
   ``COMMIT_LAYER`` adopts them — so any ``FAULT`` leaves every node
   at its pre-layer snapshot (``ABORT_LAYER``) and the layer can be
   retried after §4.5 recovery.

Determinism: when the round runs under a
:class:`~repro.crypto.groups.DeterministicRng`, the coordinator draws
one 32-byte sub-seed per (layer, group) in a fixed order and ships it
in the ``MIX`` envelope; nodes expand it locally.  Both transports
therefore perform byte-identical crypto, which the cross-transport
parity tests assert end to end.

Control plane vs data plane: node *objects* are created here and kept
(on inproc and TCP they live in this process; TCP moves only the
messages), so test instrumentation — context replacement after buddy
recovery, tamper-budget bookkeeping — stays direct object access,
while all round data crosses the transport.  A fleet-homed group's
node lives in a ``repro serve`` process; this process keeps one
unaddressed *shadow* of it (what it accepted, then what it
committed), which intake counts and checkpoints read and
:meth:`Coordinator.rehome_group` adopts when its process dies.
"""

from __future__ import annotations

import hashlib
import logging
import time
from typing import Dict, List, Optional

from repro.core import messages as fmt
from repro.core.batch import CiphertextBatch
from repro.core.group import GroupStalled
from repro.crypto.groups import DeterministicRng
from repro.crypto.kem import cca2_decrypt
from repro.net import envelopes as ev
from repro.net.envelopes import Envelope, Kind
from repro.net.nodes import ServerNode, TrusteeNode, raise_fault
from repro.net.resilience import (
    HEARTBEAT_TIMEOUT_S,
    RpcExhausted,
    SuspicionTracker,
)
from repro.net.transport import Transport, TransportError

#: consecutive missed PONGs before a heartbeat declares a group dead
HEARTBEAT_MISSES = 3
#: pause between heartbeat re-probes of a silent group (seconds)
HEARTBEAT_GRACE_S = 0.02

logger = logging.getLogger(__name__)


class Coordinator:
    """Drives one round of the protocol over a transport."""

    def __init__(self, deployment, rnd, transport: Transport):
        from repro.core.protocol import RoundResult

        self.deployment = deployment
        self.rnd = rnd
        self.transport = transport
        self.round_id = rnd.round_id
        self.rng: Optional[DeterministicRng] = None
        self.layer = 0
        self.result = RoundResult(round_id=rnd.round_id)
        self._released = False
        self.store = deployment.store

        # Placement: under a fleet transport, gids assigned in the
        # deployment plan live in other OS processes — no local node is
        # built for them; everything else (all gids on inproc/tcp, plus
        # unassigned gids and the trustee under a fleet) stays local.
        self._fleet = deployment.fleet_transport
        placed = (
            set(self._fleet.placement) - self._fleet.rehomed
            if self._fleet is not None
            else set()
        )
        self.gids: List[int] = sorted(ctx.gid for ctx in rnd.contexts)
        self.nodes: Dict[int, ServerNode] = {}
        #: a fleet-homed group's node as this process last saw it: what
        #: it accepted at intake (SUBMIT_OK), then each committed layer
        #: — never registered or addressed, only read (intake counts,
        #: checkpoints) and adopted by rehome_group
        self._shadows: Dict[int, ServerNode] = {}
        for ctx in rnd.contexts:
            homes = self._shadows if ctx.gid in placed else self.nodes
            homes[ctx.gid] = self._new_node(ctx)
        for gid, node in self.nodes.items():
            transport.register(rnd.round_id, gid, node)
        self.trustee_node: Optional[TrusteeNode] = None
        if rnd.trustees is not None:
            self.trustee_node = TrusteeNode(rnd.trustees, rnd.round_id)
            transport.register(rnd.round_id, ev.TRUSTEE, self.trustee_node)
        #: heartbeat failure detector (None when cfg.heartbeat is off)
        self.suspicion: Optional[SuspicionTracker] = (
            SuspicionTracker(HEARTBEAT_MISSES)
            if deployment.config.heartbeat
            else None
        )

    # -- plumbing ------------------------------------------------------

    def _new_node(self, ctx) -> ServerNode:
        return ServerNode(
            ctx, self.round_id, self.deployment.config.variant,
            store=self.store,
        )

    def _send(self, payload, dest: int, req_id: int = 0) -> List[Envelope]:
        return self.transport.request(
            ev.wrap(payload, self.round_id, ev.COORDINATOR, dest, req_id=req_id)
        )

    def release(self) -> None:
        """Drop this round's endpoints (idempotent; streams call it
        once a round settles so transports don't accumulate nodes)."""
        if not self._released:
            self._released = True
            self.transport.unregister_round(self.round_id)

    # -- intake --------------------------------------------------------

    def submit(self, payload, gid: int, req_id: int = 0) -> int:
        """Route one intake envelope; returns the accepted-ciphertext
        count or raises ``ValueError`` with the node's reason.

        ``req_id`` lets WAL replay re-ship a journaled envelope under
        its *original* request id, so replayed intake keeps the exact
        dedup identity it had before the crash."""
        replies = self._send(payload, gid, req_id=req_id)
        reply = replies[0].payload
        if isinstance(reply, ev.SubmitErr):
            raise ValueError(reply.reason)
        shadow = self._shadows.get(gid)
        if shadow is not None:
            if isinstance(payload, ev.SubmitTrap):
                sub = payload.submission
                shadow.admit(sub.pair, sub.trap_commitment)
            else:
                shadow.admit((payload.submission,), None)
        return reply.accepted

    def intake_counts(self) -> Dict[int, int]:
        return {gid: len(self._holdings_view(gid)) for gid in self.gids}

    def _holdings_view(self, gid: int):
        """A group's current holdings: its local node's, or for a
        fleet-homed group its shadow's."""
        node = self.nodes.get(gid)
        return (node if node is not None else self._shadows[gid]).holdings

    # -- mixing --------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.layer >= self.rnd.topology.depth

    @property
    def remaining_layers(self) -> int:
        return self.rnd.topology.depth - self.layer

    def _sync_contexts(self) -> None:
        """Control plane: adopt context swaps (§4.5 buddy recovery) and
        pin this round's attacker-payload forger before mixing."""
        rnd = self.rnd
        for gid, node in self.nodes.items():
            node.ctx = rnd.contexts[gid]
            if rnd.forger is not None:
                node.ctx.forge_payload_fn = rnd.forger

    # -- health --------------------------------------------------------

    def probe_health(self) -> None:
        """Heartbeat every group before the layer touches it.  Runs
        *after* ``_sync_contexts`` so a freshly recovered group is
        probed through its restored context, not the dead one."""
        if self.suspicion is None:
            return
        for gid in self.gids:
            self._probe_node(gid)

    def _probe_node(self, gid: int) -> None:
        """PING until answered or declared dead.  Deliberately *not*
        routed through the retry machinery (the policy gives PING one
        attempt): each miss must reach the SuspicionTracker — retries
        hiding misses would defeat the detector."""
        tracker = self.suspicion
        while True:
            try:
                replies = self.transport.request(
                    ev.wrap(ev.Ping(), self.round_id, ev.COORDINATOR, gid),
                    timeout=HEARTBEAT_TIMEOUT_S,
                )
            except TransportError:
                if tracker.record_miss(gid) >= tracker.miss_threshold:
                    tracker.declare(gid)
                    raise GroupStalled(
                        gid, 0, self.rnd.context(gid).threshold
                    ) from None
                time.sleep(HEARTBEAT_GRACE_S)
                continue
            tracker.record_pong(gid)
            pong = replies[0].payload
            if pong.alive < pong.needed:
                # The endpoint answers but the group lost its quorum:
                # same recovery path, better diagnosis.
                raise GroupStalled(gid, pong.alive, pong.needed)
            return

    def run_layer(self) -> None:
        """Mix one layer across all groups (Algorithm 1/2) atomically:
        a layer that raises leaves every node untouched, so after §4.5
        recovery of a :class:`GroupStalled` group (restored context in
        ``rnd.contexts``) calling this again retries the same layer."""
        if self.done:
            raise RuntimeError("all mixing layers already complete")
        if self.layer == 0:
            # The rng mark before the first sub-seed draw: a crash with
            # no committed layer yet resumes mixing from here.  Layer-0
            # retries after buddy recovery refresh the mark — the retry
            # draws from the advanced rng, and the reader takes the
            # latest mark.
            self.store.mixing_begin(self.round_id, self.rng)
        self._sync_contexts()
        self.probe_health()
        rnd = self.rnd
        topo = rnd.topology
        layer = self.layer
        last = layer == topo.depth - 1

        # Sub-seeds are drawn in gid order before anything is sent, so
        # the draw order is the same however the layer fans out.
        mixes = []
        for gid in self.gids:
            if not self._holdings_view(gid):
                continue
            if last:
                successors = (gid,)
                next_keys = (None,)
            else:
                successors = tuple(topo.successors(layer, gid))
                next_keys = tuple(
                    rnd.context(succ).public_key for succ in successors
                )
            seed = self.rng.randbytes(32) if self.rng is not None else None
            mixes.append(ev.wrap(
                ev.Mix(
                    layer=layer, successors=successors,
                    next_keys=next_keys, seed=seed,
                ),
                self.round_id, ev.COORDINATOR, gid,
            ))

        batches: List[Envelope] = []
        audits = []
        budgets = [  # control plane, see the module docstring
            (server, server.tamper_budget)
            for ctx in rnd.contexts
            for server in ctx.servers
            if server.is_malicious
        ]
        try:
            try:
                results = self.transport.request_many(mixes)
            except RpcExhausted as exc:
                # An unreachable group (retries exhausted) becomes
                # GroupStalled, the signal §4.5 buddy recovery already
                # handles: nothing has mutated yet, so the layer as a
                # whole can be retried against the recovered group.
                raise GroupStalled(
                    exc.dest, 0, rnd.context(exc.dest).threshold
                ) from exc
            # Every reply is in; the first FAULT in gid order wins.
            for replies in results:
                self._sort_mix_replies(replies, batches, audits)
        except Exception:
            self._abort_layer(layer)
            # The layer's outputs are discarded, so a tampering that
            # happened in them must not silently count as used.
            for server, budget in budgets:
                server.tamper_budget = budget
            raise

        # Whole layer succeeded: deliver hand-offs, then commit.  A
        # transport failure in here is fatal to the round (nothing
        # catches it for retry — recovery only retries GroupStalled,
        # which is raised above, before any delivery); the best-effort
        # ABORT_LAYER still clears staged state on reachable nodes.
        try:
            for env in batches:
                self.transport.request(env)
            for gid in self.gids:
                self._send(ev.CommitLayer(layer=layer), gid)
        except Exception:
            self._abort_layer(layer)
            raise
        if self._shadows:
            # Replay the nodes' sender-sorted adoption so every shadow
            # is byte-identical to its fleet node's committed holdings.
            staged: Dict[int, List] = {gid: [] for gid in self._shadows}
            for env in batches:
                if env.dest in staged:
                    staged[env.dest].append((env.sender, env.payload.batch))
            group = self.deployment.group
            for gid, pairs in staged.items():
                pairs.sort(key=lambda p: p[0])
                self._shadows[gid].adopt(CiphertextBatch.concat(
                    group, (batch for _, batch in pairs)
                ))
        # Canonical per-layer audit order: by gid (the order replies
        # are filed in, so this only pins it).
        audits.sort(key=lambda a: a.gid)
        for audit in audits:
            self.result.audits.append(audit)
            self.result.bytes_sent_total += audit.bytes_sent
        self.layer += 1
        if self.store.enabled:
            # Journal the committed layer: rng state + audits, plus a
            # holdings snapshot per the checkpoint cadence.  Gated on
            # `enabled` so the no-op default never builds the snapshot.
            self.store.layer_commit(
                self.round_id,
                self.layer,
                self.rng,
                audits,
                # Checkpoint bytes are encoded synchronously inside
                # layer_commit, so the containers pass through uncopied.
                {gid: self._holdings_view(gid) for gid in self.gids},
            )

    def _sort_mix_replies(self, replies, batches, audits) -> None:
        """File a node's MIX replies; FAULTs become raised exceptions."""
        for env in replies:
            if env.kind is Kind.FAULT:
                raise_fault(env.payload)
        for env in replies:
            if env.kind is Kind.MIX_BATCH:
                batches.append(env)
            elif env.kind is Kind.MIX_SUMMARY:
                audits.append(env.payload.audit)

    def _abort_layer(self, layer: int) -> None:
        for gid in self.gids:
            try:
                self._send(ev.AbortLayer(layer=layer), gid)
            except TransportError as exc:
                logger.warning(
                    "round %s layer %d: ABORT_LAYER to group %d failed: %s",
                    self.round_id, layer, gid, exc,
                )

    # -- recovery ------------------------------------------------------

    def rehome_group(self, gid: int) -> None:
        """§4.5 buddy recovery rebuilt a fleet-homed group whose OS
        process died: host the restored group in-coordinator from now
        on.  The dead process cannot come back with its pre-layer
        state, but the group's shadow holds exactly that snapshot —
        holdings, trap commitments and duplicate filter — so the
        shadow becomes the group's node."""
        node = self._shadows.pop(gid, None)
        if node is None:
            return
        node.ctx = self.rnd.contexts[gid]
        self.nodes[gid] = node
        self._fleet.rehome(self.round_id, gid, node)

    # -- exit ----------------------------------------------------------

    def abort(self, failure: RuntimeError):
        """Record an unrecovered protocol failure and release the
        round's endpoints (the round is over either way)."""
        self.result.aborted = True
        self.result.abort_reason = str(failure)
        self.result.offending_groups = [failure.gid]
        self.store.round_end(self.round_id, ok=False)
        self.release()
        return self.result

    def finish(self):
        """Run the exit protocol over the fully mixed holdings."""
        if not self.done:
            raise RuntimeError(f"{self.remaining_layers} mixing layers remain")
        payloads_by_gid: Dict[int, List[bytes]] = {}
        for gid in self.gids:
            replies = self._send(ev.Exit(), gid)
            payloads_by_gid[gid] = list(replies[0].payload.payloads)
        try:
            if self.deployment.config.variant == "trap":
                result = self._trap_exit(payloads_by_gid)
            else:
                result = self._plain_exit(payloads_by_gid)
            self.store.round_end(self.round_id, ok=result.ok)
            return result
        finally:
            # The round is settled: drop its endpoints so repeated
            # run_round calls on one deployment don't accumulate node
            # registrations.
            self.release()

    def _plain_exit(self, payloads_by_gid: Dict[int, List[bytes]]):
        """Basic/NIZK exit: parse payloads, drop cover dummies (§3)."""
        result = self.result
        spec = self.deployment.spec
        for gid in sorted(payloads_by_gid):
            for payload in payloads_by_gid[gid]:
                if spec.is_dummy(payload):
                    continue  # cover traffic, discarded at exit (§3)
                try:
                    result.messages.append(spec.parse_plain(payload))
                except fmt.MessageFormatError:
                    result.aborted = True
                    result.abort_reason = "malformed payload at exit"
                    result.offending_groups.append(gid)
        return result

    def _trap_exit(self, payloads_by_gid: Dict[int, List[bytes]]):
        """§4.4 over envelopes: sort traps and inner ciphertexts, have
        every entry group check and report, ask the trustees to release,
        open.  The coordinator performs the sort-and-forward step (the
        last servers' routing) and the *global* inner-ciphertext
        de-duplication, which in the paper is an inter-group exchange.
        """
        result = self.result
        cfg = self.deployment.config
        spec = self.deployment.spec
        num_groups = cfg.num_groups

        traps_for_gid: Dict[int, List[bytes]] = {g: [] for g in range(num_groups)}
        inners_for_gid: Dict[int, List[bytes]] = {g: [] for g in range(num_groups)}
        malformed_from: List[int] = []
        for gid in sorted(payloads_by_gid):
            for payload in payloads_by_gid[gid]:
                if spec.is_trap(payload):
                    trap_gid, _ = spec.parse_trap(payload)
                    if 0 <= trap_gid < num_groups:
                        traps_for_gid[trap_gid].append(payload)
                    else:
                        malformed_from.append(gid)
                elif spec.is_inner(payload):
                    # Universal-hash load balancing of inner ciphertexts.
                    digest = hashlib.sha3_256(payload).digest()
                    target = int.from_bytes(digest[:8], "big") % num_groups
                    inners_for_gid[target].append(payload)
                else:
                    malformed_from.append(gid)

        # Global duplicate detection across the assigned inner sets.
        seen_inner: set = set()
        inner_ok_for_gid: Dict[int, bool] = {}
        for gid in range(num_groups):
            inner_ok = gid not in malformed_from
            for inner in inners_for_gid[gid]:
                if inner in seen_inner:
                    inner_ok = False
                seen_inner.add(inner)
            inner_ok_for_gid[gid] = inner_ok

        # Each entry group checks its traps and reports to the trustees.
        for gid in range(num_groups):
            replies = self._send(
                ev.TrapCheck(
                    traps=tuple(traps_for_gid[gid]),
                    inner_ok=inner_ok_for_gid[gid],
                    num_inner=len(inners_for_gid[gid]),
                ),
                gid,
            )
            for env in replies:
                if env.kind is Kind.GROUP_REPORT:
                    self.transport.request(env)  # forward to the trustees
        result.num_traps_checked = sum(len(t) for t in traps_for_gid.values())

        decision = self._send(
            ev.KeyRequest(expected_groups=num_groups), ev.TRUSTEE
        )[0]
        if decision.kind is Kind.KEY_WITHHELD:
            result.aborted = True
            result.abort_reason = decision.payload.reason
            result.offending_groups = list(decision.payload.offending_gids)
            return result

        from repro.core.protocol import DUMMY_MAGIC

        secret = decision.payload.secret
        group = self.deployment.group
        marker = DUMMY_MAGIC[: cfg.message_size]
        for gid in range(num_groups):
            for payload in inners_for_gid[gid]:
                inner = spec.parse_inner(group, payload)
                try:
                    message = spec.unpad(cca2_decrypt(group, secret, inner))
                except ValueError:
                    # IND-CCA2: a mauled inner ciphertext fails to open
                    # (AuthenticationError, MessageFormatError and the
                    # "too short" errors are all ValueErrors).
                    result.aborted = True
                    result.abort_reason = "inner ciphertext failed authentication"
                    result.offending_groups.append(gid)
                    continue
                if not message.startswith(marker):  # else a cover dummy
                    result.messages.append(message)
        return result
