"""Node services: the server side of the message-driven protocol.

A :class:`ServerNode` hosts one mixing group (the paper's unit of
placement: "each group handles one node per layer") behind a single
``handle(envelope) -> [envelope]`` method; a :class:`TrusteeNode` does
the same for the trap variant's trustee group.  Nodes own the state
the old :class:`~repro.core.protocol.AtomDeployment` kept per group in
its ``Round`` — holdings, the duplicate-submission filter, trap
commitments — and mutate it only through envelopes, so a node can sit
behind any :class:`~repro.net.transport.Transport`.  The exception is
a fleet-homed group's coordinator-side shadow, which is never
addressed: the coordinator feeds it (:meth:`ServerNode.admit`,
:meth:`ServerNode.adopt`) what the remote node accepted and committed.
Holdings are one contiguous :class:`~repro.core.batch.CiphertextBatch`
in memory: the mix kernels read it directly, and a committed layer
replaces it.

Layer atomicity: a ``MIX`` request computes outgoing batches but
does **not** advance holdings;
the coordinator delivers ``MIX_BATCH`` envelopes and then commits the
layer with ``COMMIT_LAYER`` only once every group succeeded, so a
failed layer leaves every node at its pre-layer snapshot and can be
retried (buddy recovery, §4.5).

Control plane vs data plane: everything a round *routes* travels as
envelopes.  Test instrumentation (fault injection flags, tamper-budget
bookkeeping, context replacement after buddy recovery) remains direct
object access by the engine — nodes always live in the coordinator's
process even under the TCP transport, which moves only the messages.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.batch import CiphertextBatch, vector_fingerprint
from repro.core.client import Submission, TrapSubmission
from repro.core.group import GroupContext, GroupStalled, ProtocolAbort
from repro.core.trustees import GroupReport, KeyWithheld, TrusteeGroup
from repro.crypto.commit import commit
from repro.crypto.groups import DeterministicRng
from repro.crypto.vector import plaintext_of
from repro.net import envelopes as ev
from repro.net.envelopes import Envelope, Kind
from repro.net.resilience import DedupCache


def _fault_from(exc: Exception) -> ev.Fault:
    """Translate a protocol exception into a FAULT payload."""
    if isinstance(exc, ProtocolAbort):
        return ev.Fault(
            code="abort", gid=exc.gid, culprit=exc.culprit, stage=exc.stage
        )
    if isinstance(exc, GroupStalled):
        return ev.Fault(
            code="stalled", gid=exc.gid, alive=exc.alive, needed=exc.needed
        )
    return ev.Fault(code="error", message=repr(exc))


def raise_fault(fault: ev.Fault) -> None:
    """Reconstruct and raise the exception a FAULT payload describes."""
    if fault.code == "abort":
        raise ProtocolAbort(fault.gid, fault.culprit, fault.stage)
    if fault.code == "stalled":
        raise GroupStalled(fault.gid, fault.alive, fault.needed)
    raise RuntimeError(fault.message or fault.code)


class ServerNode:
    """One mixing group as an addressable service."""

    def __init__(
        self,
        ctx: GroupContext,
        round_id: int,
        variant: str,
        store=None,
    ):
        from repro.store import NullStore

        self.ctx = ctx
        self.round_id = round_id
        self.variant = variant
        #: durability hook: accepted intake envelopes are journaled
        #: node-side, so the write-ahead log holds exactly the wire
        #: bytes this node admitted — on either transport
        self.store = store if store is not None else NullStore()
        #: vectors awaiting the next mixing layer, as one contiguous
        #: CiphertextBatch buffer
        self.holdings = CiphertextBatch(ctx.group)
        #: trap commitments registered at submission time
        self.commitments: List[bytes] = []
        #: duplicate-submission filter (exact-copy replay, §2.3)
        self._seen = set()
        #: batches delivered for the in-flight layer, adopted on commit
        #: as (sender, vectors) so adoption can sort by sender — batch
        #: arrival order is immaterial (chaos reorder, fan-out order)
        self._pending: List = []
        #: request-id dedup: retried/duplicated requests replay their
        #: cached replies instead of re-executing (idempotent delivery)
        self._dedup = DedupCache()

    @property
    def gid(self) -> int:
        return self.ctx.gid

    def adopt(self, holdings: CiphertextBatch) -> None:
        """Make ``holdings`` current (a committed layer, or a recovered
        snapshot)."""
        self.holdings = holdings

    # -- dispatch ------------------------------------------------------

    _HANDLERS = {
        Kind.SUBMIT_PLAIN: "_on_submit_plain",
        Kind.SUBMIT_TRAP: "_on_submit_trap",
        Kind.MIX: "_on_mix",
        Kind.MIX_BATCH: "_on_mix_batch",
        Kind.COMMIT_LAYER: "_on_commit_layer",
        Kind.ABORT_LAYER: "_on_abort_layer",
        Kind.EXIT: "_on_exit",
        Kind.TRAP_CHECK: "_on_trap_check",
        Kind.PING: "_on_ping",
    }

    def handle(self, env: Envelope) -> List[Envelope]:
        cached = self._dedup.get(env.req_id)
        if cached is not None:
            return cached
        name = self._HANDLERS.get(env.kind)
        if name is None:
            raise ValueError(
                f"server node {self.gid} cannot handle {env.kind.name}"
            )
        replies = getattr(self, name)(env)
        if (
            env.kind in (Kind.SUBMIT_PLAIN, Kind.SUBMIT_TRAP)
            and replies
            and replies[0].kind is Kind.SUBMIT_OK
        ):
            # Journal only *accepted* submissions: rejected ones left
            # no state behind, so replay must not see them either.
            self.store.envelope_accepted(env, self.ctx.group)
        # Cached only after full success (journal included): a handler
        # that raised is retried for real, never replayed from cache.
        self._dedup.put(env.req_id, replies)
        return replies

    def _reply(self, payload, dest: int = ev.COORDINATOR) -> Envelope:
        return ev.wrap(payload, self.round_id, self.gid, dest)

    # -- intake --------------------------------------------------------

    def _accept_submissions(
        self, subs: List[Submission], trap_commitment: Optional[bytes]
    ) -> List[Envelope]:
        """Every server of the entry group verifies the EncProof NIZKs
        and exact duplicates are rejected; commitments are recorded.

        Atomic: all parts are validated before any state mutates, so a
        rejected trap pair leaves no stray vector behind — a fleet
        node and its coordinator-side shadow (updated only on
        SUBMIT_OK) can never diverge.
        """
        group = self.ctx.group
        fingerprints = []
        for sub in subs:
            if not sub.verify(group, self.ctx.public_key, self.gid):
                return [
                    self._reply(
                        ev.SubmitErr("EncProof verification failed at entry")
                    )
                ]
            fingerprint = vector_fingerprint(sub.vector)
            if fingerprint in self._seen or fingerprint in fingerprints:
                return [
                    self._reply(
                        ev.SubmitErr("duplicate ciphertext submission rejected")
                    )
                ]
            fingerprints.append(fingerprint)
        self.admit(subs, trap_commitment, fingerprints)
        return [self._reply(ev.SubmitOk(accepted=len(subs)))]

    def admit(
        self,
        subs: Sequence[Submission],
        trap_commitment: Optional[bytes],
        fingerprints: Optional[List[bytes]] = None,
    ) -> None:
        """Record accepted submissions: holdings, duplicate filter and
        trap commitment.  A coordinator-side shadow records what its
        fleet node accepted this way, hashing the fingerprints itself."""
        if fingerprints is None:
            fingerprints = [vector_fingerprint(sub.vector) for sub in subs]
        self._seen.update(fingerprints)
        for sub in subs:
            self.holdings.append(sub.vector)
        if trap_commitment is not None:
            self.commitments.append(trap_commitment)

    def _on_submit_plain(self, env: Envelope) -> List[Envelope]:
        payload: ev.SubmitPlain = env.payload
        if payload.gid != self.gid:
            return [self._reply(ev.SubmitErr("submission addressed to wrong group"))]
        return self._accept_submissions([payload.submission], None)

    def _on_submit_trap(self, env: Envelope) -> List[Envelope]:
        sub: TrapSubmission = env.payload.submission
        if sub.gid != self.gid:
            return [self._reply(ev.SubmitErr("submission addressed to wrong group"))]
        return self._accept_submissions(list(sub.pair), sub.trap_commitment)

    # -- mixing --------------------------------------------------------

    def _on_mix(self, env: Envelope) -> List[Envelope]:
        payload: ev.Mix = env.payload
        rng = DeterministicRng(payload.seed) if payload.seed is not None else None
        try:
            if self.variant == "nizk":
                batches, audit = self.ctx.mix_with_reenc_proofs(
                    self.holdings, list(payload.next_keys), rng
                )
            else:
                batches, audit = self.ctx.mix_batch(
                    self.holdings, list(payload.next_keys), rng
                )
        except (ProtocolAbort, GroupStalled) as exc:
            return [self._reply(_fault_from(exc))]
        # The outgoing buffers are spliced onto the wire (or handed
        # through zero-copy in-process) without re-encoding.
        replies = [
            self._reply(ev.MixBatch(payload.layer, batch), dest=succ)
            for succ, batch in zip(payload.successors, batches)
        ]
        replies.append(
            self._reply(ev.MixSummary(layer=payload.layer, audit=audit))
        )
        return replies

    def _on_mix_batch(self, env: Envelope) -> List[Envelope]:
        self._pending.append((env.sender, env.payload))
        return []

    def _on_commit_layer(self, env: Envelope) -> List[Envelope]:
        # Adopt sorted by sender: batch arrival order carries no
        # meaning (the mix permutes anyway), and sorting makes chaos
        # reordering invisible to the committed state.  Adopted by
        # buffer splice: wire-decoded batches are never turned into
        # object graphs here.
        holdings = CiphertextBatch(self.ctx.group)
        for _, payload in sorted(self._pending, key=lambda p: p[0]):
            holdings.extend(payload.batch)
        self.adopt(holdings)
        self._pending = []
        return []

    def _on_abort_layer(self, env: Envelope) -> List[Envelope]:
        self._pending = []
        return []

    # -- exit ----------------------------------------------------------

    def _on_exit(self, env: Envelope) -> List[Envelope]:
        payloads = tuple(
            plaintext_of(self.ctx.scheme, vec) for vec in self.holdings
        )
        return [self._reply(ev.ExitPayloads(payloads=payloads))]

    def _on_trap_check(self, env: Envelope) -> List[Envelope]:
        """§4.4: check the traps routed back to this entry group against
        its registered commitments and report to the trustees."""
        payload: ev.TrapCheck = env.payload
        expected = {bytes(c) for c in self.commitments}
        got = {commit(t) for t in payload.traps}
        traps_ok = expected == got and len(payload.traps) == len(self.commitments)
        report = GroupReport(
            gid=self.gid,
            traps_ok=traps_ok,
            inner_ok=payload.inner_ok,
            num_traps=len(payload.traps),
            num_inner=payload.num_inner,
        )
        return [self._reply(ev.GroupReportMsg(report), dest=ev.TRUSTEE)]

    # -- health --------------------------------------------------------

    def _on_ping(self, env: Envelope) -> List[Envelope]:
        """Heartbeat: alive, and here is the group's quorum health —
        the detector also catches a group whose servers died without
        the endpoint itself going dark."""
        return [
            self._reply(
                ev.Pong(
                    gid=self.gid,
                    alive=len(self.ctx.alive_positions()),
                    needed=self.ctx.threshold,
                )
            )
        ]


class TrusteeNode:
    """The trustee group as an addressable service (trap variant)."""

    def __init__(self, trustees: TrusteeGroup, round_id: int):
        self.trustees = trustees
        self.round_id = round_id
        self._dedup = DedupCache()

    def handle(self, env: Envelope) -> List[Envelope]:
        cached = self._dedup.get(env.req_id)
        if cached is not None:
            return cached
        replies = self._dispatch(env)
        self._dedup.put(env.req_id, replies)
        return replies

    def _dispatch(self, env: Envelope) -> List[Envelope]:
        if env.kind is Kind.GROUP_REPORT:
            self.trustees.submit_report(env.payload.report)
            return [
                ev.wrap(ev.ReportOk(), self.round_id, ev.TRUSTEE, env.sender)
            ]
        if env.kind is Kind.KEY_REQUEST:
            try:
                shares = self.trustees.evaluate(
                    expected_groups=env.payload.expected_groups
                )
            except KeyWithheld as withheld:
                return [
                    ev.wrap(
                        ev.KeyWithheldMsg(
                            reason=str(withheld),
                            offending_gids=tuple(withheld.offending_gids),
                        ),
                        self.round_id, ev.TRUSTEE, env.sender,
                    )
                ]
            return [
                ev.wrap(
                    ev.KeyRelease(
                        secret=self.trustees.secret_key(), shares=tuple(shares)
                    ),
                    self.round_id, ev.TRUSTEE, env.sender,
                )
            ]
        raise ValueError(f"trustee node cannot handle {env.kind.name}")
