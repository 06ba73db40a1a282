"""Full-deployment orchestration of an Atom round (paper §2, §4).

:class:`AtomDeployment` wires everything together:

1. **Setup** — build the fleet, form the round's groups from beacon
   randomness, place them on the permutation-network topology
   (width = number of groups; each group handles one node per layer),
   and, for the trap variant, set up the trustees.
2. **Submission** — clients pick entry groups; every server of the
   entry group verifies the EncProof NIZKs and rejects duplicates.
3. **Mixing** — T iterations of shuffle → divide → reencrypt across
   the network (Algorithm 1, with Algorithm 2 verification in the NIZK
   variant).  The final iteration re-encrypts to ``⊥``, revealing
   payloads at the exit groups.
4. **Exit** — basic/NIZK: payloads are the messages.  Trap variant:
   traps are routed to their committing entry groups and checked
   against commitments; inner ciphertexts are de-duplicated and
   counted; the trustees release the decryption key only if every
   check passes, after which the inner ciphertexts are opened and the
   cover dummies, which start with :data:`DUMMY_MAGIC`, are dropped
   (so :meth:`AtomDeployment.submit_trap` refuses a user message that
   starts with it).

Since the message-driven redesign the deployment no longer touches
group objects directly: every round gets a
:class:`~repro.net.coordinator.Coordinator` that drives
:class:`~repro.net.nodes.ServerNode`/``TrusteeNode`` services over a
:class:`~repro.net.transport.Transport` (``DeploymentConfig.transport``:
zero-copy in-process by default, loopback TCP for the real service
boundary).  ``submit_*`` builds the client-side submission and ships it
as a SUBMIT envelope; :meth:`AtomDeployment.begin_mixing` hands back
the round's coordinator, which the stream engine steps layer by layer
so its recovery hooks can run in between.  The instrumented byte
counters feed the bandwidth analysis of §6.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import messages as fmt
from repro.core.blame import BlameReport, identify_malicious_users
from repro.core.client import Client, Submission, TrapSubmission
from repro.core.directory import Directory, DirectoryConfig, make_fleet
from repro.core.group import GroupContext, GroupStalled, MixAudit, ProtocolAbort
from repro.core.server import AtomServer
from repro.core.trustees import TrusteeGroup
from repro.crypto.beacon import RandomnessBeacon
from repro.crypto.groups import DeterministicRng, GroupBackend as Group, get_group
from repro.topology import IteratedButterflyNetwork, PermutationNetwork, SquareNetwork

VARIANTS = ("basic", "nizk", "trap")

#: Application-level marker for trap-variant dummy messages (the trap
#: variant's dummies are complete (inner, trap) pairs so they stay
#: indistinguishable in flight; the marker lets exits drop them after
#: decryption).  The random suffix added per dummy makes collisions
#: with user content vanishingly unlikely.
DUMMY_MAGIC = b"\x00__atom_dummy__\x00"


@dataclass
class DeploymentConfig:
    """Knobs for one Atom deployment."""

    num_servers: int = 8
    num_groups: int = 2
    group_size: Optional[int] = 3  # None -> derive from f/G/h (k=32 at scale)
    variant: str = "trap"
    mode: str = "anytrust"  # or "manytrust"
    h: int = 1
    adversarial_fraction: float = 0.2
    iterations: int = 4  # paper uses T=10 at scale
    message_size: int = 32
    crypto_group: str = "TOY"
    topology: str = "square"
    nizk_rounds: int = 6
    num_trustees: int = 3
    seed: bytes = b"repro.deployment"
    #: how envelopes move between nodes: "inproc" (zero-copy direct
    #: dispatch), "tcp" (every node behind one loopback socket) or
    #: "fleet" (groups hosted by separate OS processes per `fleet_plan`)
    transport: str = "inproc"
    #: path to a repro.fleet.plan.DeploymentPlan JSON; required (and
    #: only meaningful) when transport == "fleet"
    fleet_plan: Optional[str] = None
    #: the one data plane, "batch" (contiguous CiphertextBatch
    #: buffers); kept only because the benchmark harness passes it —
    #: ROADMAP item 1 deletes it
    data_plane: str = "batch"
    #: directory for the durable state store (None: in-memory only —
    #: the no-op store, so nothing below pays for durability)
    state_dir: Optional[str] = None
    #: fsync the write-ahead log every N appends (0: only at commit
    #: points, which always sync regardless of this knob)
    wal_fsync_every: int = 8
    #: snapshot node holdings every N committed layers (1: every
    #: commit, so recovery re-mixes nothing)
    checkpoint_every: int = 1
    #: rotate the write-ahead log into a new segment file once the
    #: active one exceeds this many bytes (0: never by size)
    wal_segment_bytes: int = 8 * 1024 * 1024
    #: ... or this many records (0: never by count); tiny values are
    #: the test/smoke lever for exercising rotation on short streams
    wal_segment_records: int = 0
    #: compact once more than N sealed segments have piled up (0:
    #: never auto-compact) — the state-dir disk bound is roughly
    #: (retain + 2) * wal_segment_bytes plus the live suffix
    wal_retain_segments: int = 4
    #: the transport is always wrapped with deadlines/retries/idempotent
    #: request ids; kept only because the benchmark harness passes
    #: ``resilience=True`` — ROADMAP item 1 deletes it
    resilience: bool = True
    #: base RPC deadline in seconds (None: the stock 30 s; mixing RPCs
    #: get 4x, heartbeats get `heartbeat_timeout_s`)
    rpc_timeout: Optional[float] = None
    #: retry budget per RPC (1 = no retries)
    rpc_attempts: int = 4
    #: network fault plan spec (see repro.net.chaos), None = calm net
    net_faults: Optional[str] = None
    #: probe every group with PING before each mixing layer and surface
    #: sustained silence as GroupStalled (-> §4.5 buddy recovery)
    heartbeat: bool = False
    #: consecutive missed PONGs before a group is declared dead
    heartbeat_misses: int = 3
    #: pause between heartbeat re-probes of a silent group (seconds)
    heartbeat_grace_s: float = 0.02
    #: per-PING deadline (seconds) — deliberately tight
    heartbeat_timeout_s: float = 0.25

    def __post_init__(self) -> None:
        from repro.net.transport import TRANSPORTS

        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.mode == "anytrust" and self.h != 1:
            raise ValueError("anytrust deployments have h = 1")
        if self.transport not in TRANSPORTS + ("fleet",):
            raise ValueError(
                f"transport must be one of {TRANSPORTS + ('fleet',)}"
            )
        if self.transport == "fleet" and not self.fleet_plan:
            raise ValueError(
                "transport='fleet' needs fleet_plan (a DeploymentPlan path)"
            )
        if self.data_plane != "batch":
            raise ValueError("data_plane must be 'batch'")
        if self.resilience is not True:
            raise ValueError("resilience must be True")
        if self.message_size < 1:
            raise ValueError("message_size must be >= 1")
        for knob in (
            "wal_segment_bytes", "wal_segment_records", "wal_retain_segments"
        ):
            if getattr(self, knob) < 0:
                raise ValueError(f"{knob} must be >= 0")
        if self.rpc_attempts < 1:
            raise ValueError("rpc_attempts must be >= 1")
        if self.rpc_timeout is not None and self.rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be > 0 seconds")
        if self.heartbeat_misses < 1:
            raise ValueError("heartbeat_misses must be >= 1")
        if self.net_faults is not None:
            # Parse eagerly so a bad spec fails at config time (the CLI
            # surfaces it before any round state exists), and cache the
            # parsed plan for transport assembly.
            from repro.net.chaos import NetFaultPlan

            self._net_fault_plan = NetFaultPlan.parse(self.net_faults)
        else:
            self._net_fault_plan = None


class InnerPayloadForger:
    """Builds a valid trustee-encrypted filler payload for the modeled
    §4.4 attacker (substitutions only the trap mechanism can catch);
    one per round, since each round's trustee key differs."""

    def __init__(self, group, trustee_public, message_size: int, payload_size: int):
        self.group = group
        self.trustee_public = trustee_public
        self.message_size = message_size
        self.payload_size = payload_size

    def __call__(self) -> bytes:
        import secrets as _secrets

        from repro.crypto.kem import cca2_encrypt

        spec = fmt.PayloadSpec.sized(self.payload_size)
        filler = spec.pad_message(_secrets.token_bytes(8), self.message_size)
        inner = cca2_encrypt(self.group, self.trustee_public, filler)
        return spec.build_inner(self.group, inner)


@dataclass
class RoundResult:
    """Outcome of one protocol round."""

    round_id: int
    messages: List[bytes] = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""
    offending_groups: List[int] = field(default_factory=list)
    audits: List[MixAudit] = field(default_factory=list)
    bytes_sent_total: int = 0
    num_traps_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.aborted


class Round:
    """Mutable state of one round in flight."""

    def __init__(
        self,
        round_id: int,
        contexts: List[GroupContext],
        topology: PermutationNetwork,
        trustees: Optional[TrusteeGroup],
        payload_size: int,
    ):
        self.round_id = round_id
        self.contexts = contexts
        self.topology = topology
        self.trustees = trustees
        self.payload_size = payload_size
        #: the round's envelope-driven orchestrator (set by
        #: AtomDeployment.start_round once the nodes are registered)
        self.coordinator = None
        #: this round's attacker-payload builder (trap variant).  Kept on
        #: the Round rather than only on the shared contexts: a stream
        #: reuses one context list across rounds whose trustee keys
        #: differ, so each mixing layer re-installs its own round's
        #: forger before running (Coordinator._sync_contexts).
        self.forger: Optional[InnerPayloadForger] = None
        #: user id -> (gid, trap submission) for blame
        self.trap_submissions: Dict[int, Tuple[int, TrapSubmission]] = {}
        self._next_user_id = 0

    def context(self, gid: int) -> GroupContext:
        return self.contexts[gid]


class AtomDeployment:
    """An in-process Atom network."""

    def __init__(
        self,
        config: DeploymentConfig,
        servers: Optional[Sequence[AtomServer]] = None,
        store=None,
    ):
        self.config = config
        self.group: Group = get_group(config.crypto_group)
        # The durability hook every layer below journals through.  An
        # injected store wins (recovery reopens an existing log);
        # otherwise config.state_dir selects WAL-backed vs no-op.
        if store is not None:
            self.store = store
        elif config.state_dir:
            from repro.store import DurableStore

            self.store = DurableStore(
                config.state_dir,
                self.group,
                config=config,
                fsync_every=config.wal_fsync_every,
                checkpoint_every=config.checkpoint_every,
                segment_bytes=config.wal_segment_bytes,
                segment_records=config.wal_segment_records,
                retain_segments=config.wal_retain_segments,
            )
        else:
            from repro.store import NullStore

            self.store = NullStore()
        self.servers = (
            list(servers)
            if servers is not None
            else make_fleet(config.num_servers, self.group)
        )
        self.directory = Directory(
            self.servers,
            self.group,
            beacon=RandomnessBeacon(config.seed),
            config=DirectoryConfig(
                adversarial_fraction=config.adversarial_fraction,
                h=config.h,
                mode=config.mode,
                group_size=config.group_size,
                nizk_rounds=config.nizk_rounds,
            ),
        )
        self.spec = fmt.PayloadSpec.for_deployment(
            self.group, config.message_size, trap_variant=(config.variant == "trap")
        )
        #: lazily-created transport, shared by every round's coordinator
        #: (TCP keeps its listener and connection across a stream)
        self._transport = None
        #: the fleet and chaos layers of that chain, when assembled
        self.fleet_transport = None
        self._chaos = None

    def transport(self):
        """The deployment's :class:`~repro.net.transport.Transport`.

        Assembled as a decorator chain, outermost first::

            Coordinator -> ResilientTransport -> ChaosTransport -> tcp/inproc

        Chaos sits *below* resilience so injected faults exercise the
        retry/dedup machinery exactly like a real flaky network would.
        Both wrappers draw from rngs derived from the deployment seed —
        never the protocol rng — so enabling them cannot shift a
        round's crypto.
        """
        if self._transport is None:
            from repro.net.transport import make_transport

            cfg = self.config
            if cfg.transport == "fleet":
                from repro.fleet.plan import DeploymentPlan
                from repro.fleet.transport import FleetTransport

                transport = self.fleet_transport = FleetTransport(
                    self.group, DeploymentPlan.load(cfg.fleet_plan)
                )
            else:
                transport = make_transport(cfg.transport, self.group)
            if cfg._net_fault_plan is not None:
                from repro.net.chaos import ChaosTransport

                transport = self._chaos = ChaosTransport(
                    transport, cfg._net_fault_plan, cfg.seed + b"/chaos"
                )
            from repro.net.resilience import ResilientTransport, RpcPolicy

            self._transport = ResilientTransport(
                transport,
                RpcPolicy.default(
                    base_timeout=cfg.rpc_timeout,
                    max_attempts=cfg.rpc_attempts,
                    ping_timeout=cfg.heartbeat_timeout_s,
                ),
                cfg.seed + b"/rpc",
            )
        return self._transport

    def _announce_round(self, round_id: int, fresh: bool, rng) -> None:
        """Tell the fleet layer, if any, that a round is starting."""
        self.transport()
        if self.fleet_transport is not None:
            self.fleet_transport.open_round(round_id, fresh, rng)

    def revive_endpoint(self, gid: int) -> None:
        """Buddy recovery re-hosted ``gid`` at a fresh, reachable
        address: the chaos layer lifts any partition of it, the fleet
        layer drops the dead owner's connection."""
        for layer in (self._chaos, self.fleet_transport):
            if layer is not None:
                layer.revive(gid)

    def close(self) -> None:
        """Shut down the transport and flush (but keep open) the
        state store."""
        if self._transport is not None:
            self._transport.close()
            self._transport = self.fleet_transport = self._chaos = None
        self.store.flush()

    def __enter__(self) -> "AtomDeployment":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        # The context manager owns the state-dir lifecycle: a clean
        # exit leaves a shutdown marker so the next start in the same
        # state dir never replays; a crash (or an exception propagating
        # out of the with-block) leaves the log replayable.
        if exc_type is None:
            self.store.mark_clean()
        self.store.close()

    # -- round lifecycle ---------------------------------------------------

    def start_round(
        self,
        round_id: int = 0,
        rng: Optional[DeterministicRng] = None,
        contexts: Optional[List[GroupContext]] = None,
    ) -> Round:
        """Form groups, build the topology, and (trap variant) trustees.

        Passing ``contexts`` reuses existing groups — their keys, DVSS
        shares, and warm fastexp tables — instead of forming fresh ones.
        The stream engine (:mod:`repro.core.pipeline`) uses this to run
        many consecutive rounds without per-round group setup; trustees
        are still fresh per round (their key is released or deleted at
        every exit).
        """
        cfg = self.config
        # Journal the rng state *before* the first draw: recovery seeks
        # back here and re-forms identical contexts/trustees instead of
        # persisting secret keys.
        self.store.round_setup(round_id, rng, fresh=contexts is None)
        # Fleet processes derive this round's contexts from the same
        # pre-draw rng mark the store journals: announce it before the
        # first draw so remote and local formation are byte-identical.
        self._announce_round(round_id, fresh=contexts is None, rng=rng)
        if contexts is None:
            contexts = self.directory.form_groups(round_id, cfg.num_groups, rng)
        if cfg.topology == "square":
            topology = SquareNetwork(width=cfg.num_groups, depth=cfg.iterations)
        elif cfg.topology == "butterfly":
            log_width = (cfg.num_groups - 1).bit_length()
            if 2 ** log_width != cfg.num_groups:
                raise ValueError("butterfly topology needs a power-of-two group count")
            topology = IteratedButterflyNetwork(log_width=log_width)
        else:
            raise ValueError(f"unknown topology {cfg.topology!r}")
        trustees = (
            TrusteeGroup(self.group, cfg.num_trustees, rng=rng)
            if cfg.variant == "trap"
            else None
        )
        rnd = Round(
            round_id, contexts, topology, trustees, self.spec.payload_size
        )
        if trustees is not None:
            # Arm the strongest modeled attacker: substituted ciphertexts
            # are *valid* inner ciphertexts to the trustees (so only the
            # trap mechanism can catch the substitution — §4.4 analysis).
            rnd.forger = InnerPayloadForger(
                self.group, trustees.public_key, cfg.message_size, self.spec.payload_size
            )
            for ctx in contexts:
                ctx.forge_payload_fn = rnd.forger
        from repro.net.coordinator import Coordinator

        rnd.coordinator = Coordinator(self, rnd, self.transport())
        return rnd

    def required_user_multiple(self) -> int:
        """Smallest user count unit keeping every division exact.

        Each group's entry load must divide by beta at every iteration;
        with width ``G`` (square: beta = G) that means the per-group
        load must be a multiple of ``G`` — i.e. the total user count a
        multiple of ``G^2`` (or ``G^2 / 2`` with trap doubling).
        """
        g = self.config.num_groups
        beta = g if self.config.topology == "square" else 2
        per_user = 2 if self.config.variant == "trap" else 1
        unit = g * beta
        # smallest u with u * per_user divisible by unit
        from math import gcd

        return unit // gcd(unit, per_user)

    # -- submission -----------------------------------------------------------

    def submit_plain(
        self, rnd: Round, message: bytes, entry_gid: int, client: Optional[Client] = None
    ) -> int:
        """Basic/NIZK-variant submission; returns the user id."""
        if self.config.variant == "trap":
            raise ValueError("use submit_trap for the trap variant")
        client = client or Client(self.group)
        ctx = rnd.context(entry_gid)
        submission = client.prepare_plain(
            message, ctx.public_key, entry_gid, self.spec.payload_size
        )
        return self._accept(rnd, entry_gid, [submission], None)

    def submit_trap(
        self, rnd: Round, message: bytes, entry_gid: int, client: Optional[Client] = None
    ) -> int:
        """Trap-variant submission (inner + trap + commitment).  The
        exit drops every message that starts with the cover-dummy
        marker, so a user message that does is refused here."""
        if self.config.variant != "trap":
            raise ValueError("submit_trap requires the trap variant")
        marker = DUMMY_MAGIC[: self.config.message_size]
        if message.startswith(marker):
            raise ValueError(
                f"message starts with the cover-dummy prefix {marker!r}, "
                "which the exit drops"
            )
        return self._submit_trap(rnd, message, entry_gid, client)

    def _submit_trap(
        self, rnd: Round, message: bytes, entry_gid: int, client: Optional[Client]
    ) -> int:
        """:meth:`submit_trap` without the marker check (cover dummies
        carry the marker)."""
        client = client or Client(self.group)
        ctx = rnd.context(entry_gid)
        trap_sub, _ = client.prepare_trap_pair(
            message,
            ctx.public_key,
            rnd.trustees.public_key,
            entry_gid,
            self.spec.payload_size,
            self.config.message_size,
        )
        return self.inject_trap_submission(rnd, entry_gid, trap_sub)

    def inject_trap_submission(
        self, rnd: Round, entry_gid: int, trap_sub: TrapSubmission
    ) -> int:
        """Submit a pre-built (possibly malicious) trap submission —
        used by tests exercising §4.6 blame.  The entry node is the one
        verifier of its EncProofs: a forged proof comes back from
        :meth:`_accept` as ``ValueError``."""
        user_id = self._accept(
            rnd, entry_gid, list(trap_sub.pair), trap_sub.trap_commitment
        )
        rnd.trap_submissions[user_id] = (entry_gid, trap_sub)
        return user_id

    def _accept(
        self,
        rnd: Round,
        gid: int,
        submissions: List[Submission],
        trap_commitment: Optional[bytes],
    ) -> int:
        """Ship the submission(s) to the entry group's node as a SUBMIT
        envelope; the node verifies the EncProofs and rejects exact
        duplicates (raised here as ``ValueError`` with its reason).
        """
        from repro.net import envelopes as ev

        if trap_commitment is not None:
            payload = ev.SubmitTrap(
                TrapSubmission(
                    pair=(submissions[0], submissions[1]),
                    trap_commitment=trap_commitment,
                    gid=gid,
                )
            )
        else:
            payload = ev.SubmitPlain(gid=gid, submission=submissions[0])
        rnd.coordinator.submit(payload, gid)
        user_id = rnd._next_user_id
        rnd._next_user_id += 1
        return user_id

    # -- dummy padding (§3) -------------------------------------------------

    def pad_round(self, rnd: Round, rng: Optional[DeterministicRng] = None) -> int:
        """Top entry groups up with cover dummies until every group's
        load is equal and divides evenly at every iteration (§3: "adding
        a small constant fraction of dummy messages ... lets us use this
        network as if it produced a truly random permutation").

        Returns the number of dummy payloads added.
        """
        import secrets as _secrets
        from math import gcd

        cfg = self.config
        beta = rnd.topology.beta
        counts = rnd.coordinator.intake_counts()
        per_user = 2 if cfg.variant == "trap" else 1
        target = max(counts.values()) if counts else 0
        # round the target up to a multiple of beta (and of the pair
        # size, so trap dummies fit evenly)
        unit = beta * per_user // gcd(beta, per_user)
        target = -(-max(target, 1) // unit) * unit

        added = 0
        client = Client(self.group, rng)
        for gid, count in sorted(counts.items()):
            for _ in range(count, target, per_user):
                if cfg.variant == "trap":
                    filler = DUMMY_MAGIC + _secrets.token_bytes(4)
                    self._submit_trap(rnd, filler[: cfg.message_size], gid, client)
                else:
                    nonce = (
                        rng.randbytes(fmt.DUMMY_NONCE_BYTES)
                        if rng is not None
                        else _secrets.token_bytes(fmt.DUMMY_NONCE_BYTES)
                    )
                    payload = self.spec.build_dummy(nonce)
                    submission = client._submit_payload(
                        payload, rnd.context(gid).public_key, gid
                    )
                    self._accept(rnd, gid, [submission], None)
                added += 1
        return added

    # -- mixing ------------------------------------------------------------------

    def begin_mixing(
        self, rnd: Round, rng: Optional[DeterministicRng] = None
    ) -> "Coordinator":
        """Start the T mixing iterations: the round's
        :class:`~repro.net.coordinator.Coordinator`, ready to step.

        The stream engine calls ``run_layer`` layer by layer so fault
        events can fire and next-round intake can interleave between
        layers; :meth:`run_round` drives it straight through.
        """
        counts = rnd.coordinator.intake_counts()
        if len(set(counts.values())) > 1:
            raise ValueError(f"unbalanced entry load: {counts}")
        rnd.coordinator.rng = rng
        return rnd.coordinator

    def run_round(self, rnd: Round, rng: Optional[DeterministicRng] = None) -> RoundResult:
        """Execute T mixing iterations and the exit protocol."""
        run = self.begin_mixing(rnd, rng)
        try:
            while not run.done:
                run.run_layer()
        except (ProtocolAbort, GroupStalled) as failure:
            return run.abort(failure)
        return run.finish()

    # -- blame -----------------------------------------------------------------------

    def blame(self, rnd: Round) -> BlameReport:
        """Run §4.6 malicious-user identification after an aborted round."""
        return identify_malicious_users(rnd.contexts, rnd.trap_submissions)
