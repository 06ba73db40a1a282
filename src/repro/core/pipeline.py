"""Multi-round pipelined deployment engine with live churn (§4.5–§4.7).

The paper's headline result is sustained *streams* of rounds, and its
robustness story only matters when failures hit a running deployment.
:class:`StreamEngine` runs N consecutive rounds over one persistent
:class:`~repro.core.protocol.AtomDeployment`:

- **Key and cache reuse** — the round's group contexts (and with them
  the DVSS shares, group keys, and warm fastexp tables) are formed once
  and reused for every round of the stream; only the trustee key is
  per-round (it is released or deleted at every exit).  Buddy escrows
  (§4.5) are set up once at stream start, cyclically: group ``g``
  escrows its member shares with group ``(g+1) mod G``.
- **Pipelined intake** — submission intake for round ``r+1`` is
  interleaved with the mixing of round ``r``: after each mixing layer
  the engine verifies a slice of the next round's pending submissions,
  so intake cost rides inside the mixing window (§4.7's pipelining,
  realized cooperatively on one core; with dedicated cores the same
  schedule overlaps in wall clock — see ``sim/pipeline.py``).
- **Live churn** — a declarative :class:`FaultSchedule` fires fail-stop,
  recovery, tampering, and malicious-user events at round/iteration
  granularity.  A group that stalls beyond ``h-1`` losses mid-layer is
  restored from buddy escrows with fresh replacement servers — same
  group key, no rekeying — and the layer retries (§4.5, end to end).
- **Blame and retry** — an aborted trap round runs §4.6 identification;
  the engine then *rekeys* the compromised entry groups (blame reveals
  their per-round keys, which a stream would otherwise keep using),
  re-escrows, and retries the round with the honest submissions, so
  honest users' messages survive disruption.

Fault-schedule grammar (also accepted by ``repro.cli run-stream``)::

    spec    := event (';' event)*
    event   := 'r' ROUND ['.i' ITER] ':' action
    action  := 'fail:' SERVER_ID
             | 'recover:' SERVER_ID
             | 'fail-group:' GID ':' COUNT
             | 'tamper:' SERVER_ID ':' BEHAVIOR
             | 'tamper-group:' GID ':' POSITION ':' BEHAVIOR
             | 'user:' ATTACK '@' GID

``BEHAVIOR`` is a :class:`~repro.core.server.Behavior` value
(``replace_one``, ``drop_one``, ``duplicate_one``, ``bad_shuffle``);
``ATTACK`` is one of ``bad_commitment``, ``duplicate_inner``,
``two_traps``.  Events without ``.i`` fire before the round's first
layer; ``.i`` fires before that mixing iteration.  User attacks are
injected during the round's intake.  Example::

    r2.i1:fail-group:0:2;r5:tamper-group:1:0:replace_one;r8:user:duplicate_inner@1
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import messages as fmt
from repro.core.client import Client, TrapSubmission
from repro.core.faults import BuddySystem
from repro.core.group import GroupStalled, ProtocolAbort
from repro.core.protocol import AtomDeployment, DeploymentConfig, Round, RoundResult
from repro.core.server import AtomServer, Behavior
from repro.crypto.commit import commit
from repro.crypto.groups import DeterministicRng
from repro.crypto.kem import cca2_encrypt
from repro.topology import IteratedButterflyNetwork, SquareNetwork

USER_ATTACKS = ("bad_commitment", "duplicate_inner", "two_traps")

SERVER_ACTIONS = ("fail", "recover", "fail-group", "tamper", "tamper-group")


class FaultScheduleError(ValueError):
    """A fault-schedule spec could not be parsed or applied."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, fired at (round, iteration) granularity."""

    round: int
    action: str  # one of SERVER_ACTIONS or "user"
    target: int  # server id (fail/recover/tamper) or gid (group/user events)
    iteration: Optional[int] = None  # None: before the round's first layer
    count: int = 1  # fail-group: members to kill
    position: int = 0  # tamper-group: member position
    behavior: Optional[Behavior] = None  # tamper / tamper-group
    attack: str = ""  # user events

    def describe(self) -> str:
        where = f"r{self.round}" + (
            f".i{self.iteration}" if self.iteration is not None else ""
        )
        if self.action == "fail-group":
            return f"{where}:fail-group:{self.target}:{self.count}"
        if self.action == "tamper":
            return f"{where}:tamper:{self.target}:{self.behavior.value}"
        if self.action == "tamper-group":
            return (
                f"{where}:tamper-group:{self.target}:{self.position}"
                f":{self.behavior.value}"
            )
        if self.action == "user":
            return f"{where}:user:{self.attack}@{self.target}"
        return f"{where}:{self.action}:{self.target}"


@dataclass
class FaultSchedule:
    """A declarative set of :class:`FaultEvent`, queryable by the engine."""

    events: List[FaultEvent] = field(default_factory=list)

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Parse the grammar documented in the module docstring."""
        events: List[FaultEvent] = []
        for chunk in filter(None, (part.strip() for part in spec.split(";"))):
            events.append(cls._parse_event(chunk))
        return cls(events)

    @staticmethod
    def _parse_event(chunk: str) -> FaultEvent:
        try:
            where, action_spec = chunk.split(":", 1)
            if not where.startswith("r"):
                raise ValueError("event must start with 'r<round>'")
            if ".i" in where:
                round_part, iter_part = where[1:].split(".i")
                rnum, iteration = int(round_part), int(iter_part)
            else:
                rnum, iteration = int(where[1:]), None
            parts = action_spec.split(":")
            action = parts[0]
            if action in ("fail", "recover"):
                return FaultEvent(rnum, action, int(parts[1]), iteration)
            if action == "fail-group":
                return FaultEvent(
                    rnum, action, int(parts[1]), iteration, count=int(parts[2])
                )
            if action == "tamper":
                return FaultEvent(
                    rnum, action, int(parts[1]), iteration,
                    behavior=Behavior(parts[2]),
                )
            if action == "tamper-group":
                return FaultEvent(
                    rnum, action, int(parts[1]), iteration,
                    position=int(parts[2]), behavior=Behavior(parts[3]),
                )
            if action == "user":
                attack, gid = parts[1].split("@")
                if attack not in USER_ATTACKS:
                    raise ValueError(f"unknown user attack {attack!r}")
                return FaultEvent(rnum, action, int(gid), iteration, attack=attack)
            raise ValueError(f"unknown action {action!r}")
        except FaultScheduleError:
            raise
        except (ValueError, IndexError) as exc:
            raise FaultScheduleError(f"bad fault event {chunk!r}: {exc}") from exc

    def server_events(self, round_id: int, iteration: Optional[int]) -> List[FaultEvent]:
        return [
            ev
            for ev in self.events
            if ev.action != "user"
            and ev.round == round_id
            and ev.iteration == iteration
        ]

    def user_events(self, round_id: int) -> List[FaultEvent]:
        return [
            ev for ev in self.events if ev.action == "user" and ev.round == round_id
        ]

    def has_user_events(self) -> bool:
        return any(ev.action == "user" for ev in self.events)


@dataclass
class StreamConfig:
    """Knobs for one stream run."""

    rounds: int = 5
    users_per_round: int = 4
    seed: bytes = b"repro.stream"

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("a stream needs at least one round")
        if self.users_per_round < 1:
            raise ValueError("users_per_round must be >= 1")


@dataclass
class RoundStats:
    """Timing and outcome of one stream round (wall clock, seconds)."""

    round_id: int
    ok: bool = False
    attempts: int = 1
    messages: List[bytes] = field(default_factory=list)
    abort_reasons: List[str] = field(default_factory=list)
    recovered_gids: List[int] = field(default_factory=list)
    blamed_users: Tuple[int, ...] = ()
    rekeyed: bool = False
    #: honest per-sender submissions this round (one per arrival, NOT
    #: per ciphertext: the trap variant holds 2 ciphertexts per sender
    #: and the batch plane stores them as one contiguous buffer, so
    #: ``len(holdings)`` alone cannot recover the sender count) — the
    #: scenario layer's conservation checks read this
    submitted: int = 0
    #: cover dummies padded in by ``pad_round`` for the delivered
    #: attempt (discarded at exit, so never part of ``messages``)
    dummies: int = 0
    #: accumulated intake work (submission build + NIZK verification)
    intake_s: float = 0.0
    #: of which, executed while the *previous* round was mixing
    overlap_s: float = 0.0
    #: time spent inside this round's mix window on the next round's
    #: intake (the other side of the same overlap)
    foreign_intake_s: float = 0.0
    #: accumulated mix windows, including interleaved next-round intake
    #: (a retried round adds its retry attempt's window too)
    mix_wall_s: float = 0.0

    @property
    def pure_mix_s(self) -> float:
        """Mix windows minus the next round's interleaved intake."""
        return max(0.0, self.mix_wall_s - self.foreign_intake_s)


@dataclass
class StreamReport:
    """Outcome of a whole stream run."""

    rounds: List[RoundStats] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(stats.ok for stats in self.rounds)

    @property
    def total_messages(self) -> int:
        return sum(len(stats.messages) for stats in self.rounds)

    @property
    def throughput_msgs_per_s(self) -> float:
        return self.total_messages / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def total_recoveries(self) -> int:
        return sum(len(stats.recovered_gids) for stats in self.rounds)

    @property
    def total_blames(self) -> int:
        return sum(1 for stats in self.rounds if stats.blamed_users)

    def overlapped_rounds(self) -> List[RoundStats]:
        """Rounds whose intake measurably rode inside the previous mix."""
        return [stats for stats in self.rounds if stats.overlap_s > 0]

    def format_table(self) -> str:
        """Per-round wall-clock report for the CLI."""
        lines = [
            "round  intake_ms  mix_ms  overlap_ms  msgs  status  events"
        ]
        for s in self.rounds:
            events = []
            if s.recovered_gids:
                events.append(
                    "recovered=" + ",".join(f"g{g}" for g in s.recovered_gids)
                )
            if s.blamed_users:
                events.append("blamed=" + ",".join(map(str, s.blamed_users)))
            if s.rekeyed:
                events.append("rekeyed")
            if s.attempts > 1:
                events.append(f"retries={s.attempts - 1}")
            status = "ok" if s.ok else "ABORT"
            lines.append(
                f"{s.round_id:5d}  {s.intake_s * 1e3:9.1f}  "
                f"{s.pure_mix_s * 1e3:6.1f}  {s.overlap_s * 1e3:10.1f}  "
                f"{len(s.messages):4d}  {status:6s}  {' '.join(events) or '-'}"
            )
        overlapped = len(self.overlapped_rounds())
        lines.append(
            f"stream: {len(self.rounds)} rounds, {self.total_messages} msgs, "
            f"{self.wall_s:.2f}s wall, {self.throughput_msgs_per_s:.1f} msgs/s, "
            f"{overlapped} rounds with intake overlapped, "
            f"{self.total_recoveries} recoveries, {self.total_blames} blames"
        )
        return "\n".join(lines)


class StreamEngine:
    """Persistent multi-round deployment lifecycle (see module docstring)."""

    def __init__(
        self,
        config: DeploymentConfig,
        schedule: Optional[FaultSchedule] = None,
        stream: Optional[StreamConfig] = None,
        message_fn: Optional[Callable[[int, int], bytes]] = None,
        arrivals_fn: Optional[Callable[[int], List[Tuple[bytes, int]]]] = None,
    ):
        self.schedule = schedule or FaultSchedule()
        self.stream = stream or StreamConfig()
        if self.schedule.has_user_events() and config.variant != "trap":
            raise FaultScheduleError(
                "user attacks need the trap variant (they abuse trap submissions)"
            )
        self._validate_schedule(config)
        self.deployment = AtomDeployment(config)
        self.message_fn = message_fn
        #: round_id -> [(message, entry_gid), ...]: a per-round workload
        #: source (the scenario engine's traffic models plug in here);
        #: when set it replaces the fixed ``users_per_round`` schedule.
        #: MUST be deterministic per round_id — a blame-rekey re-plans
        #: the pipelined next round from scratch, and the replayed
        #: arrivals must match the discarded ones.
        self.arrivals_fn = arrivals_fn
        self.rng = DeterministicRng(self.stream.seed)
        self.client = Client(self.deployment.group, self.rng)
        self.buddies = BuddySystem(self.deployment.group)
        self.contexts: Optional[List] = None
        #: id -> server, covering the fleet plus spawned replacements
        self._registry: Dict[int, AtomServer] = {
            s.server_id: s for s in self.deployment.servers
        }
        self._next_spare_id = max(self._registry) + 1
        #: per round: honest (message, gid) pairs kept for abort retries
        self._honest: Dict[int, List[Tuple[bytes, int]]] = {}
        #: per round: user ids injected by scheduled user attacks
        self._malicious_uids: Dict[int, List[int]] = {}
        #: called with the settled round id after its endpoints are
        #: released — the hook fleet rolling restarts run between
        #: rounds (the stream keeps progressing across the restart)
        self.on_round_settled: Optional[Callable[[int], None]] = None

    def close(self) -> None:
        """Release the deployment's transport (the state
        store is flushed but stays open until ``__exit__``)."""
        self.deployment.close()

    def __enter__(self) -> "StreamEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Delegate state-dir lifecycle to the deployment's context
        # exit: flush, and on a *clean* exit a shutdown marker so the
        # next start in this state dir never replays.
        self.deployment.__exit__(exc_type, exc, tb)

    def _validate_schedule(self, config: DeploymentConfig) -> None:
        """Reject events that can never apply, before the stream starts.

        Events scheduled past the stream's last round are allowed (a
        schedule is reusable across stream lengths); events addressing
        groups, member positions, or mixing iterations outside the
        deployment are not.
        """
        # The same (crypto-free) topology objects start_round builds, so
        # the layer count can never drift from the real one.
        if config.topology == "square":
            depth = SquareNetwork(
                width=config.num_groups, depth=config.iterations
            ).depth
        else:
            log_width = (config.num_groups - 1).bit_length()
            depth = (
                IteratedButterflyNetwork(log_width=log_width).depth
                if 2 ** log_width == config.num_groups
                else None  # start_round rejects the config itself
            )
        for ev in self.schedule.events:
            if (
                ev.iteration is not None
                and depth is not None
                and not 0 <= ev.iteration < depth
            ):
                raise FaultScheduleError(
                    f"{ev.describe()} targets mixing iteration "
                    f"{ev.iteration}; this topology has {depth} layers"
                )
            if ev.action in ("fail-group", "tamper-group", "user"):
                if not 0 <= ev.target < config.num_groups:
                    raise FaultScheduleError(
                        f"{ev.describe()} targets group {ev.target}; the "
                        f"deployment has {config.num_groups} groups"
                    )
            if (
                ev.action == "tamper-group"
                and not 0 <= ev.position < config.group_size
            ):
                raise FaultScheduleError(
                    f"{ev.describe()} targets member position {ev.position}; "
                    f"groups have {config.group_size} members"
                )

    # -- setup -------------------------------------------------------------

    def _establish_contexts(self, round_id: int) -> Round:
        """(Re)form groups, then (many-trust) escrow each to its buddy."""
        rnd = self.deployment.start_round(round_id, rng=self.rng)
        self.contexts = rnd.contexts
        cfg = self.deployment.config
        if cfg.mode == "manytrust" and cfg.num_groups >= 2:
            num = cfg.num_groups
            for gid in range(num):
                self.buddies.drop_escrows(gid)  # stale escrows of a prior epoch
                self.buddies.escrow(
                    rnd.contexts[gid], rnd.contexts[(gid + 1) % num], self.rng
                )
        return rnd

    def _new_round(self, round_id: int) -> Round:
        if self.contexts is None:
            return self._establish_contexts(round_id)
        return self.deployment.start_round(
            round_id, rng=self.rng, contexts=self.contexts
        )

    def _spawn_spare(self) -> AtomServer:
        server = AtomServer(
            server_id=self._next_spare_id, group=self.deployment.group
        )
        self._next_spare_id += 1
        self._registry[server.server_id] = server
        return server

    # -- intake ------------------------------------------------------------

    def _plan_intake(self, round_id: int) -> List[Tuple[str, object, int]]:
        """The round's pending intake work: honest users, scheduled user
        attacks, then dummy padding (which must come last)."""
        cfg = self.deployment.config
        plan: List[Tuple[str, object, int]] = []
        if self.arrivals_fn is not None:
            for message, gid in self.arrivals_fn(round_id):
                plan.append(("honest", message, gid))
        else:
            for i in range(self.stream.users_per_round):
                message = self._message(round_id, i)
                plan.append(("honest", message, i % cfg.num_groups))
        for ev in self.schedule.user_events(round_id):
            plan.append(("attack", ev.attack, ev.target))
        plan.append(("pad", None, 0))
        return plan

    def _message(self, round_id: int, user_index: int) -> bytes:
        if self.message_fn is not None:
            return self.message_fn(round_id, user_index)
        size = self.deployment.config.message_size
        return f"r{round_id}u{user_index}".encode()[:size]

    def _execute_intake(
        self, rnd: Round, stats: RoundStats, item: Tuple[str, object, int]
    ) -> float:
        """Run one intake unit; returns its wall-clock duration."""
        started = time.monotonic()
        kind, payload, gid = item
        dep = self.deployment
        if kind == "honest":
            message = payload
            if dep.config.variant == "trap":
                dep.submit_trap(rnd, message, gid, self.client)
            else:
                dep.submit_plain(rnd, message, gid, self.client)
            self._honest.setdefault(rnd.round_id, []).append((message, gid))
            stats.submitted += 1
            # Journaled store-side too: an abort retry after a resume
            # needs the honest (message, gid) registry, which the
            # encrypted intake envelopes alone cannot yield.
            dep.store.honest_intake(rnd.round_id, gid, message)
        elif kind == "attack":
            uids = self._inject_user_attack(rnd, payload, gid)
            self._malicious_uids.setdefault(rnd.round_id, []).extend(uids)
        else:  # pad
            stats.dummies += dep.pad_round(rnd, self.rng)
        elapsed = time.monotonic() - started
        stats.intake_s += elapsed
        return elapsed

    def _drain_intake(
        self, rnd: Round, stats: RoundStats, plan: List[Tuple[str, object, int]]
    ) -> None:
        while plan:
            self._execute_intake(rnd, stats, plan.pop(0))

    # -- scheduled adversaries ---------------------------------------------

    def _inject_user_attack(self, rnd: Round, attack: str, gid: int) -> List[int]:
        """Build and submit the scheduled §4.6 trap violations."""
        dep = self.deployment
        ctx = rnd.context(gid)
        spec = dep.spec
        msg_size = dep.config.message_size
        if attack == "bad_commitment":
            sub, _ = self.client.prepare_trap_pair(
                b"evil", ctx.public_key, rnd.trustees.public_key,
                gid, spec.payload_size, msg_size,
            )
            corrupted = TrapSubmission(
                pair=sub.pair, trap_commitment=commit(b"not-the-trap"), gid=gid
            )
            return [dep.inject_trap_submission(rnd, gid, corrupted)]
        if attack == "two_traps":
            payloads = [
                spec.build_trap(gid, self.rng.randbytes(fmt.TRAP_NONCE_BYTES))
                for _ in range(2)
            ]
            subs = tuple(
                self.client._submit_payload(p, ctx.public_key, gid) for p in payloads
            )
            malicious = TrapSubmission(
                pair=subs, trap_commitment=commit(payloads[0]), gid=gid
            )
            return [dep.inject_trap_submission(rnd, gid, malicious)]
        if attack == "duplicate_inner":
            # A double-write: two sybil users share one inner ciphertext,
            # so the exit's global de-duplication (and §4.6 blame) must
            # name both.
            padded = spec.pad_message(b"double-write", msg_size)
            inner = cca2_encrypt(
                dep.group, rnd.trustees.public_key, padded, self.rng
            )
            inner_payload = spec.build_inner(dep.group, inner)
            uids = []
            for _ in range(2):
                trap_payload = spec.build_trap(
                    gid, self.rng.randbytes(fmt.TRAP_NONCE_BYTES)
                )
                sub_inner = self.client._submit_payload(
                    inner_payload, ctx.public_key, gid
                )
                sub_trap = self.client._submit_payload(
                    trap_payload, ctx.public_key, gid
                )
                sybil = TrapSubmission(
                    pair=(sub_inner, sub_trap),
                    trap_commitment=commit(trap_payload),
                    gid=gid,
                )
                uids.append(dep.inject_trap_submission(rnd, gid, sybil))
            return uids
        raise FaultScheduleError(f"unknown user attack {attack!r}")

    def _reset_behaviors(self) -> None:
        """Tamper events are per-round: disarm before applying a round's."""
        for server in self._registry.values():
            server.behavior = Behavior.HONEST

    def _server_by_id(self, ev: FaultEvent) -> AtomServer:
        try:
            return self._registry[ev.target]
        except KeyError:
            raise FaultScheduleError(
                f"{ev.describe()} targets unknown server {ev.target}"
            ) from None

    def _apply_server_events(self, rnd: Round, iteration: Optional[int]) -> None:
        for ev in self.schedule.server_events(rnd.round_id, iteration):
            if ev.action == "fail":
                self._server_by_id(ev).fail()
            elif ev.action == "recover":
                self._server_by_id(ev).recover()
            elif ev.action == "fail-group":
                alive = [s for s in rnd.context(ev.target).servers if not s.failed]
                for server in alive[: ev.count]:
                    server.fail()
            elif ev.action in ("tamper", "tamper-group"):
                if ev.action == "tamper":
                    server = self._server_by_id(ev)
                else:
                    server = rnd.context(ev.target).servers[ev.position]
                server.behavior = ev.behavior
                server.tamper_budget = 1

    # -- recovery ----------------------------------------------------------

    def _recover_group(self, rnd: Round, stalled: GroupStalled,
                       stats: RoundStats) -> None:
        """§4.5 buddy recovery: restore the stalled group mid-stream.

        The restored context keeps the original group key, so the stream
        resumes without rekeying; the mutation of ``rnd.contexts`` is
        shared with every later round of the stream (one context list).
        """
        gid = stalled.gid
        escrows = self.buddies.escrows_for(gid)
        if not escrows:
            raise RuntimeError(
                f"stream stalled: group {gid} lost quorum and has no buddy "
                f"escrow ({stalled})"
            )
        ctx = rnd.context(gid)
        buddy_ctx = rnd.context(escrows[0].buddy_gid)
        buddy_alive = [
            j for j, server in enumerate(buddy_ctx.servers) if not server.failed
        ]
        replacements = [self._spawn_spare() for _ in ctx.servers]
        try:
            restored = self.buddies.recover(
                ctx, replacements, buddy_alive=buddy_alive
            )
        except GroupStalled as buddy_short:
            raise RuntimeError(
                f"stream stalled: group {gid} lost quorum and its buddy "
                f"group {buddy_ctx.gid} has only {len(buddy_alive)} live "
                f"members (escrow threshold {buddy_ctx.threshold})"
            ) from buddy_short
        rnd.contexts[gid] = restored
        stats.recovered_gids.append(gid)
        # The replacement group answers at a fresh endpoint: lift any
        # chaos-layer partition of the old (dead) one.
        self.deployment.revive_endpoint(gid)
        if rnd.coordinator is not None:
            # Fleet-homed group whose process died: host the restored
            # group in-coordinator for the rest of the round.
            rnd.coordinator.rehome_group(gid)

    # -- the stream --------------------------------------------------------

    def run(self, message_fn: Optional[Callable[[int, int], bytes]] = None
            ) -> StreamReport:
        """Run the configured number of rounds; returns the report."""
        if message_fn is not None:
            self.message_fn = message_fn
        report = StreamReport()
        started = time.monotonic()
        self.deployment.store.stream_begin(self.stream, self.schedule_spec())

        try:
            rnd = self._new_round(0)
            stats = RoundStats(0)
            self._drain_intake(rnd, stats, self._plan_intake(0))
            self._stream_loop(report, rnd, stats, first=0, resumed=False)
        finally:
            self.deployment.close()

        report.wall_s = time.monotonic() - started
        return report

    def resume_run(self, report: StreamReport, rnd: Round, stats: RoundStats,
                   first: int) -> StreamReport:
        """Continue an interrupted stream from recovered state.

        Called by :class:`repro.store.recovery.RecoveryManager` with
        ``report`` pre-filled with the settled rounds' journaled stats
        and ``rnd`` rebuilt at its last checkpoint (its intake replayed;
        its coordinator possibly mid-mixing).  The interrupted round's
        fault events are not re-fired — they already acted before the
        crash, and tamper budgets/fail flags are not part of the
        durable state (see DESIGN.md on the recovery contract).
        """
        started = time.monotonic()
        try:
            self._stream_loop(report, rnd, stats, first=first, resumed=True)
        finally:
            self.deployment.close()
        report.wall_s += time.monotonic() - started
        return report

    def schedule_spec(self) -> str:
        """The schedule in its parseable grammar (journaled at stream
        start so ``resume`` reconstructs the same schedule)."""
        return ";".join(ev.describe() for ev in self.schedule.events)

    def _stream_loop(self, report: StreamReport, rnd: Round,
                     stats: RoundStats, first: int, resumed: bool) -> None:
        """Rounds ``first..rounds-1``; ``rnd``/``stats`` are round
        ``first`` with its intake already drained."""
        total = self.stream.rounds
        for r in range(first, total):
            next_rnd = next_stats = None
            next_plan: List[Tuple[str, object, int]] = []
            if r + 1 < total:
                next_rnd = self._new_round(r + 1)
                next_stats = RoundStats(r + 1)
                next_plan = self._plan_intake(r + 1)

            result = self._run_one_round(
                rnd, stats, next_rnd, next_stats, next_plan,
                apply_events=not (resumed and r == first),
            )
            if result.aborted:
                # Handled before draining the leftover intake: a
                # blame-rekey discards the next round's epoch, so
                # submissions built now would be wasted crypto.
                result, rnd, next_rnd = self._handle_abort(
                    result, rnd, stats, next_rnd, next_stats, next_plan
                )
            # Whatever intake mixing did not absorb completes now,
            # before the next round's own mix window opens.
            if next_rnd is not None:
                self._drain_intake(next_rnd, next_stats, next_plan)

            stats.ok = result.ok
            stats.messages = list(result.messages)
            report.rounds.append(stats)
            # Round-boundary checkpoint: stats plus the rng position —
            # with the next round's intake drained, this is the
            # between-rounds resume point.
            self.deployment.store.round_settled(stats, self.rng)
            # The round is settled; drop its retained submissions so
            # a sustained stream holds O(1) rounds of intake, not
            # O(rounds), and release its node endpoints so the
            # transport does not accumulate one node set per round
            # (and fleet processes drop theirs).  (Attack uids stay: they are a few ints per
            # *scheduled* event, and tests read them post-run.)
            self._honest.pop(r, None)
            if rnd.coordinator is not None:
                rnd.coordinator.release()
            if self.on_round_settled is not None:
                self.on_round_settled(r)
            rnd, stats = next_rnd, next_stats

    def _run_one_round(
        self,
        rnd: Round,
        stats: RoundStats,
        next_rnd: Optional[Round],
        next_stats: Optional[RoundStats],
        next_plan: List[Tuple[str, object, int]],
        apply_events: bool,
    ) -> RoundResult:
        """Mix one round, firing fault events and interleaving next-round
        intake between layers; recover stalled groups in place."""
        if apply_events:
            self._reset_behaviors()
            self._apply_server_events(rnd, None)
        mix_started = time.monotonic()
        run = self.deployment.begin_mixing(rnd, self.rng)
        # Each layer's events fire once per round, not again when a
        # recovered layer retries — otherwise a fail-group event would
        # re-kill the freshly restored group forever.
        fired_layers = set()
        while not run.done:
            if apply_events and run.layer not in fired_layers:
                self._apply_server_events(rnd, run.layer)
                fired_layers.add(run.layer)
            try:
                run.run_layer()
            except GroupStalled as stalled:
                self._recover_group(rnd, stalled, stats)
                if next_rnd is not None and next_rnd.coordinator is not None:
                    # The pipelined round routes through the same dead
                    # process; its intake continues locally too.
                    next_rnd.coordinator.rehome_group(stalled.gid)
                continue  # retry the same layer with the restored group
            except ProtocolAbort as failure:
                stats.mix_wall_s += time.monotonic() - mix_started
                return run.abort(failure)
            if next_plan:
                # Spread the remaining intake over the remaining layers
                # (none after the last: its successors are exit work).
                budget = -(-len(next_plan) // max(1, run.remaining_layers))
                for _ in range(budget):
                    if not next_plan:
                        break
                    elapsed = self._execute_intake(
                        next_rnd, next_stats, next_plan.pop(0)
                    )
                    next_stats.overlap_s += elapsed
                    stats.foreign_intake_s += elapsed
        result = run.finish()
        stats.mix_wall_s += time.monotonic() - mix_started
        return result

    def _handle_abort(
        self,
        result: RoundResult,
        rnd: Round,
        stats: RoundStats,
        next_rnd: Optional[Round],
        next_stats: Optional[RoundStats],
        next_plan: List[Tuple[str, object, int]],
    ) -> Tuple[RoundResult, Round, Optional[Round]]:
        """Blame, rekey, and retry an aborted round (§4.6).

        Returns the retry's result plus the retry and next Round
        objects — the next is rebuilt when blame forces a rekey, in
        which case ``next_plan`` (intake queued for the discarded next
        round) is cleared after being replayed onto the fresh epoch.
        """
        stats.abort_reasons.append(result.abort_reason)
        blame_ran = False
        if self.deployment.config.variant == "trap" and rnd.trap_submissions:
            blame_ran = True
            stats.blamed_users = self.deployment.blame(rnd).all_blamed

        r = rnd.round_id
        if blame_ran:
            # Blame reveals this epoch's entry-group keys whether or not
            # it names a user (every entry group opens its keys, §4.6);
            # the stream's keys are epoch-persistent, so it must not
            # keep encrypting to them.  Form a fresh epoch (its Round
            # for r is the retry's) and rebuild the (possibly
            # partially-intaken) next round on it.
            retry_rnd = self._establish_contexts(r)
            stats.rekeyed = True
            if next_rnd is not None:
                next_id = next_rnd.round_id
                next_rnd = self._new_round(next_id)
                self._honest.pop(next_id, None)
                self._malicious_uids.pop(next_id, None)
                next_stats.overlap_s = 0.0
                next_stats.intake_s = 0.0
                next_stats.submitted = 0
                next_stats.dummies = 0
                next_plan.clear()  # queued for the discarded epoch
                self._drain_intake(next_rnd, next_stats, self._plan_intake(next_id))
        else:
            retry_rnd = self._new_round(r)

        replay_started = time.monotonic()
        for message, gid in self._honest.get(r, []):
            if self.deployment.config.variant == "trap":
                self.deployment.submit_trap(retry_rnd, message, gid, self.client)
            else:
                self.deployment.submit_plain(retry_rnd, message, gid, self.client)
        # The retry replays the same senders (submitted is unchanged)
        # but pads a fresh round: its dummy count replaces the aborted
        # attempt's, which left the pipeline with that round.
        stats.dummies = self.deployment.pad_round(retry_rnd, self.rng)
        stats.intake_s += time.monotonic() - replay_started

        # The adversary is exposed (abort named its group, or blame its
        # users); the retry models the clean rerun after its exclusion.
        # Without this, a tamperer whose budget a mid-layer abort
        # restored would deterministically re-abort every nizk retry.
        self._reset_behaviors()
        stats.attempts += 1
        retry_result = self._run_one_round(
            retry_rnd, stats, None, None, [], apply_events=False
        )
        if retry_result.aborted:
            stats.abort_reasons.append(retry_result.abort_reason)
        return retry_result, retry_rnd, next_rnd
