"""Drive the real applications over the modern stack from a spec.

:class:`ScenarioRunner` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
into a live run: the traffic model's arrival batches become per-round
intake for a :class:`~repro.core.pipeline.StreamEngine` (batch data
plane, any transport including fleet), microblog arrivals are published
to an :class:`~repro.apps.microblog.BulletinBoard`, dialing arrivals are
sealed with :func:`~repro.apps.dialing.seal_dial` and land in mailboxes
via :func:`~repro.apps.dialing.fill_mailboxes` — the same delivery code
paths the standalone services use — and every round's ledger is checked
for conservation (arrivals == delivered + dropped + trapped).

Determinism: the scenario seed derives every random choice — the
traffic model's churn and sampling, per-user dialing keys, dial
recipients and sealing, the stream's own rng, and (via the deployment
seed) the beacon and any chaos plan.  Rerunning the same spec and seed
reproduces the identical :class:`~repro.scenarios.metrics.ScenarioMetrics`
digest on every transport.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional, Tuple

from repro.apps.dialing import DialRequest, Mailbox, fill_mailboxes, seal_dial
from repro.apps.microblog import BulletinBoard, check_post
from repro.core.pipeline import RoundStats, StreamConfig, StreamEngine
from repro.crypto.elgamal import ElGamalKeyPair
from repro.crypto.groups import DeterministicRng
from repro.scenarios.metrics import RoundMetrics, ScenarioMetrics
from repro.scenarios.spec import ScenarioError, ScenarioSpec
from repro.scenarios.traffic import Arrival

#: substrings identifying a §4.4 trap-catch abort in an abort reason
#: (the trustees' KeyWithheld message)
_TRAP_MARKERS = ("withheld", "violation")


def is_trap_catch(reason: str) -> bool:
    return any(marker in reason for marker in _TRAP_MARKERS)


class ScenarioRunner:
    """One scenario run: build the workload, drive the stream, account.

    ``overrides`` are DeploymentConfig fields (``transport``,
    ``state_dir``, ``crypto_group``, ...) — the CLI forwards its flags
    here so a bundled scenario can be replayed over tcp or a fleet
    unchanged.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: Optional[str] = None,
        **overrides,
    ):
        self.spec = spec
        self.seed = seed if seed is not None else spec.seed
        self._seed_bytes = self.seed.encode()
        # A private clone: batch() caching mutates churn state, and one
        # spec object must support many concurrent runs.
        self.traffic = spec.traffic.__class__(
            **{k: v for k, v in spec.traffic.describe().items() if k != "model"}
        )
        self.traffic.bind(self._seed_bytes)
        self.config = spec.deployment_config(**overrides)
        self.engine = StreamEngine(
            self.config,
            spec.fault_schedule(),
            StreamConfig(
                rounds=spec.rounds,
                seed=self._seed_bytes + b"/stream",
            ),
            arrivals_fn=self._arrivals,
        )
        self.board = BulletinBoard()
        self.mailboxes: Dict[int, List[Mailbox]] = {}
        self.num_mailboxes = int(spec.dialing_knob("mailboxes"))
        self._keys: Dict[int, ElGamalKeyPair] = {}
        #: round -> [(payload, Arrival), ...] in intake order
        self._expected: Dict[int, List[Tuple[bytes, Arrival]]] = {}
        self._plans: Dict[int, List[Tuple[bytes, int]]] = {}

    # -- deterministic workload ----------------------------------------

    def user_key(self, user: int) -> ElGamalKeyPair:
        """The user's long-term dialing identity key (PKI stand-in),
        derived from the scenario seed alone — tests and recipients
        rebuild it without any shared state."""
        if user not in self._keys:
            rng = DeterministicRng(self._seed_bytes + b"|dialkey|u%d" % user)
            self._keys[user] = ElGamalKeyPair.generate(
                self.engine.deployment.group, rng
            )
        return self._keys[user]

    def dial_recipient(self, round_id: int, user: int) -> int:
        """Whom ``user`` dials this round (deterministic, never self)."""
        if self.traffic.users < 2:
            return user  # degenerate: dial yourself
        rng = DeterministicRng(
            self._seed_bytes + b"|dial|r%d|u%d" % (round_id, user)
        )
        others = [u for u in range(self.traffic.users) if u != user]
        return others[rng.randint(0, len(others) - 1)]

    def _build_payload(self, round_id: int, arrival: Arrival) -> bytes:
        size = self.config.message_size
        if arrival.app == "dialing":
            recipient = self.dial_recipient(round_id, arrival.user)
            rng = DeterministicRng(
                self._seed_bytes + b"|seal|r%d|u%d" % (round_id, arrival.user)
            )
            sealed = seal_dial(
                self.engine.deployment.group,
                b"u%d@r%d" % (arrival.user, round_id),
                self.user_key(recipient),
                rng,
            )
            payload = DialRequest(recipient_id=recipient, sealed=sealed).to_bytes()
            if len(payload) > size:
                raise ScenarioError(
                    f"dial request of {len(payload)} bytes exceeds "
                    f"message_size {size}; raise the deployment's "
                    f"message_size (96 is ample for TOY)"
                )
            return payload
        post = b"r%du%d says hi" % (round_id, arrival.user)
        return check_post(post[: size - 5], size)

    def _arrivals(self, round_id: int) -> List[Tuple[bytes, int]]:
        """The StreamEngine workload hook.  Cached: a blame-rekey
        re-plans the pipelined next round, and the replayed arrivals
        must be the identical objects."""
        if round_id not in self._plans:
            batch = self.traffic.batch(round_id)
            expected: List[Tuple[bytes, Arrival]] = []
            plan: List[Tuple[bytes, int]] = []
            for index, arrival in enumerate(batch.arrivals):
                payload = self._build_payload(round_id, arrival)
                expected.append((payload, arrival))
                plan.append((payload, index % self.config.num_groups))
            self._expected[round_id] = expected
            self._plans[round_id] = plan
        return self._plans[round_id]

    # -- the run -------------------------------------------------------

    def run(self, check: bool = True) -> ScenarioMetrics:
        """Drive the whole scenario; returns the metrics report.

        With ``check`` (the default) the conservation assert runs
        before returning — a report you get back always reconciles.
        """
        started = time.monotonic()
        with self.engine:
            stream_report = self.engine.run()
        metrics = ScenarioMetrics(
            scenario=self.spec.name,
            seed=self.seed,
            transport=self.config.transport,
        )
        for stats in stream_report.rounds:
            metrics.rounds.append(self._account(stats))
        metrics.wall_s = time.monotonic() - started
        metrics.baselines = self._baseline_comparison(metrics)
        if check:
            metrics.check_conservation()
        return metrics

    def _account(self, stats: RoundStats) -> RoundMetrics:
        """Reconcile one settled round against its expected workload,
        and deliver matched outputs through the real app code paths."""
        r = stats.round_id
        expected = self._expected.get(r, [])
        batch = self.traffic.batch(r)
        # Multiset-match expected payloads against the anonymized
        # outputs (exact bytes: the exit unpads to the original).
        remaining: Dict[bytes, int] = {}
        for message in stats.messages:
            remaining[message] = remaining.get(message, 0) + 1
        posts: List[bytes] = []
        dials: List[bytes] = []
        delivered = 0
        for payload, arrival in expected:
            if remaining.get(payload, 0) > 0:
                remaining[payload] -= 1
                delivered += 1
                (dials if arrival.app == "dialing" else posts).append(payload)
        undelivered = len(expected) - delivered
        trap_catches = sum(1 for why in stats.abort_reasons if is_trap_catch(why))
        # Undelivered arrivals were consumed by the abort that ended the
        # round: a trap catch if that's what the ledger shows, any other
        # failure is a plain drop.
        trapped = undelivered if (not stats.ok and trap_catches) else 0
        dropped = undelivered - trapped
        # Deliver through the applications themselves.
        if posts:
            self.board.publish(r, posts)
        self.mailboxes[r] = fill_mailboxes(dials, self.num_mailboxes)
        return RoundMetrics(
            round_id=r,
            arrivals=len(expected),
            microblog=sum(1 for _, a in expected if a.app == "microblog"),
            dialing=sum(1 for _, a in expected if a.app == "dialing"),
            delivered=delivered,
            dropped=dropped,
            trapped=trapped,
            departed=batch.departed,
            rejoined=batch.rejoined,
            active=batch.active,
            submitted=stats.submitted,
            dummies=stats.dummies,
            trap_catches=trap_catches,
            recovered_gids=tuple(stats.recovered_gids),
            blamed_users=tuple(stats.blamed_users),
            retries=stats.attempts - 1,
            ok=stats.ok,
            intake_s=stats.intake_s,
            mix_s=stats.mix_wall_s,
            delivered_digest=hashlib.sha256(
                b"\x00".join(sorted(posts + dials))
            ).hexdigest(),
        )

    def _baseline_comparison(self, metrics: ScenarioMetrics) -> Dict[str, float]:
        from repro.baselines import same_workload_comparison

        return same_workload_comparison(
            microblog_messages=sum(r.microblog for r in metrics.rounds),
            dialing_users=self.traffic.users,
        )

    # -- recipient-side convenience ------------------------------------

    def receive(self, round_id: int, user: int) -> List[bytes]:
        """Open everything in ``user``'s mailbox for the round (the
        sealed sender tokens of whoever dialed them)."""
        from repro.apps.dialing import open_dial

        boxes = self.mailboxes.get(round_id, [])
        if not boxes:
            return []
        opened = []
        for sealed in boxes[user % self.num_mailboxes].entries:
            try:
                opened.append(
                    open_dial(self.engine.deployment.group, self.user_key(user), sealed)
                )
            except Exception:
                continue  # someone else's call sharing the mailbox
        return opened
