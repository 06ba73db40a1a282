"""Crash-restart recovery: rebuild an interrupted stream from the
write-ahead log and continue where the crash left off.

Every CLI run journals one shape: a stream (``repro round`` is a
one-round stream), opened by STREAM_BEGIN and settled round by round by
ROUND_DONE.  A log without STREAM_BEGIN — an ``AtomDeployment`` with a
``state_dir`` driven through ``run_round`` directly — is refused by
name.

The recovery contract rests on the repo's determinism discipline: every
piece of round crypto derives from a :class:`DeterministicRng`, whose
complete state is ``(seed, counter)``.  The log therefore never stores
secret keys — it stores *rng marks* (ROUND_SETUP, ROUND_BEGIN,
LAYER_COMMIT) and replays the constructions:

- **Contexts and trustees**: seek the rng to the journaled
  ROUND_SETUP counter and re-run ``start_round`` — group formation,
  member/DVSS keys, the trustee threshold key, and buddy escrows come
  out bit-identical (server *identity* keys are random but never enter
  round crypto).
- **Intake**: the accepted SUBMIT envelopes replay verbatim through
  the node's ``handle`` path (proofs re-verified for free), rebuilding
  holdings, the duplicate filter, trap commitments, and the blame
  registry in original user-id order.
- **Mixing**: the latest CHECKPOINT pins per-node holdings at a
  committed layer; the matching LAYER_COMMIT's audits and rng counter
  are restored, and the coordinator re-enters the two-phase layer
  protocol at exactly that layer.  Remaining layers draw the same
  sub-seeds an uninterrupted run would have — the resumed
  round's result is byte-identical.

Idempotency rules (what makes recovery re-crashable):

- Journaling is suppressed while replaying, so recovery appends
  nothing until its RESUME marker — a crash mid-recovery leaves the
  log unchanged.
- Per round, the *latest* ROUND_SETUP wins and resets that round's
  intake/mixing records (a resumed run that rebuilds a round
  supersedes the stale epoch's records).
- Per layer, the latest LAYER_COMMIT/CHECKPOINT wins.
- A CLEAN marker at the tail means nothing to resume.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.pipeline import FaultSchedule, RoundStats, StreamEngine, StreamReport
from repro.core.protocol import Round
from repro.crypto.groups import get_group
from repro.net import envelopes as ev
from repro.net.envelopes import Envelope
from repro.store import checkpoint as ck
from repro.store.segments import LogDir, LogScan
from repro.store.store import DurableStore
from repro.store.wal import RecordType


class RecoveryError(RuntimeError):
    """The state directory cannot be resumed (clean, spent, not a
    stream)."""


def _journaled_wall_s(rounds) -> float:
    """Approximate wall clock of settled rounds from their journaled
    timings (overlap subtracted: it is counted inside the previous
    round's mix window already), so a resumed report's throughput
    stays comparable to a live run's."""
    return sum(max(0.0, s.mix_wall_s + s.intake_s - s.overlap_s) for s in rounds)


class RecoveryManager:
    """Reads one state directory and resumes what it finds."""

    def __init__(self, state_dir: Union[str, Path]):
        self.state_dir = Path(state_dir)
        if not LogDir.present(self.state_dir):
            raise RecoveryError(f"no write-ahead log under {self.state_dir}")
        self.scan: LogScan = LogDir.scan_dir(self.state_dir)
        #: segment files the restore actually read (test instrumentation
        #: for "a shipped restore never touches pre-safe-point history")
        self.segments_read = list(self.scan.segments_read)
        self.config = None
        self.group = None
        self._stream: Optional[Tuple[object, str]] = None
        self._setups: Dict[int, ck.RngMark] = {}
        self._fresh_setups: List[ck.RngMark] = []
        self._submissions: Dict[int, List[bytes]] = {}
        self._honest: Dict[int, List[Tuple[bytes, int]]] = {}
        self._mix_marks: Dict[int, List[ck.RngMark]] = {}
        self._commits: Dict[int, List[ck.LayerCommit]] = {}
        self._checkpoints: Dict[int, ck.Snapshot] = {}
        self._done: List[Tuple[RoundStats, int]] = []
        self._index()

    # -- log indexing --------------------------------------------------

    def _index(self) -> None:
        for rec in self.scan.records:
            try:
                self._index_record(rec)
            except ValueError as exc:  # off-table body, bad META knob value
                raise RecoveryError(
                    f"{RecordType(rec.type).name} record unusable: {exc}"
                ) from exc

    def _index_record(self, rec) -> None:
        t, rid = rec.type, rec.round_id
        if t == RecordType.META:
            self.config = ck.META.decode(rec.payload)
            self.group = get_group(self.config.crypto_group)
        elif t == RecordType.STREAM_BEGIN:
            self._stream = ck.STREAM_BEGIN.decode(rec.payload)
        elif t == RecordType.ROUND_SETUP:
            mark = ck.RNG_MARK.decode(rec.payload, round_id=rid)
            self._setups[rid] = mark
            if mark.fresh:
                self._fresh_setups.append(mark)
            # latest setup wins: the round was (re)built, so its
            # older intake/mixing records are a stale epoch's
            self._submissions[rid] = []
            self._honest[rid] = []
            self._mix_marks[rid] = []
            self._commits[rid] = []
            self._checkpoints.pop(rid, None)
        elif t == RecordType.ROUND_BEGIN:
            mark = ck.RNG_MARK.decode(rec.payload, round_id=rid)
            self._mix_marks.setdefault(rid, []).append(mark)
        elif t == RecordType.ENVELOPE:
            # full decode waits for the round that actually replays
            self._submissions.setdefault(rid, []).append(rec.payload)
        elif t == RecordType.HONEST:
            # No value-level dedup: two users may legitimately send
            # identical (message, gid) pairs.  Rekey re-journals are
            # handled by the setup reset above instead.
            gid, message = ck.HONEST.decode(rec.payload)
            self._honest.setdefault(rid, []).append((message, gid))
        elif t == RecordType.LAYER_COMMIT:
            self._require_group("LAYER_COMMIT")
            commit = ck.LAYER_COMMIT.decode(
                rec.payload, self.group, round_id=rid
            )
            self._commits.setdefault(rid, []).append(commit)
        elif t == RecordType.CHECKPOINT:
            self._require_group("CHECKPOINT")
            self._checkpoints[rid] = ck.CHECKPOINT.decode(
                rec.payload, self.group, round_id=rid
            )
        elif t == RecordType.ROUND_DONE:
            self._done.append(ck.ROUND_DONE.decode(rec.payload, round_id=rid))
        # ROUND_END / RESUME / CLEAN / unknown types: nothing to index
        # (ROUND_DONE, journaled after ROUND_END, settles a round)

    def _require_group(self, what: str) -> None:
        if self.group is None:
            raise RecoveryError(f"{what} record before META; log unusable")

    # -- diagnosis -----------------------------------------------------

    @property
    def clean_shutdown(self) -> bool:
        return self.scan.clean_shutdown

    @property
    def is_stream(self) -> bool:
        """Whether the log opens with STREAM_BEGIN (the one shape
        :meth:`resume_stream` accepts)."""
        return self._stream is not None

    @property
    def settled_rounds(self) -> int:
        """Stream rounds the log settled (ROUND_DONE) before the crash."""
        return len(self._done)

    def needs_recovery(self) -> bool:
        return bool(self._setups) and not self.clean_shutdown

    def describe(self) -> str:
        """One-line state summary for the CLI."""
        if self.config is None:
            return "empty log (no META record)"
        kind = "stream" if self.is_stream else "non-stream"
        tail = " (torn tail dropped)" if self.scan.truncated else ""
        if self.clean_shutdown:
            return f"{kind} run, clean shutdown{tail}"
        settled = self.settled_rounds
        committed = {
            rid: max((c.layer for c in commits), default=0)
            for rid, commits in self._commits.items()
            if commits
        }
        return (
            f"interrupted {kind} run: {settled} rounds settled, "
            f"committed layers {committed or '{}'}{tail}"
        )

    # -- replay helpers ------------------------------------------------

    def _reopen_store(self) -> DurableStore:
        store = DurableStore(
            self.state_dir,
            self.group,
            fresh=False,
            segment_bytes=self.config.wal_segment_bytes,
            segment_records=self.config.wal_segment_records,
            retain_segments=self.config.wal_retain_segments,
        )
        store.replaying = True
        return store

    def _recovered_config(self):
        # state_dir stays None: the recovered deployment gets the
        # reopened store injected instead of creating a fresh log.
        return dataclasses.replace(self.config, state_dir=None)

    @staticmethod
    def _replay_submission(rnd: Round, env: Envelope) -> None:
        """Re-admit one logged intake envelope: node state via the
        normal handle path, plus the blame registry (user ids
        re-assigned in log order == original submission order)."""
        payload = env.payload
        trap = isinstance(payload, ev.SubmitTrap)
        gid = payload.submission.gid if trap else payload.gid
        # Replay under the envelope's *original* request id: the dedup
        # identity survives the crash, and the pre-crash session nonce
        # keeps it from colliding with the fresh session's ids.
        rnd.coordinator.submit(payload, gid, req_id=env.req_id)
        if trap:
            rnd.trap_submissions[rnd._next_user_id] = (gid, payload.submission)
        rnd._next_user_id += 1

    def _replay_intake(self, rnd: Round, round_id: int) -> int:
        count = 0
        for raw in self._submissions.get(round_id, []):
            self._replay_submission(rnd, Envelope.from_bytes(raw, self.group))
            count += 1
        return count

    def _latest_commits(self, round_id: int) -> Dict[int, ck.LayerCommit]:
        """Per layer, the last commit wins (a resumed run that re-mixed
        layers supersedes the first attempt's records)."""
        by_layer: Dict[int, ck.LayerCommit] = {}
        for commit in self._commits.get(round_id, []):
            by_layer[commit.layer] = commit
        return by_layer

    def _apply_checkpoint(self, rnd: Round, snap: ck.Snapshot) -> ck.LayerCommit:
        """Pin the coordinator at the checkpointed layer; returns the
        matching commit (whose rng counter is the resume point)."""
        commits = self._latest_commits(snap.round_id)
        if snap.layer not in commits:
            raise RecoveryError(
                f"checkpoint at layer {snap.layer} of round {snap.round_id} "
                f"has no matching layer commit"
            )
        coord = rnd.coordinator
        for gid, batch in snap.holdings:
            coord.nodes[gid].adopt(batch)
        coord.layer = snap.layer
        for layer in sorted(commits):
            if layer > snap.layer:
                continue
            for audit in commits[layer].audits:
                coord.result.audits.append(audit)
                coord.result.bytes_sent_total += audit.bytes_sent
        return commits[snap.layer]

    # -- stream recovery -----------------------------------------------

    def resume_stream(self, message_fn=None) -> StreamReport:
        """Resume an interrupted stream and run it to completion.

        Settled rounds keep their journaled stats; the interrupted
        round re-enters mixing at its last committed layer (its intake
        replayed from the log); later rounds run normally.  Streams
        with a custom ``message_fn`` must pass the same one again.
        """
        finished = self._finalize_if_complete()
        if finished is not None:
            return finished
        engine, report, rnd, stats, first = self._prepare_stream(message_fn)
        store = engine.deployment.store
        try:
            out = engine.resume_run(report, rnd, stats, first)
        except BaseException:
            store.close()
            raise
        store.mark_clean()
        store.close()
        return out

    def _finalize_if_complete(self) -> Optional[StreamReport]:
        """A crash in the window between the last round's (fsynced)
        ROUND_DONE and the clean-shutdown marker leaves a *complete*
        stream that merely looks interrupted: rebuild its report from
        the journaled stats and write the missing marker, instead of
        refusing."""
        if self._stream is None or self.clean_shutdown:
            return None
        stream_cfg, _ = self._stream
        if len(self._done) < stream_cfg.rounds:
            return None
        store = self._reopen_store()
        store.replaying = False
        store.mark_clean()
        store.close()
        report = StreamReport(rounds=[s for s, _ in self._done])
        report.wall_s = _journaled_wall_s(report.rounds)
        return report

    def _prepare_stream(self, message_fn=None):
        if self.config is None:
            raise RecoveryError("log holds no META record; nothing to resume")
        if not self.is_stream:
            raise RecoveryError(
                "log has no STREAM_BEGIN record: only a stream can be "
                "resumed (`repro round` and `repro run-stream` journal one)"
            )
        if self.clean_shutdown:
            raise RecoveryError("clean shutdown; nothing to resume")
        stream_cfg, spec = self._stream
        done = list(self._done)
        first = len(done)
        if first >= stream_cfg.rounds:
            raise RecoveryError("stream already complete; nothing to resume")
        setup = self._setups.get(first)
        if setup is None:
            raise RecoveryError(f"no setup recorded for round {first}")
        if not setup.seed:
            raise RecoveryError("stream rng state missing; cannot replay")

        schedule = FaultSchedule.parse(spec) if spec else FaultSchedule()
        engine = StreamEngine(
            self._recovered_config(), schedule, stream_cfg,
            message_fn=message_fn,
        )
        store = self._reopen_store()
        engine.deployment.store = store
        # Pre-fill the settled rounds' wall clock so resume_run's `+=`
        # yields a total comparable to an uninterrupted run (otherwise
        # throughput divides all rounds' messages by resumed time only).
        report = StreamReport(rounds=[s for s, _ in done])
        report.wall_s = _journaled_wall_s(report.rounds)

        # Epoch replay: re-form the contexts (and buddy escrows) the
        # interrupted round was using.
        epochs = [m for m in self._fresh_setups if m.round_id <= first]
        if not epochs:
            raise RecoveryError("no epoch establishment recorded")
        epoch = epochs[-1]
        engine.rng.seek(epoch.counter)
        rnd = engine._establish_contexts(epoch.round_id)
        if not (epoch.round_id == first and epoch.counter == setup.counter):
            # The epoch Round is not round `first`: drop its endpoints
            # and replay round `first`'s own setup (trustee draws).
            rnd.coordinator.release()
            engine.rng.seek(setup.counter)
            rnd = engine._new_round(first)

        snap = self._checkpoints.get(first)
        marks = self._mix_marks.get(first, [])
        if snap is None and not marks and first == 0:
            # Crash during round 0's initial intake: its draws are not
            # individually journaled, so redo the round wholesale (the
            # fresh setup below supersedes the stale log records).
            rnd.coordinator.release()
            store.replaying = False
            store.mark_resume()
            engine.contexts = None
            engine.rng.seek(epoch.counter)
            rnd = engine._new_round(0)
            stats = RoundStats(0)
            engine._drain_intake(rnd, stats, engine._plan_intake(0))
            return engine, report, rnd, stats, 0

        self._replay_intake(rnd, first)
        engine._honest[first] = list(self._honest.get(first, []))
        stats = RoundStats(first)
        if snap is not None:
            commit = self._apply_checkpoint(rnd, snap)
            engine.rng.seek(commit.counter)
        elif marks:
            engine.rng.seek(marks[-1].counter)
        else:
            # Between rounds: round `first-1` settled only after round
            # `first`'s intake drained, so the settle-time rng mark is
            # the resume point.
            engine.rng.seek(done[first - 1][1])
        store.replaying = False
        store.mark_resume()
        return engine, report, rnd, stats, first
