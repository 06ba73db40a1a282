"""Compaction acceptance: a compacted state dir resumes to the same
bytes as the uncompacted one, on both transports — and crashing at any
failpoint inside rotation or compaction still recovers byte-identically.

The liveness rules (``repro.store.compact``) claim a record superseded
by a durable round boundary can never influence recovery; these tests
hold that claim to the transport-parity standard: seeded streams,
canonical per-round payloads, no loosened comparisons.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DeploymentConfig, StreamConfig, StreamEngine
from repro.core.pipeline import RoundStats
from repro.net import envelopes as ev
from repro.store import checkpoint as ck
from repro.store import segments as sg
from repro.store.compact import (
    REC_CLOSE,
    REC_ENVELOPE,
    REC_OPEN,
    CompactionStats,
    Compactor,
    compact_state_dir,
    deployment_liveness,
    enforce_retention,
    fleet_liveness,
)
from repro.store.recovery import RecoveryManager
from repro.store.segments import LogDir
from repro.store.wal import RecordType, WalRecord

ROUNDS = 3
USERS = 4
MSG = 8


class SimulatedCrash(Exception):
    pass


def _config(state_dir, transport="inproc", **overrides):
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant="trap",
        iterations=3,
        message_size=MSG,
        crypto_group="TOY",
        nizk_rounds=4,
        transport=transport,
        state_dir=str(state_dir) if state_dir is not None else None,
        # Tiny segments: a 3-round stream rotates many times, so the
        # compactor has a real sealed prefix to chew on.
        wal_segment_records=6,
        wal_retain_segments=0,  # keep auto-compaction out of the way
    )
    base.update(overrides)
    return DeploymentConfig(**base)


def _engine(config, rounds=ROUNDS):
    return StreamEngine(
        config,
        stream=StreamConfig(
            rounds=rounds, users_per_round=USERS, seed=b"compact-test"
        ),
    )


def _default_message(r, i):
    return f"r{r}u{i}".encode()[:MSG]


def _crash_run(state_dir, transport="inproc", crash_round=2, **overrides):
    """Run a stream that dies while ``crash_round``'s intake interleaves
    into the previous round's mixing; leaves a resumable state dir."""

    def crashing_fn(r, i):
        if (r, i) == (crash_round, 0):
            raise SimulatedCrash
        return _default_message(r, i)

    engine = _engine(_config(state_dir, transport, **overrides))
    with pytest.raises(SimulatedCrash):
        engine.run(message_fn=crashing_fn)


def _round_bytes(report):
    return [(r.round_id, r.ok, r.messages) for r in report.rounds]


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_compacted_resume_is_byte_identical(tmp_path, transport):
    """The tentpole acceptance: crash a stream, compact a copy of the
    state dir offline, resume both — byte-identical reports, and the
    compacted dir really did shed records and segments."""
    plain = tmp_path / "plain"
    _crash_run(plain, transport)
    compacted = tmp_path / "compacted"
    shutil.copytree(plain, compacted)
    stats = compact_state_dir(compacted)
    assert stats.ran and stats.dropped > 0
    assert stats.bytes_after < stats.bytes_before

    baseline = RecoveryManager(plain).resume_stream()
    resumed = RecoveryManager(compacted).resume_stream()
    assert baseline.ok and resumed.ok
    assert _round_bytes(resumed) == _round_bytes(baseline)
    for r in range(ROUNDS):
        for i in range(USERS):
            assert _default_message(r, i) in resumed.rounds[r].messages


def test_auto_compaction_bounds_the_live_layout(tmp_path):
    """retain_segments=2 keeps the manifest short for the whole run
    while the stream stays ok; retention accounting never counts
    scratch files."""
    (tmp_path / "r0-g0-9.spill").write_bytes(b"leftover scratch")
    config = _config(tmp_path, wal_retain_segments=2)
    with _engine(config) as engine:
        report = engine.run(message_fn=lambda r, i: _default_message(r, i))
    assert report.ok
    manifest = json.loads((tmp_path / "wal.manifest").read_text())
    # base + at most retain sealed + active
    assert len(manifest["segments"]) <= 4
    assert (tmp_path / "r0-g0-9.spill").exists()
    scan = LogDir.scan_dir(tmp_path)
    assert scan.clean_shutdown
    assert scan.disk_bytes == sum(
        (tmp_path / n).stat().st_size for n in manifest["segments"]
    )


def test_compacting_a_clean_dir_then_rerunning_is_fine(tmp_path):
    config = _config(tmp_path)
    with _engine(config) as engine:
        assert engine.run(message_fn=lambda r, i: _default_message(r, i)).ok
    stats = compact_state_dir(tmp_path)
    assert stats.ran
    scan = LogDir.scan_dir(tmp_path)
    assert scan.clean_shutdown
    assert not RecoveryManager(tmp_path).needs_recovery()


def _round_payloads(round_bytes):
    """Order-free per-round view: a resumed stream redraws the
    interrupted round's mix permutation (same standard as the fleet
    SIGKILL test), so storms compare delivered payload sets."""
    return [(rid, ok, sorted(msgs)) for rid, ok, msgs in round_bytes]


class TestCrashInsideMaintenance:
    """Failpoint storms: die at a named point inside rotation or
    compaction (online, mid-stream, on the n-th hit) and require the
    resumed stream to deliver every round's exact payload set."""

    @pytest.fixture(autouse=True)
    def _clear_failpoint(self):
        yield
        sg.FAILPOINT = None

    @staticmethod
    def _baseline():
        with tempfile.TemporaryDirectory() as tmp:
            report = _engine(_config(Path(tmp))).run(
                message_fn=lambda r, i: _default_message(r, i)
            )
        return _round_bytes(report)

    @given(
        point=st.sampled_from(
            [
                "rotate:sealed",
                "rotate:created",
                "rotate:swapped",
                "compact:written",
                "compact:swapped",
                "compact:cleaned",
            ]
        ),
        occurrence=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=12, deadline=None)
    def test_kill_point_storm_resumes_byte_identical(self, point, occurrence):
        baseline = self._baseline()
        with tempfile.TemporaryDirectory() as tmp:
            # retain=1 drives *online* compaction constantly, so the
            # compact:* points fire mid-stream, between live appends.
            config = _config(Path(tmp), wal_retain_segments=1)
            hits = [0]

            def hook(name):
                if name == point:
                    hits[0] += 1
                    if hits[0] == occurrence + 1:
                        raise SimulatedCrash(name)

            sg.FAILPOINT = hook
            report = None
            try:
                # Engine construction opens the log dir, so even the
                # first segment's creation is in the blast radius.
                report = _engine(config).run(
                    message_fn=lambda r, i: _default_message(r, i)
                )
            except SimulatedCrash:
                pass
            finally:
                sg.FAILPOINT = None
            if report is None:
                if LogDir.present(tmp) and LogDir.scan_dir(tmp).records:
                    manager = RecoveryManager(tmp)
                    assert manager.needs_recovery()
                    report = manager.resume_stream()
                else:
                    # Died before the stream journaled anything; a
                    # fresh run over the leftovers must just work.
                    report = _engine(config).run(
                        message_fn=lambda r, i: _default_message(r, i)
                    )
            assert report.ok
            assert _round_payloads(_round_bytes(report)) == _round_payloads(
                baseline
            )

    @pytest.mark.parametrize(
        "point", ["compact:written", "compact:swapped", "compact:cleaned"]
    )
    def test_offline_compaction_crash_leaves_resumable_dir(
        self, tmp_path, point
    ):
        """``repro store compact`` dying mid-swap must never cost a
        record: resume after the crash equals resume of the pristine
        copy."""
        plain = tmp_path / "plain"
        _crash_run(plain)
        victim = tmp_path / "victim"
        shutil.copytree(plain, victim)

        def hook(name):
            if name == point:
                raise SimulatedCrash(name)

        sg.FAILPOINT = hook
        with pytest.raises(SimulatedCrash):
            compact_state_dir(victim)
        sg.FAILPOINT = None

        baseline = RecoveryManager(plain).resume_stream()
        resumed = RecoveryManager(victim).resume_stream()
        assert resumed.ok
        assert _round_bytes(resumed) == _round_bytes(baseline)


def _mark(fresh):
    return ck.RNG_MARK.encode(ck.RngMark(0, fresh, b"seed", 7))


_OPEN = ev.RoundOpen.table.encode(
    ev.RoundOpen(fresh=True, epoch_round=0, seed=b"seed", counter=0)
)


class TestLivenessRules:
    def test_deployment_mask_keeps_identity_and_open_rounds(self):
        done = ck.RoundDone(RoundStats(0, ok=True), 9)
        recs = [
            WalRecord(RecordType.META, ck.META.encode(_config(None))),
            WalRecord(
                RecordType.STREAM_BEGIN,
                ck.STREAM_BEGIN.encode(
                    ck.StreamBegin(StreamConfig(rounds=2), "")
                ),
            ),
            WalRecord(RecordType.ROUND_SETUP, _mark(fresh=True), 0),
            WalRecord(RecordType.ROUND_DONE, ck.ROUND_DONE.encode(done), 0),
            WalRecord(RecordType.ROUND_SETUP, _mark(fresh=False), 1),
            WalRecord(RecordType.RESUME, b""),
            WalRecord(199, b"unknown type"),
        ]
        assert deployment_liveness(recs) == [
            True,  # META
            True,  # STREAM_BEGIN
            True,  # fresh setup mark
            True,  # boundary
            True,  # round 1 not settled
            False,  # RESUME is a pure marker
            True,  # unknown types survive
        ]

    def test_fleet_mask_drops_closed_rounds_entirely(self):
        recs = [
            WalRecord(REC_OPEN, _OPEN, 0),
            WalRecord(REC_OPEN, _OPEN, 1),
            WalRecord(REC_CLOSE, b"", 0),
        ]
        assert fleet_liveness(recs) == [False, True, False]

    def test_undecodable_bodies_are_kept_and_never_raise(self):
        """Liveness reads frame round ids; the one body it decodes (a
        settled round's ROUND_SETUP, for its ``fresh`` flag) is kept
        when it does not decode.  Garbage in an open round's records is
        kept by both masks."""
        garbage = b"\xff" * 3
        recs = [
            WalRecord(RecordType.ROUND_SETUP, garbage, 0),
            WalRecord(RecordType.ROUND_SETUP, _mark(fresh=False), 0),
            WalRecord(
                RecordType.ROUND_DONE,
                ck.ROUND_DONE.encode(ck.RoundDone(RoundStats(0, ok=True), 9)),
                0,
            ),
            WalRecord(RecordType.ENVELOPE, garbage, 1),
            WalRecord(RecordType.CHECKPOINT, garbage, 1),
        ]
        assert deployment_liveness(recs) == [True, False, True, True, True]
        recs = [
            WalRecord(REC_OPEN, garbage, 2),
            WalRecord(REC_ENVELOPE, garbage, 2),
        ]
        assert fleet_liveness(recs) == [True, True]

    @pytest.mark.parametrize("family", ["deployment", "fleet"])
    def test_one_retention_rule_for_both_journals(self, tmp_path, family):
        """``enforce_retention`` compacts only once the sealed backlog
        exceeds ``retain``, whichever liveness decides what is dead;
        retain=0 never compacts."""
        if family == "deployment":
            liveness = deployment_liveness
            body = (RecordType.ROUND_BEGIN, _mark(fresh=False))
            boundary = (
                RecordType.ROUND_DONE,
                ck.ROUND_DONE.encode(ck.RoundDone(RoundStats(0, ok=True), 9)),
            )
        else:
            liveness = fleet_liveness
            body, boundary = (REC_OPEN, _OPEN), (REC_CLOSE, b"")
        retain = 2
        logs = {n: LogDir(tmp_path / str(n), fsync_every=0,
                          segment_records=2) for n in (retain, 0)}
        ran = {n: 0 for n in logs}
        for r in range(12):
            for n, log in logs.items():
                log.append(*body, r)
                log.append(*boundary, r)
                sealed = len(log.sealed_names())
                stats = enforce_retention(log, n, liveness)
                if n and sealed > n:
                    assert stats.ran and stats.dropped > 0
                    assert log.sealed_names() == [log.segments[0]]
                    ran[n] += 1
                else:
                    assert stats is None
                    assert len(log.sealed_names()) == sealed
                assert not n or len(log.segments) <= n + 2
        assert ran[retain] >= 3 and ran[0] == 0
        assert len(logs[0].sealed_names()) == 12  # one per round
        for log in logs.values():
            log.close()

    def test_compactor_never_touches_single_segment_logs(self, tmp_path):
        log = LogDir(tmp_path, segment_records=0)
        log.append(RecordType.META, ck.META.encode(_config(None)))
        stats = Compactor().compact(log)
        log.close()
        assert stats == CompactionStats(
            bytes_before=stats.bytes_before, bytes_after=stats.bytes_before
        )
        assert not stats.ran
