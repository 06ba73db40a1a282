"""Crash-restart matrix: kill a one-round stream after *every* layer
commit, resume, and require the resumed round's ``RoundResult``
byte-identical to the uninterrupted run — on both transports.

``repro round`` is exactly such a stream.  The results are captured
where the coordinator's exit protocol returns them
(``Coordinator.finish``) and compared with the cross-transport parity
harness's canonical bytes: recovery is held to the same standard the
transports are — it must not influence the crypto at all.
"""

import contextlib
import dataclasses
from unittest import mock

import pytest

from repro.cli import main
from repro.core import (
    AtomDeployment,
    DeploymentConfig,
    StreamConfig,
    StreamEngine,
)
from repro.crypto.groups import DeterministicRng, get_group
from repro.net.coordinator import Coordinator
from repro.net.envelopes import WireFormatError
from repro.store import checkpoint as ck
from repro.store.recovery import RecoveryError, RecoveryManager
from repro.store.segments import LogDir
from repro.store.store import DurableStore, StreamNotBegun
from repro.store.wal import RecordType, WriteAheadLog
from tests.net.test_transport_parity import _canonical

ITERATIONS = 3


class SimulatedCrash(Exception):
    """Stands in for the process dying (SIGKILL) mid-round."""


def _config(tmp_path=None, transport="inproc", variant="trap", **overrides):
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant=variant,
        iterations=ITERATIONS,
        message_size=8,
        crypto_group="TOY",
        nizk_rounds=4,
        transport=transport,
        state_dir=str(tmp_path) if tmp_path is not None else None,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


def _engine(config):
    return StreamEngine(
        config,
        stream=StreamConfig(rounds=1, users_per_round=4, seed=b"parity-setup"),
        message_fn=lambda r, i: b"store-%d" % i,
    )


@contextlib.contextmanager
def _results():
    """Collect every RoundResult the exit protocol returns."""
    results = []
    finish = Coordinator.finish

    def capture(self):
        results.append(finish(self))
        return results[-1]

    with mock.patch.object(Coordinator, "finish", capture):
        yield results


def _drive_round(config, stop_after_layers=None):
    """A seeded one-round stream; returns its RoundResult.
    ``stop_after_layers`` commits that many layers and then dies: no
    clean marker, and the log keeps only what was journaled."""
    if stop_after_layers is None:
        with _results() as results, _engine(config) as engine:
            engine.run()
        (result,) = results
        return result
    commit = DurableStore.layer_commit

    def bomb(self, round_id, layer, *rest):
        commit(self, round_id, layer, *rest)
        if layer == stop_after_layers:
            raise SimulatedCrash

    with mock.patch.object(DurableStore, "layer_commit", bomb):
        with pytest.raises(SimulatedCrash):
            _engine(config).run()
    return None


def _resume(manager):
    """Resume the crashed stream; returns the resumed round's result."""
    with _results() as results:
        report = manager.resume_stream()
    assert report.ok
    (result,) = results
    return result


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
@pytest.mark.parametrize("stop_after", list(range(1, ITERATIONS + 1)))
def test_resume_is_byte_identical_after_every_layer_commit(
    tmp_path, transport, stop_after
):
    """stop_after == ITERATIONS crashes between the last commit and the
    exit protocol — recovery must replay that too."""
    group = get_group("TOY")
    baseline = _drive_round(_config(transport=transport))
    _drive_round(
        _config(tmp_path, transport=transport), stop_after_layers=stop_after
    )

    manager = RecoveryManager(tmp_path)
    assert manager.needs_recovery() and manager.is_stream
    resumed = _resume(manager)

    assert _canonical(group, resumed) == _canonical(group, baseline)


def test_resume_ignores_scratch_and_orphan_segments(tmp_path):
    """The garbage contract of segmented layouts: torn foreign files
    (in a subdirectory *and* at the top level) plus an orphan
    ``wal-*.seg`` from a rotation that died before its manifest swap
    must not influence resume — readers follow the manifest, never the
    directory glob — and stay out of the retention accounting."""
    group = get_group("TOY")
    baseline = _drive_round(_config())
    _drive_round(
        _config(tmp_path, wal_segment_records=4),
        stop_after_layers=2,
    )
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir(exist_ok=True)
    (spill_dir / "r0-g0-99.spill").write_bytes(b"torn garbage, not a WAL")
    (tmp_path / "r0-g0-1.spill").write_bytes(b"more torn garbage")
    orphan = tmp_path / "wal-000099.seg"
    wal = WriteAheadLog(orphan, fresh=True)
    wal.append(1, b'{"alien": "records"}')
    wal.close()

    scan = LogDir.scan_dir(tmp_path)
    assert len(scan.segments_read) > 1  # the rotation threshold fired
    assert "wal-000099.seg" not in scan.segments_read
    assert scan.disk_bytes == sum(
        (tmp_path / name).stat().st_size for name in scan.segments_read
    )

    manager = RecoveryManager(tmp_path)
    assert manager.needs_recovery()
    assert manager.segments_read == scan.segments_read
    resumed = _resume(manager)
    assert _canonical(group, resumed) == _canonical(group, baseline)
    # The scratch files survive untouched; resume only consumed the
    # manifest's segments.
    assert (spill_dir / "r0-g0-99.spill").exists()
    assert (tmp_path / "r0-g0-1.spill").exists()


@pytest.mark.parametrize("variant", ["basic", "nizk"])
def test_resume_other_variants(tmp_path, variant):
    group = get_group("TOY")
    baseline = _drive_round(_config(variant=variant))
    _drive_round(_config(tmp_path, variant=variant), stop_after_layers=2)
    resumed = _resume(RecoveryManager(tmp_path))
    assert _canonical(group, resumed) == _canonical(group, baseline)


def test_resume_preserves_trap_and_audit_outcomes(tmp_path):
    """The resumed round's trap bookkeeping equals the uninterrupted
    run's — same traps checked, same per-layer audits (already inside
    the canonical bytes, asserted explicitly here for the §4.4 story)."""
    baseline = _drive_round(_config())
    _drive_round(_config(tmp_path), stop_after_layers=1)
    resumed = _resume(RecoveryManager(tmp_path))
    assert resumed.num_traps_checked == baseline.num_traps_checked > 0
    assert len(resumed.audits) == len(baseline.audits)
    assert [a.tamperings for a in resumed.audits] == [
        a.tamperings for a in baseline.audits
    ]
    assert resumed.bytes_sent_total == baseline.bytes_sent_total


def test_recovery_resumes_blame_registry(tmp_path):
    """Replayed intake rebuilds ``rnd.trap_submissions`` in original
    user-id order, so §4.6 blame still works after a restart."""

    def registry(rnd):
        return {
            uid: (gid, sub.trap_commitment)
            for uid, (gid, sub) in rnd.trap_submissions.items()
        }

    seen = {}
    begin_mixing = AtomDeployment.begin_mixing

    def record_original(self, rnd, rng=None):
        seen["original"] = registry(rnd)
        return begin_mixing(self, rnd, rng)

    with mock.patch.object(AtomDeployment, "begin_mixing", record_original):
        _drive_round(_config(tmp_path), stop_after_layers=1)

    resume_run = StreamEngine.resume_run

    def record_rebuilt(self, report, rnd, stats, first):
        seen["rebuilt"] = registry(rnd)
        return resume_run(self, report, rnd, stats, first)

    with mock.patch.object(StreamEngine, "resume_run", record_rebuilt):
        assert RecoveryManager(tmp_path).resume_stream().ok
    assert len(seen["original"]) == 4
    assert seen["rebuilt"] == seen["original"]


def test_clean_shutdown_never_replays(tmp_path):
    """A with-block exit leaves the shutdown marker; resume refuses."""
    assert _drive_round(_config(tmp_path)).ok

    manager = RecoveryManager(tmp_path)
    assert manager.clean_shutdown and not manager.needs_recovery()
    with pytest.raises(RecoveryError, match="clean shutdown"):
        manager.resume_stream()


def test_log_without_stream_begin_is_refused(tmp_path, capsys):
    """A durable deployment refuses to set up a round outside a stream,
    so no run writes a log without STREAM_BEGIN; given one anyway,
    resume refuses it by naming the record, and ``repro resume`` exits
    2 with that message."""
    with AtomDeployment(_config(tmp_path / "refused")) as dep:
        with pytest.raises(StreamNotBegun, match="before STREAM_BEGIN"):
            dep.start_round(0, rng=DeterministicRng(b"parity-setup"))

    group = get_group("TOY")
    log = LogDir(tmp_path, fsync_every=0)
    log.append(RecordType.META, ck.META.encode(_config(tmp_path), group))
    mark = ck.RngMark(0, True, *ck.rng_state(DeterministicRng(b"parity-setup")))
    log.append(RecordType.ROUND_SETUP, ck.RNG_MARK.encode(mark, group), 0)
    log.close()  # flushed, but no clean marker

    manager = RecoveryManager(tmp_path)
    assert manager.needs_recovery() and not manager.is_stream
    with pytest.raises(RecoveryError, match="no STREAM_BEGIN record"):
        manager.resume_stream()
    assert main(["resume", "--state-dir", str(tmp_path)]) == 2
    assert "no STREAM_BEGIN record" in capsys.readouterr().err


def test_finished_round_finalizes_instead_of_resuming(tmp_path):
    """Completed round, crash before the clean marker: resume mixes
    nothing, rebuilds the report from the journaled stats and writes
    the missing marker."""
    with _results() as results:
        _engine(_config(tmp_path)).run()  # completes; no clean exit
    manager = RecoveryManager(tmp_path)
    assert manager.needs_recovery()
    with _results() as resumed:
        report = manager.resume_stream()
    assert resumed == []
    assert report.ok and report.rounds[0].messages == results[0].messages
    assert RecoveryManager(tmp_path).clean_shutdown


def test_missing_state_dir_raises(tmp_path):
    with pytest.raises(RecoveryError, match="no write-ahead log"):
        RecoveryManager(tmp_path / "nope")


def test_cut_off_checkpoint_re_mixes_the_layer(tmp_path):
    """A SIGKILL between a LAYER_COMMIT and its CHECKPOINT leaves a log
    whose last commit has no snapshot: resume starts from the previous
    snapshot and re-mixes the gap — still byte-identical, just O(gap)
    extra work."""
    group = get_group("TOY")
    baseline = _drive_round(_config())
    journal = DurableStore._journal

    def die_before_checkpoint(self, rtype, round_id, table, record):
        if rtype == RecordType.CHECKPOINT and record.layer == ITERATIONS:
            raise SimulatedCrash
        journal(self, rtype, round_id, table, record)

    with mock.patch.object(DurableStore, "_journal", die_before_checkpoint):
        with pytest.raises(SimulatedCrash):
            _engine(_config(tmp_path)).run()
    manager = RecoveryManager(tmp_path)
    assert max(c.layer for c in manager._commits[0]) == ITERATIONS
    assert manager._checkpoints[0].layer == ITERATIONS - 1
    resumed = _resume(manager)
    assert _canonical(group, resumed) == _canonical(group, baseline)


def test_journal_of_version_2_envelopes_is_refused(tmp_path):
    """Wire version 3 changed the routed payload layout, which the
    envelope codec cannot see; a state dir journaled by a version-2
    build must fail on resume, not replay payloads it would misparse at
    the exit (there is no migration path: no deployed state dir holds
    version-2 envelopes)."""
    journal = DurableStore.envelope_accepted

    def journal_as_v2(self, env, group):
        journal(self, dataclasses.replace(env, version=2), group)

    with mock.patch.object(DurableStore, "envelope_accepted", journal_as_v2):
        _drive_round(_config(tmp_path), stop_after_layers=1)

    manager = RecoveryManager(tmp_path)
    assert manager.needs_recovery()
    with pytest.raises(WireFormatError, match="wire version 2"):
        manager.resume_stream()


@pytest.mark.parametrize("mangle, why", [
    (lambda body: body + b"\x00\x00\x00\x02", "trailing bytes"),
    (lambda body: body[:-1], "truncated"),
], ids=["retired-knob", "cut-short"])
def test_meta_not_matching_the_table_is_refused(tmp_path, mangle, why):
    """A META body that does not match the table — one that still
    carries a retired knob, or one cut short — fails on resume with a
    RecoveryError, never a half-parsed config."""
    encode = ck.META.encode

    def encode_off_table(config, group=None):
        return mangle(encode(config, group))

    with mock.patch.object(ck.META, "encode", encode_off_table):
        _drive_round(_config(tmp_path), stop_after_layers=1)
    with pytest.raises(RecoveryError, match=f"META record unusable.*{why}"):
        RecoveryManager(tmp_path)


def test_meta_naming_a_retired_group_is_refused(tmp_path, capsys):
    """A state dir journaled on a group that is gone fails with a
    RecoveryError naming the choices, so ``repro resume`` exits 2
    instead of a KeyError traceback."""
    config = _config(tmp_path)
    config.crypto_group = "MODP2048"  # as an older build journaled it
    log = LogDir(tmp_path, fsync_every=0)
    log.append(RecordType.META, ck.META.encode(config, get_group("TOY")))
    log.close()
    with pytest.raises(RecoveryError, match="crypto_group must be one of"):
        RecoveryManager(tmp_path)
    assert main(["resume", "--state-dir", str(tmp_path)]) == 2
    assert "['P256', 'TOY'], got 'MODP2048'" in capsys.readouterr().err


def test_cli_resume_names_an_undecodable_layer_commit(tmp_path, capsys):
    """A LAYER_COMMIT body that passes its CRC but not its table makes
    ``repro resume`` exit 2 naming the record type, not a traceback."""
    encode = ck.LAYER_COMMIT.encode

    def encode_cut_short(commit, group=None):
        return encode(commit, group)[:-1]

    with mock.patch.object(ck.LAYER_COMMIT, "encode", encode_cut_short):
        _drive_round(_config(tmp_path), stop_after_layers=1)
    assert main(["resume", "--state-dir", str(tmp_path)]) == 2
    assert "LAYER_COMMIT record unusable" in capsys.readouterr().err
