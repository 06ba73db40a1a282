"""Crash-restart matrix: kill after *every* layer commit, resume, and
require the resumed ``RoundResult`` byte-identical to the uninterrupted
run — on both transports.

Reuses the cross-transport parity harness (seeded setup, client,
padding, canonical result bytes): recovery is held to the same standard
the transports are — it must not influence the crypto at all.
"""

import dataclasses
from unittest import mock

import pytest

from repro.cli import main
from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.crypto.groups import DeterministicRng, get_group
from repro.net.envelopes import WireFormatError
from repro.store import checkpoint as ck
from repro.store.recovery import RecoveryError, RecoveryManager
from repro.store.store import DurableStore
from tests.net.test_transport_parity import _canonical

ITERATIONS = 3


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


def _drive_round(config, stop_after_layers=None):
    """The parity harness's seeded round; ``stop_after_layers`` commits
    that many layers and then abandons the process state (no context
    manager, no clean marker — the closest an in-process test gets to a
    kill -9, with the log's torn-tail tolerance covered separately)."""
    dep = AtomDeployment(config)
    rng = DeterministicRng(b"parity-setup")
    rnd = dep.start_round(0, rng=rng)
    client = Client(dep.group, rng)
    for i in range(4):
        message = b"store-%d" % i
        if config.variant == "trap":
            dep.submit_trap(rnd, message, i % 2, client)
        else:
            dep.submit_plain(rnd, message, i % 2, client)
    dep.pad_round(rnd, rng)
    mix_rng = DeterministicRng(b"parity-round")
    if stop_after_layers is None:
        result = dep.run_round(rnd, mix_rng)
        dep.close()
        return result
    run = dep.begin_mixing(rnd, mix_rng)
    for _ in range(stop_after_layers):
        run.run_layer()
    dep.close()  # flush the log; the "crash" is the missing clean marker
    return None


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
    assert manager.needs_recovery() and not manager.is_stream
    resumed = manager.complete_round()

    assert resumed.ok
    assert _canonical(group, resumed) == _canonical(group, baseline)


@pytest.mark.parametrize("stop_after", [1, ITERATIONS])
def test_resume_spilled_round_is_byte_identical(tmp_path, stop_after):
    """Spill-restore equivalence: a round whose intake spilled to disk
    crashes mid-mix and resumes byte-identical to an unspilled,
    uncrashed baseline.  Spill segments are scratch — recovery replays
    intake from the deployment WAL's ENVELOPE records, so losing every
    .spill file with the 'process' is the expected case, not an edge."""
    group = get_group("TOY")
    baseline = _drive_round(_config())
    _drive_round(
        _config(tmp_path, spill_threshold=3), stop_after_layers=stop_after
    )
    # A real kill -9 leaves torn spill segments behind; plant one and
    # require recovery to ignore it (it must only read the round WAL).
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir(exist_ok=True)
    (spill_dir / "r0-g0-99.spill").write_bytes(b"torn garbage, not a WAL")

    manager = RecoveryManager(tmp_path)
    assert manager.needs_recovery()
    resumed = manager.complete_round()
    assert resumed.ok
    assert _canonical(group, resumed) == _canonical(group, baseline)


def test_resume_ignores_scratch_and_orphan_segments(tmp_path):
    """The spilled-round garbage contract, extended to segmented
    layouts: torn ``.spill`` scratch (in the spill dir *and* strewn at
    the top level) plus an orphan ``wal-*.seg`` from a rotation that
    died before its manifest swap must not influence resume — readers
    follow the manifest, never the directory glob — and stay out of
    the retention accounting."""
    from repro.store.segments import LogDir
    from repro.store.wal import WriteAheadLog

    group = get_group("TOY")
    baseline = _drive_round(_config())
    _drive_round(
        _config(tmp_path, spill_threshold=3, wal_segment_records=4),
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
    resumed = manager.complete_round()
    assert resumed.ok
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
    resumed = RecoveryManager(tmp_path).complete_round()
    assert _canonical(group, resumed) == _canonical(group, baseline)


def test_resume_preserves_trap_and_audit_outcomes(tmp_path):
    """The resumed round's trap bookkeeping equals the uninterrupted
    run's — same traps checked, same per-layer audits (already inside
    the canonical bytes, asserted explicitly here for the §4.4 story)."""
    baseline = _drive_round(_config())
    _drive_round(_config(tmp_path), stop_after_layers=1)
    resumed = RecoveryManager(tmp_path).complete_round()
    assert resumed.num_traps_checked == baseline.num_traps_checked > 0
    assert len(resumed.audits) == len(baseline.audits)
    assert [a.tamperings for a in resumed.audits] == [
        a.tamperings for a in baseline.audits
    ]
    assert resumed.bytes_sent_total == baseline.bytes_sent_total


def test_recovery_resumes_blame_registry(tmp_path):
    """Replayed intake rebuilds ``rnd.trap_submissions`` in original
    user-id order, so §4.6 blame still works after a restart."""
    config = _config(tmp_path)
    dep = AtomDeployment(config)
    rng = DeterministicRng(b"parity-setup")
    rnd = dep.start_round(0, rng=rng)
    client = Client(dep.group, rng)
    for i in range(4):
        dep.submit_trap(rnd, b"blame-%d" % i, i % 2, client)
    dep.pad_round(rnd, rng)
    original = {
        uid: (gid, sub.trap_commitment)
        for uid, (gid, sub) in rnd.trap_submissions.items()
    }
    run = dep.begin_mixing(rnd, DeterministicRng(b"parity-round"))
    run.run_layer()
    dep.close()

    dep2, rnd2, _ = RecoveryManager(tmp_path).resume_round()
    rebuilt = {
        uid: (gid, sub.trap_commitment)
        for uid, (gid, sub) in rnd2.trap_submissions.items()
    }
    assert rebuilt == original
    dep2.store.close()
    dep2.close()


def test_clean_shutdown_never_replays(tmp_path):
    """A with-block exit leaves the shutdown marker; resume refuses."""
    config = _config(tmp_path)
    with AtomDeployment(config) as dep:
        rng = DeterministicRng(b"parity-setup")
        rnd = dep.start_round(0, rng=rng)
        client = Client(dep.group, rng)
        for i in range(4):
            dep.submit_trap(rnd, b"clean-%d" % i, i % 2, client)
        dep.pad_round(rnd, rng)
        result = dep.run_round(rnd, DeterministicRng(b"parity-round"))
    assert result.ok

    manager = RecoveryManager(tmp_path)
    assert manager.clean_shutdown and not manager.needs_recovery()
    with pytest.raises(RecoveryError, match="clean shutdown"):
        manager.complete_round()


def test_unseeded_round_is_rejected_with_clear_error(tmp_path):
    """Without a DeterministicRng the group keys cannot be replayed;
    recovery must say so instead of producing garbage."""
    config = _config(tmp_path)
    dep = AtomDeployment(config)
    rnd = dep.start_round(0)  # system randomness
    client = Client(dep.group)
    for i in range(4):
        dep.submit_trap(rnd, b"x%d" % i, i % 2, client)
    dep.pad_round(rnd)
    run = dep.begin_mixing(rnd)
    run.run_layer()
    dep.close()

    with pytest.raises(RecoveryError, match="DeterministicRng"):
        RecoveryManager(tmp_path).resume_round()


def test_finished_round_finalizes_instead_of_resuming(tmp_path):
    """Completed round, crash before the clean marker: resume_round
    refuses (nothing to replay), finalize_round reports the outcome
    and writes the missing marker."""
    _drive_round(_config(tmp_path))  # runs to completion (no crash)
    manager = RecoveryManager(tmp_path)
    with pytest.raises(RecoveryError, match="exit protocol"):
        manager.resume_round()
    assert manager.finalize_round() == (0, True)
    assert RecoveryManager(tmp_path).clean_shutdown


def test_missing_state_dir_raises(tmp_path):
    with pytest.raises(RecoveryError, match="no write-ahead log"):
        RecoveryManager(tmp_path / "nope")


def test_checkpoint_cadence_re_mixes_missing_layers(tmp_path):
    """checkpoint_every=2 snapshots only even layers; a crash after an
    odd commit resumes from the last snapshot and re-mixes the gap —
    still byte-identical, just O(gap) extra work."""
    group = get_group("TOY")
    baseline = _drive_round(_config())
    _drive_round(
        _config(tmp_path, checkpoint_every=2), stop_after_layers=3
    )
    manager = RecoveryManager(tmp_path)
    resumed = manager.complete_round()
    assert _canonical(group, resumed) == _canonical(group, baseline)


def test_journal_of_version_2_envelopes_is_refused(tmp_path):
    """Wire version 3 changed the routed payload layout, which the
    envelope codec cannot see; a state dir journaled by a version-2
    build must fail on resume, not replay payloads it would misparse at
    the exit (no migration path: ROADMAP 2c, "dirs nobody has")."""
    journal = DurableStore.envelope_accepted

    def journal_as_v2(self, env, group):
        journal(self, dataclasses.replace(env, version=2), group)

    with mock.patch.object(DurableStore, "envelope_accepted", journal_as_v2):
        _drive_round(_config(tmp_path), stop_after_layers=1)

    manager = RecoveryManager(tmp_path)
    assert manager.needs_recovery()
    with pytest.raises(WireFormatError, match="wire version 2"):
        manager.complete_round()


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
