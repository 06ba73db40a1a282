"""The `repro round` contract: flags, exit codes and output lines."""

import ast

import pytest

from repro.cli import main
from repro.core import StreamEngine
from repro.core.server import Behavior
from repro.store.recovery import RecoveryManager
from repro.store.store import DurableStore


def _round(capsys, *flags):
    code = main(["round", "--groups", "2", "--seed", "s", *flags])
    return code, capsys.readouterr().out


def _messages(out):
    """The delivered plaintexts `round` prints, one ``  b'...'`` line each."""
    return sorted(
        ast.literal_eval(line.strip())
        for line in out.splitlines()
        if line.startswith("  b")
    )


@pytest.mark.parametrize("variant", ["trap", "nizk", "basic"])
def test_round_prints_every_message(capsys, variant):
    code, out = _round(capsys, "--users", "4", "--variant", variant)
    assert code == 0
    assert out.startswith("round: ok (inproc transport) payload=")
    assert "messages out: 4" in out
    assert _messages(out) == [b"r0u%d" % i for i in range(4)]


def test_every_user_is_delivered_without_user_padding(capsys):
    """Cover dummies pad the entry groups, so an odd user count
    delivers exactly that many messages."""
    code, out = _round(capsys, "--users", "5")
    assert code == 0
    assert "messages out: 5" in out
    assert _messages(out) == [b"r0u%d" % i for i in range(5)]


def test_aborted_round_exits_1(capsys, monkeypatch):
    """Every server duplicating a ciphertext aborts the round and its
    retry: `round` names the abort and exits 1."""

    def arm_every_server(engine):
        for server in engine._registry.values():
            server.behavior = Behavior.DUPLICATE_ONE
            server.tamper_budget = 1

    monkeypatch.setattr(StreamEngine, "_reset_behaviors", arm_every_server)
    code, out = _round(capsys, "--users", "4")
    assert code == 1
    assert out.startswith("round: ABORTED: ")
    assert "messages out: 0" in out


def test_bad_knob_exits_2(capsys):
    assert main(["round", "--net-faults", "*:teleport:1%"]) == 2
    assert "error:" in capsys.readouterr().err


def test_list_groups_prints_p256_and_toy(capsys):
    assert main(["list-groups"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["P256", "TOY"]


def test_retired_group_exits_2_naming_the_choices(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["round", "--group", "modp2048"])
    assert exited.value.code == 2
    assert "(choose from 'P256', 'TOY')" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, knob", [
    ("--message-size", "0", "message_size"),
    ("--wal-segment-bytes", "-5", "wal_segment_bytes"),
    ("--wal-segment-records", "-1", "wal_segment_records"),
    ("--wal-retain-segments", "-1", "wal_retain_segments"),
    ("--groups", "0", "num_groups"),
    ("--group-size", "0", "group_size"),
    ("--iterations", "0", "iterations"),
])
def test_out_of_range_size_exits_2(capsys, flag, value, knob):
    """A zero message size made the cover marker empty, so the exit
    dropped every message; a negative WAL knob meant "never"."""
    assert main(["round", "--seed", "s", flag, value]) == 2
    assert f"error: {knob} must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--h", "0"],
    ["--h", "5", "--group-size", "4"],
])
def test_out_of_range_h_exits_2(capsys, flags):
    """A many-trust ``h`` outside 1..group_size used to surface as a
    traceback from the group's secret sharing, mid-run."""
    argv = ["run-stream", "--rounds", "1", "--mode", "manytrust", *flags]
    assert main(argv) == 2
    assert "error: h must be in 1..group_size" in capsys.readouterr().err


class SimulatedCrash(Exception):
    """Stands in for the process dying (SIGKILL) mid-round."""


def _crashed_round(state_dir, monkeypatch, capsys):
    """`round --state-dir` killed right after its first layer commit."""
    original = DurableStore.layer_commit

    def bomb(self, round_id, layer, *rest):
        original(self, round_id, layer, *rest)
        if layer == 1:
            raise SimulatedCrash

    with monkeypatch.context() as patch, pytest.raises(SimulatedCrash):
        patch.setattr(DurableStore, "layer_commit", bomb)
        _round(capsys, "--users", "4", "--state-dir", str(state_dir))
    capsys.readouterr()


def test_crashed_durable_round_resumes_with_every_message(
    tmp_path, monkeypatch, capsys
):
    """A durable `round` journals a one-round stream: a crash after
    the first layer commit resumes to the uncrashed run's messages."""
    code, out = _round(
        capsys, "--users", "4", "--state-dir", str(tmp_path / "a")
    )
    assert code == 0
    uncrashed = _messages(out)

    _crashed_round(tmp_path / "b", monkeypatch, capsys)
    manager = RecoveryManager(tmp_path / "b")
    assert manager.is_stream and manager.needs_recovery()
    report = manager.resume_stream()
    assert report.ok
    assert sorted(report.rounds[0].messages) == uncrashed


def test_round_killed_before_its_first_commit_resumes_the_same_messages(
    tmp_path, monkeypatch, capsys
):
    """A crash before the first LAYER_COMMIT redoes the round from its
    seed: `resume` delivers the uninterrupted run's messages, and the
    CLI prints them as `round` does."""
    code, out = _round(capsys, "--users", "4")
    assert code == 0
    uninterrupted = _messages(out)

    def bomb(self, round_id, rng):
        raise SimulatedCrash

    for state_dir in (tmp_path / "api", tmp_path / "cli"):
        with monkeypatch.context() as patch, pytest.raises(SimulatedCrash):
            patch.setattr(DurableStore, "mixing_begin", bomb)
            _round(capsys, "--users", "4", "--state-dir", str(state_dir))
        capsys.readouterr()
    manager = RecoveryManager(tmp_path / "api")
    assert "committed layers {}" in manager.describe()
    report = manager.resume_stream()
    assert report.ok
    assert sorted(report.rounds[0].messages) == uninterrupted

    assert main(["resume", "--state-dir", str(tmp_path / "cli")]) == 0
    resumed = capsys.readouterr().out
    assert "round 0:\nmessages out: 4\n" in resumed
    assert _messages(resumed) == uninterrupted


def test_cli_resume_finishes_a_crashed_round(tmp_path, monkeypatch, capsys):
    _crashed_round(tmp_path, monkeypatch, capsys)
    assert main(["resume", "--state-dir", str(tmp_path)]) == 0
    assert "stream: 1 rounds, 4 msgs" in capsys.readouterr().out
    assert main(["resume", "--state-dir", str(tmp_path)]) == 0
    assert "nothing to resume" in capsys.readouterr().out
