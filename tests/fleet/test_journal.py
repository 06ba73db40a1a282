"""The fleet intake journal's retention policy, driven through
``FleetServer._dispatch`` in-process (no sockets, no child processes).

A serve process journals ROUND_OPEN / accepted intake / ROUND_CLOSE
and applies the coordinator journal's retention rule at every close:
rotate only at the segment thresholds, compact only once the sealed
backlog exceeds ``wal_retain_segments``.  These tests pin that a close
below the thresholds changes no layout, that the manifest stays within
``retain + 2`` segments while closed rounds drain away, and that a
restart rebuilds exactly the open rounds — even when a closed round's
journaled envelope no longer decodes.
"""

import json
import os

from repro.core import Client, DeploymentConfig
from repro.fleet.plan import DeploymentPlan
from repro.fleet.server import FleetServer, fleet_log_root
from repro.net import envelopes as ev
from repro.store.compact import REC_CLOSE, REC_ENVELOPE, REC_OPEN
from repro.store.segments import LogDir

SEED = b"fleet-journal"


def _server(tmp_path, **overrides):
    """Process p0 (gid 0) of a two-process plan, its journal attached."""
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant="basic",
        iterations=3,
        message_size=8,
        crypto_group="TOY",
        nizk_rounds=4,
    )
    base.update(overrides)
    plan = DeploymentPlan.build(
        DeploymentConfig(**base), 2, ports=[1, 2],
        state_root=str(tmp_path / "state"),
    )
    server = FleetServer(plan, "p0")
    server._open_wal()
    return server


def _control(server, payload, round_id):
    (reply,) = server._dispatch(
        ev.wrap(payload, round_id, ev.COORDINATOR, ev.CONTROL)
    )
    assert reply.kind is ev.Kind.CONTROL_OK, reply
    return reply


def _open(server, round_id):
    _control(
        server,
        ev.RoundOpen(fresh=True, epoch_round=0, seed=SEED, counter=0),
        round_id,
    )


def _submit(server, round_id, message):
    ctx = server.contexts[0]
    sub = Client(server.group).prepare_plain(
        message, ctx.public_key, 0, server.deployment.spec.payload_size
    )
    (reply,) = server._dispatch(
        ev.wrap(ev.SubmitPlain(gid=0, submission=sub), round_id,
                ev.COORDINATOR, 0)
    )
    assert reply.kind is ev.Kind.SUBMIT_OK, reply


def _close(server, round_id):
    _control(server, ev.RoundClose(), round_id)


def _round(server, round_id, close=True):
    _open(server, round_id)
    _submit(server, round_id, f"m{round_id}".encode())
    if close:
        _close(server, round_id)


def _manifest(server):
    return json.loads((server.wal.root / "wal.manifest").read_text())


def _journal_rounds(root):
    """Round ids that still have any record in the journal."""
    return {rec.round_id for rec in LogDir.scan_dir(root).records}


def test_close_below_thresholds_changes_no_layout(tmp_path):
    server = _server(tmp_path)
    _round(server, 0, close=False)
    segments = list(server.wal.segments)
    next_seq = server.wal.next_seq
    inode = os.stat(server.wal.root / "wal.manifest").st_ino
    _close(server, 0)
    assert server.wal.segments == segments
    assert server.wal.next_seq == next_seq
    assert os.stat(server.wal.root / "wal.manifest").st_ino == inode
    assert not [k for k in server.nodes if k[0] == 0]
    server.wal.close()


def test_retention_bounds_the_manifest_and_drains_closed_rounds(tmp_path):
    retain = 2
    server = _server(tmp_path, wal_segment_records=4, wal_retain_segments=retain)
    root = server.wal.root
    gone = set()
    for r in range(10):
        _open(server, r)
        assert len(_manifest(server)["segments"]) <= retain + 2
        _submit(server, r, f"m{r}".encode())
        assert len(_manifest(server)["segments"]) <= retain + 2
        _close(server, r)
        assert len(_manifest(server)["segments"]) <= retain + 2
        gone |= set(range(r + 1)) - _journal_rounds(root)
    # Segments really rotated and retired throughout the run ...
    assert server.wal.next_seq > retain + 2
    # ... and every closed round's records were dropped at some close
    # (3 records a round, 4 a segment: the last compaction, at round
    # 9's close, sealed everything up to round 9's own close record).
    assert gone == set(range(9))
    assert _journal_rounds(root) == {9}
    server.wal.close()


def test_restart_rebuilds_exactly_the_open_rounds(tmp_path):
    config = dict(wal_segment_records=4, wal_retain_segments=2)
    server = _server(tmp_path, **config)
    for r in range(8):
        _round(server, r)
    _round(server, 8, close=False)
    _round(server, 9, close=False)
    _submit(server, 9, b"second")
    server.wal.close()

    restarted = _server(tmp_path, **config)
    assert set(restarted.nodes) == {(8, 0), (9, 0)}
    assert len(restarted.nodes[(8, 0)].holdings) == 1
    assert len(restarted.nodes[(9, 0)].holdings) == 2
    restarted.wal.close()


def test_restart_never_decodes_a_closed_rounds_envelopes(tmp_path):
    """A closed round whose journaled envelope is garbage must not stop
    a restart: only the open round is replayed, and nothing of the
    closed one is decoded (its round id is in the frame)."""
    server = _server(tmp_path)
    _round(server, 1, close=False)
    server.wal.close()
    root = fleet_log_root(server.spec.state_dir)
    open_1, envelope_1 = LogDir.scan_dir(root).records

    # Round 0, closed, journaled ahead of round 1 the way a close below
    # the compaction threshold leaves it.
    assert (open_1.round_id, envelope_1.round_id) == (1, 1)
    journal = LogDir(root, fsync_every=0, fresh=True)
    journal.append(REC_OPEN, open_1.payload, 0)
    journal.append(REC_ENVELOPE, b"\xff" * 40, 0)
    journal.append(REC_CLOSE, b"", 0)
    for rec in (open_1, envelope_1):
        journal.append(rec.type, rec.payload, rec.round_id)
    journal.close()

    restarted = _server(tmp_path)
    assert set(restarted.nodes) == {(1, 0)}
    assert len(restarted.nodes[(1, 0)].holdings) == 1
    restarted.wal.close()
