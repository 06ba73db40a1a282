"""Node-restore scaling (the ``"recovery_scaling"`` bench record).

The point of checkpoint shipping: replacing a node by replaying its
full journal is O(history) — the restore cost grows with every round
the stream has run — while restoring from a shipped bundle is O(state),
flat in stream length.  This benchmark measures the disk-bound restore
path (journal scan + liveness mask, what a restarted ``repro serve``
process does before replaying open rounds) against fleet intake
journals of 10 / 50 / 200 rounds, and asserts the shipped restore is
both faster than full replay at depth and flat across depths.
"""

import time
from pathlib import Path

import pytest

from conftest import print_table, record_bench
from repro.net import envelopes as ev
from repro.store.compact import REC_CLOSE, REC_ENVELOPE, REC_OPEN, fleet_liveness
from repro.store.segments import LogDir
from repro.store.ship import CheckpointShipper


HISTORIES = [10, 50, 200]
ENVELOPES_PER_ROUND = 64
BODY_BYTES = 256
REPEAT = 3




def _envelope_record(round_id: int) -> bytes:
    """A journal-shaped intake record: a real envelope with a
    ``BODY_BYTES`` body (liveness reads the round id from the frame,
    so the body is never decoded)."""
    reason = "x" * (BODY_BYTES - 4)  # u32 length prefix + text
    env = ev.wrap(ev.SubmitErr(reason=reason), round_id, 0, 3, round_id)
    return env.to_bytes(None)


def _make_journal(root: Path, rounds: int) -> None:
    """``rounds`` of intake with every round but the last closed — the
    worst realistic history: one live round atop a long dead prefix.
    No rotation/compaction: this is the *unsharded* O(history) layout a
    replacement would otherwise replay."""
    log = LogDir(root, fsync_every=0)
    for r in range(rounds):
        mark = ev.RoundOpen(
            fresh=r == 0, epoch_round=0, seed=bytes(8), counter=r
        )
        log.append(REC_OPEN, mark.table.encode(mark), r)
        for _ in range(ENVELOPES_PER_ROUND):
            log.append(REC_ENVELOPE, _envelope_record(r), r)
        if r != rounds - 1:
            log.append(REC_CLOSE, b"", r)
    log.close()


def _restore_s(root: Path) -> float:
    """The restore-path cost: scan the journal and compute the live
    set (best-of-N; record decode + liveness dominate, exactly what a
    restarted process pays before re-handling open rounds)."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        scan = LogDir.scan_dir(root)
        fleet_liveness(scan.records)
        best = min(best, time.perf_counter() - start)
    assert not scan.truncated
    return best


@pytest.mark.slow
def test_recovery_scaling(tmp_path):
    shipper = CheckpointShipper(liveness=fleet_liveness, kind="fleet")
    rows = []
    record = {}
    for rounds in HISTORIES:
        source = tmp_path / f"history-{rounds}"
        _make_journal(source, rounds)
        replay_s = _restore_s(source)
        replay_bytes = LogDir.scan_dir(source).disk_bytes

        bundle = shipper.build(source)
        installed = tmp_path / f"shipped-{rounds}"
        shipper.install(installed, bundle)
        shipped_s = _restore_s(installed)
        shipped_bytes = LogDir.scan_dir(installed).disk_bytes

        rows.append(
            (
                f"{rounds}",
                f"{replay_s * 1e3:.1f}",
                f"{replay_bytes:,}",
                f"{shipped_s * 1e3:.1f}",
                f"{shipped_bytes:,}",
                f"{len(bundle.records)}",
            )
        )
        record[str(rounds)] = {
            "replay_restore_s": round(replay_s, 5),
            "replay_bytes": replay_bytes,
            "shipped_restore_s": round(shipped_s, 5),
            "shipped_bytes": shipped_bytes,
            "shipped_records": len(bundle.records),
        }

    print_table(
        "Node restore: full-journal replay vs checkpoint-shipped bundle",
        [
            "rounds", "replay (ms)", "replay bytes",
            "shipped (ms)", "shipped bytes", "shipped records",
        ],
        rows,
    )
    record_bench(
        {
            "recovery_scaling": {
                "envelopes_per_round": ENVELOPES_PER_ROUND,
                "body_bytes": BODY_BYTES,
                "histories": record,
            }
        }
    )

    deepest = record[str(HISTORIES[-1])]
    shallow = record[str(HISTORIES[0])]
    # O(state) beats O(history) once history is deep ...
    assert deepest["shipped_restore_s"] < deepest["replay_restore_s"], (
        "shipped restore must be faster than full replay at "
        f"{HISTORIES[-1]} rounds"
    )
    # ... and stays flat: the shipped suffix is one open round whatever
    # the stream length (generous 4x margin for timer noise on shared
    # runners; replay grows ~20x over the same span).
    assert deepest["shipped_restore_s"] < max(
        4 * shallow["shipped_restore_s"], 0.05
    ), "shipped restore must not grow with history length"
    assert (
        abs(deepest["shipped_bytes"] - shallow["shipped_bytes"]) < 64
    ), (
        "the shipped bundle is one open round of state, independent of "
        "history (only the round-number digits in the open mark differ)"
    )
