#!/usr/bin/env python3
"""persist-smoke: SIGKILL a durable run-stream mid-round-2, resume it.

The end-to-end durability proof with a *real* process death (not a
simulated one): start a 3-round P-256 stream with ``--state-dir``,
poll its write-ahead log until round 2 (index 1) commits a mixing
layer, ``kill -9`` the process, check that round 2 had not settled,
then ``repro resume`` and require the final ``StreamReport.ok``.  The
shape (24 users, 4 layers) makes a layer take several poll intervals,
so the kill lands mid-round.

Run via ``make persist-smoke`` (needs PYTHONPATH=src, like every other
target).
"""

import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.store.segments import LogDir
from repro.store.wal import RecordType

KILL_ROUND = 1  # 0-indexed: "round 2" of the 3-round stream
POLL_S = 0.25
TIMEOUT_S = 900

STREAM_ARGS = [
    sys.executable, "-m", "repro.cli", "run-stream",
    "--rounds", "3", "--users", "24", "--groups", "2", "--group-size", "2",
    "--mode", "anytrust", "--h", "1", "--iterations", "4",
    "--group", "p256", "--fault-schedule", "", "--seed", "atom-persist",
]


def rounds_with(state_dir: Path, rtype: RecordType) -> set:
    """Round ids with at least one ``rtype`` record on disk."""
    if not LogDir.present(state_dir):
        return set()
    try:
        scan = LogDir.scan_dir(state_dir)
    except Exception:
        return set()
    return {rec.round_id for rec in scan.records if rec.type == rtype}


def main() -> int:
    state_dir = Path(tempfile.mkdtemp(prefix="atom-persist-smoke-"))
    args = STREAM_ARGS + ["--state-dir", str(state_dir)]
    print(f"[persist-smoke] starting: {' '.join(args[1:])}")
    proc = subprocess.Popen(args)

    deadline = time.monotonic() + TIMEOUT_S
    try:
        while True:
            if proc.poll() is not None:
                print(
                    f"[persist-smoke] FAIL: stream exited "
                    f"(rc={proc.returncode}) before round {KILL_ROUND + 1} "
                    f"committed a layer — nothing to kill"
                )
                return 1
            if KILL_ROUND in rounds_with(state_dir, RecordType.LAYER_COMMIT):
                break
            if time.monotonic() > deadline:
                print("[persist-smoke] FAIL: timed out waiting for commit")
                return 1
            time.sleep(POLL_S)
        print(
            f"[persist-smoke] round {KILL_ROUND + 1} committed a mixing "
            f"layer; sending SIGKILL to pid {proc.pid}"
        )
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    if KILL_ROUND in rounds_with(state_dir, RecordType.ROUND_DONE):
        print(f"[persist-smoke] FAIL: round {KILL_ROUND + 1} settled before "
              f"the kill landed")
        return 1

    print("[persist-smoke] resuming from", state_dir)
    resume = subprocess.run(
        [sys.executable, "-m", "repro.cli", "resume",
         "--state-dir", str(state_dir)],
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    sys.stdout.write(resume.stdout)
    sys.stderr.write(resume.stderr)
    if resume.returncode != 0:
        print(f"[persist-smoke] FAIL: resume exited {resume.returncode}")
        return 1
    if "3 rounds" not in resume.stdout or "ABORT" in resume.stdout:
        print("[persist-smoke] FAIL: resumed report is not a clean 3 rounds")
        return 1
    shutil.rmtree(state_dir)
    print("[persist-smoke] PASS: killed mid-round-2, resumed, StreamReport.ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
