#!/usr/bin/env python3
"""store-smoke: the sharded log store end to end, under real process
death.

A long seeded stream is sharded over two ``repro serve`` processes with
deliberately tiny WAL segments, so every moving part of the log store
fires for real:

- the coordinator's journal **rotates** (segment threshold crossed many
  times over) and **auto-compacts** (retention bound holds for the
  whole run, with the manifest-accounted disk footprint staying under a
  fixed ceiling instead of growing with the stream),
- every serve process's intake journal obeys the same retention rule:
  the process that is never replaced keeps its manifest within
  ``RETAIN + 2`` segments at every settle,
- one serve process is **SIGKILLed** mid-stream and rebuilt via
  **checkpoint shipping** (``FleetController.replace``): its journal is
  distilled to the live suffix, archived, and the respawned process
  restores from a single shipped segment,
- the final ``StreamReport.ok`` must hold and every round's payload
  must be byte-identical to the in-process baseline.

Run via ``make store-smoke`` (needs PYTHONPATH=src, like every other
target).
"""

import json
import socket
import sys
import tempfile
import time
from pathlib import Path

from repro.core import DeploymentConfig
from repro.core.pipeline import StreamConfig, StreamEngine
from repro.fleet.controller import FleetController
from repro.fleet.plan import DeploymentPlan
from repro.fleet.server import fleet_log_root
from repro.store.segments import LogDir

ROUNDS = 6
SEGMENT_RECORDS = 8
RETAIN = 2
#: hard ceiling on the coordinator journal (manifest-accounted): the
#: records are small (TOY group, 8-byte messages), so a comfortable
#: absolute bound proves O(state) without tuning per-byte thresholds
DISK_CEILING = 256 * 1024


def _config(state_dir=None):
    return DeploymentConfig(
        num_servers=8,
        num_groups=2,
        group_size=4,
        h=2,
        mode="manytrust",
        variant="trap",
        iterations=3,
        message_size=8,
        crypto_group="TOY",
        nizk_rounds=4,
        state_dir=str(state_dir) if state_dir else None,
        wal_segment_records=SEGMENT_RECORDS,
        wal_retain_segments=RETAIN,
    )


def _free_ports(n):
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def _run_stream(config, on_round_settled=None):
    engine = StreamEngine(
        config,
        stream=StreamConfig(
            rounds=ROUNDS, users_per_round=4, seed=b"store-smoke"
        ),
    )
    if on_round_settled is not None:
        engine.on_round_settled = on_round_settled
    with engine:
        return engine.run()


def main() -> int:
    print(f"[store-smoke] baseline: in-process stream, {ROUNDS} rounds")
    baseline = _run_stream(_config())

    tmp = Path(tempfile.mkdtemp(prefix="store-smoke-"))
    coord_dir = tmp / "coordinator"
    plan = DeploymentPlan.build(
        _config(coord_dir), 2, ports=_free_ports(2),
        state_root=str(tmp / "state"),
    ).save(tmp / "plan.json")
    controller = FleetController(plan, runtime_dir=str(tmp / "run"))

    segment_counts = []
    fleet_counts = []
    disk_sizes = []
    max_seq = [0]
    shipped = []

    def watch_and_replace(r):
        manifest = json.loads((coord_dir / "wal.manifest").read_text())
        segment_counts.append(len(manifest["segments"]))
        p0 = fleet_log_root(plan.process("p0").state_dir) / "wal.manifest"
        fleet_counts.append(len(json.loads(p0.read_text())["segments"]))
        disk_sizes.append(LogDir.scan_dir(coord_dir).disk_bytes)
        max_seq[0] = max(max_seq[0], manifest["next_seq"])
        if r == 1:
            print("[store-smoke] SIGKILL p1; checkpoint-shipped replace ...")
            t = time.monotonic()
            controller.kill("p1")
            shipped.append(controller.replace("p1"))
            root = fleet_log_root(plan.process("p1").state_dir)
            scan = LogDir.scan_dir(root)
            assert scan.segments_read == ["wal-000001.seg"], (
                "replacement journal must hold only the shipped segment"
            )
            assert root.with_name("fleet-log-replaced").exists(), (
                "the dead O(history) layout must be archived"
            )
            print(
                f"[store-smoke] replaced p1 in {time.monotonic() - t:.1f}s "
                f"({shipped[0]} live records shipped)"
            )

    print(f"[store-smoke] fleet: 2 serve processes, plan {plan.path}")
    start = time.monotonic()
    controller.up()
    try:
        report = _run_stream(plan.engine_config(), watch_and_replace)
    finally:
        controller.down()
    elapsed = time.monotonic() - start

    for r in report.rounds:
        print(
            f"[store-smoke] round {r.round_id}: ok={r.ok} "
            f"messages={len(r.messages)}"
        )
    print(
        f"[store-smoke] coordinator journal: segments per settle "
        f"{segment_counts}, bytes per settle {disk_sizes}, "
        f"highest segment seq {max_seq[0]}; p0 intake journal: "
        f"segments per settle {fleet_counts}"
    )

    if not report.ok:
        print("[store-smoke] FAIL: StreamReport.ok is False")
        return 1
    if not shipped or shipped[0] <= 0:
        print("[store-smoke] FAIL: the checkpoint-shipped replace never ran")
        return 1
    # Rotation: segment sequence numbers far beyond the manifest length
    # prove segments were created and retired throughout the run.
    if max_seq[0] <= RETAIN + 2:
        print(
            f"[store-smoke] FAIL: highest segment seq {max_seq[0]} — "
            f"the log never rotated"
        )
        return 1
    # Compaction/retention: the manifest stays short at every round
    # boundary (base + retained sealed + active), never O(stream).
    if max(segment_counts) > RETAIN + 2:
        print(
            f"[store-smoke] FAIL: manifest grew to {max(segment_counts)} "
            f"segments (retention bound is {RETAIN + 2})"
        )
        return 1
    if max(fleet_counts) > RETAIN + 2:
        print(
            f"[store-smoke] FAIL: p0's intake journal grew to "
            f"{max(fleet_counts)} segments (retention bound is {RETAIN + 2})"
        )
        return 1
    if max(disk_sizes) > DISK_CEILING:
        print(
            f"[store-smoke] FAIL: journal hit {max(disk_sizes):,} bytes "
            f"(ceiling {DISK_CEILING:,}) — disk is not bounded"
        )
        return 1
    fleet_payload = [(r.round_id, r.messages) for r in report.rounds]
    base_payload = [(r.round_id, r.messages) for r in baseline.rounds]
    if fleet_payload != base_payload:
        print(
            "[store-smoke] FAIL: payload differs from the in-process "
            "baseline"
        )
        return 1
    print(
        f"[store-smoke] PASS: {ROUNDS} rounds byte-identical across "
        f"rotation + compaction + SIGKILL + checkpoint-shipped replace, "
        f"journal <= {max(disk_sizes):,} bytes, {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
