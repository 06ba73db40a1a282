#!/usr/bin/env python3
"""chaos-smoke: a TCP stream must survive a hostile network, in-process.

The end-to-end resilience proof: run a seeded 3-round stream over the
real TCP transport under a chaos plan that drops 2% of RPCs, delays
10% by 20 ms, duplicates 1% — and, undeclared to the engine, black-holes
one server's endpoint at the start of round 2.  The heartbeat detector
must notice the dark endpoint (no FaultSchedule entry tells it), §4.5
buddy recovery must heal it, and the final ``StreamReport.ok`` must
hold with every round delivering its messages.

Run via ``make chaos-smoke`` (needs PYTHONPATH=src, like every other
target).
"""

import sys
import time

from repro.core import DeploymentConfig
from repro.core.pipeline import StreamConfig, StreamEngine

CHAOS_PLAN = "*:drop:2%;*:delay:20:10%;*:dup:1%;r1/c>1/ping:kill:1"


def main() -> int:
    config = DeploymentConfig(
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
        transport="tcp",
        net_faults=CHAOS_PLAN,
        heartbeat=True,
    )
    print(f"[chaos-smoke] tcp stream, 3 rounds, plan: {CHAOS_PLAN}")
    engine = StreamEngine(
        config,
        stream=StreamConfig(rounds=3, users_per_round=4, seed=b"chaos-smoke"),
    )
    start = time.monotonic()
    report = engine.run()
    elapsed = time.monotonic() - start

    for r in report.rounds:
        print(
            f"[chaos-smoke] round {r.round_id}: ok={r.ok} "
            f"messages={len(r.messages)} recovered={r.recovered_gids}"
        )
    if not report.ok:
        print("[chaos-smoke] FAIL: StreamReport.ok is False")
        return 1
    if report.total_recoveries < 1:
        print(
            "[chaos-smoke] FAIL: the round-2 kill was never detected — "
            "expected at least one buddy recovery"
        )
        return 1
    print(
        f"[chaos-smoke] PASS: {len(report.rounds)} rounds ok under chaos, "
        f"{report.total_recoveries} heartbeat-triggered recovery, "
        f"{elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
