"""One stream in a fresh process: set up, run the workload's rounds,
check every round's output, write one JSON result.

Run by ``bench.run`` as ``python -m bench.stream``; everything is
measured from outside the program through ``StreamEngine``'s public
``message_fn(round, user)`` and ``on_round_settled(r)`` hooks.
"""

from __future__ import annotations

import argparse
import json
import resource
import socket
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

from bench import layers
from bench.trace import Tracer, import_spans
from bench.workloads import WORKLOADS, Workload, payload_digest


def _free_ports(n: int) -> List[int]:
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _disk_bytes(*roots: Path) -> int:
    return sum(
        p.stat().st_size for root in roots for p in root.rglob("*") if p.is_file()
    )


class _SetupDone(Exception):
    """Raised from ``message_fn`` to end a set-up-only stream."""


def run_stream(
    workload: Workload, seed: str, traced: bool, tmp: Path, spawned_at: float,
    setup_only: bool = False,
) -> Dict:
    """One stream of ``workload``; with ``setup_only`` it stops at the
    first ``message_fn`` call and reports the set-up time alone."""
    from repro.core import StreamEngine

    tracer = Tracer() if traced else None
    if tracer is not None:
        layers.install(tracer)

    expected = workload.messages(seed)
    first_call: Dict[int, float] = {}
    settled: Dict[int, float] = {}

    def message_fn(round_id: int, user: int) -> bytes:
        first_call.setdefault(round_id, time.perf_counter())
        if setup_only:
            raise _SetupDone
        return expected[round_id][user]

    def on_round_settled(round_id: int) -> None:
        settled[round_id] = time.perf_counter()

    config = workload.deployment_config(seed, str(tmp / "coord"))
    controller = None
    fleet_up_s = 0.0
    try:
        if workload.transport == "fleet":
            from repro.fleet.controller import FleetController
            from repro.fleet.plan import DeploymentPlan

            plan = DeploymentPlan.build(
                config, 2, ports=_free_ports(2), state_root=str(tmp / "state")
            ).save(tmp / "plan.json")
            if traced:
                from bench.serve_traced import TracedFleetController

                controller = TracedFleetController(plan, str(tmp / "run"))
            else:
                controller = FleetController(plan, str(tmp / "run"))
            up_started = time.perf_counter()
            controller.up()
            fleet_up_s = time.perf_counter() - up_started
            config = plan.engine_config()
        engine = StreamEngine(
            config, stream=workload.stream_config(seed), message_fn=message_fn
        )
        engine.on_round_settled = on_round_settled
        with engine:
            report = engine.run()
    except _SetupDone:
        return {"setup_s": first_call[0] - spawned_at}
    finally:
        if controller is not None:
            controller.down()
        if tracer is not None:
            tracer.uninstall()
    ended = time.perf_counter()

    # -- correctness: per round, delivered multiset == generated ------
    attempted = failed = 0
    for stats, sent in zip(report.rounds, expected):
        attempted += len(sent)
        missing = Counter(sent) - Counter(stats.messages)
        failed += sum(missing.values()) if stats.ok else len(sent)
    failed += sum(len(sent) for sent in expected[len(report.rounds):])
    digest = payload_digest([stats.messages for stats in report.rounds])
    correct = (
        report.ok and failed == 0 and digest == payload_digest(expected)
    )

    # -- end to end ----------------------------------------------------
    last = workload.rounds - 1
    window = (settled[0], settled[last])
    measured = report.rounds[1:]
    steady = range(1, last)  # see Workload.rounds
    delivered = sum(len(stats.messages) for stats in measured)
    cpu_s = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    intake = sum(stats.intake_s for stats in measured)
    result = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "wall_s": ended - spawned_at,
        "setup_s": first_call[0] - spawned_at,
        "users": workload.users,
        "round_gaps_s": [settled[r] - settled[r - 1] for r in steady],
        "round_latencies_s": [settled[r] - first_call[r] for r in steady],
        "cpu_s_per_msg": cpu_s / max(1, report.total_messages),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": {
            "core.protocol.pad_dummies_per_round":
                sum(stats.dummies for stats in measured) / len(measured),
            "core.pipeline.intake_s_per_round": intake / len(measured),
            "core.pipeline.mix_s_per_round":
                sum(stats.pure_mix_s for stats in measured) / len(measured),
            "core.pipeline.overlap_share":
                sum(stats.overlap_s for stats in measured) / intake,
            "core.pipeline.first_round_s": settled[0] - first_call[0],
            "store.disk_bytes_end": _disk_bytes(tmp / "coord", tmp / "state"),
            "fleet.up_s": fleet_up_s,
        },
    }
    if tracer is not None:
        procs = {"coord": tracer.spans}
        usage = []
        for dump in sorted((tmp / "run").glob("*.trace.json")):
            served = json.loads(dump.read_text())
            procs[dump.name.split(".")[0]] = import_spans(served["spans"])
            usage.append(served["rusage"])
        result["layers"].update(
            layers.span_metrics(procs, set(range(1, workload.rounds)),
                                delivered, window)
        )
        result["spans"] = sum(len(spans) for spans in procs.values())
        cpus = [u["cpu_s"] for u in usage]
        result["layers"].update({
            "fleet.proc_cpu_s_per_msg":
                sum(cpus) / max(1, report.total_messages),
            "fleet.proc_cpu_imbalance":
                max(cpus) / statistics.mean(cpus) if cpus else 0.0,
            "fleet.proc_peak_rss_mib":
                max((u["peak_rss_mib"] for u in usage), default=0.0),
        })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", required=True, help="scratch dir (exists)")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's perf_counter() at spawn")
    args = parser.parse_args(argv)
    result = run_stream(
        WORKLOADS[args.workload], args.seed, bool(args.traced),
        Path(args.tmp), args.spawned_at, args.setup_only,
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
