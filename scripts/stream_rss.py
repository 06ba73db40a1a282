"""Measure peak RSS and throughput of one seeded round at scale.

Runs a complete seeded round (intake -> padding -> mixing -> exit)
and prints one JSON object on stdout, so the streaming-RSS benchmark
(benchmarks/test_streaming_rss.py) can run it as a subprocess and read
the round's own peak RSS — peak RSS of a shared pytest process would
be polluted by every test that ran before it.

The peak is ``VmHWM`` from ``/proc/self/status`` (Linux), not
``ru_maxrss``: a child inherits its parent's ``ru_maxrss`` high-water
mark across fork+exec, so under pytest ``ru_maxrss`` would start at
pytest's peak and hide the round's own growth.

Usage:
    PYTHONPATH=src python scripts/stream_rss.py \
        --messages 2000 --group TOY
"""

import argparse
import json
import sys
import time


def peak_rss_mib() -> float:
    """This process's own resident-set high-water mark."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # reported in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--messages", type=int, default=2000)
    ap.add_argument("--group", type=str.upper, default="TOY")
    ap.add_argument("--iterations", type=int, default=2)
    ap.add_argument("--num-groups", type=int, default=2)
    ap.add_argument("--message-size", type=int, default=8)
    args = ap.parse_args()

    from repro.core import AtomDeployment, Client, DeploymentConfig
    from repro.crypto.groups import DeterministicRng

    config = DeploymentConfig(
        num_servers=2 * args.num_groups,
        num_groups=args.num_groups,
        group_size=2,
        variant="basic",
        iterations=args.iterations,
        message_size=args.message_size,
        crypto_group=args.group,
    )

    rss_start = peak_rss_mib()
    with AtomDeployment(config) as dep:
        rng = DeterministicRng(b"rss-setup")
        rnd = dep.start_round(0, rng=rng)
        client = Client(dep.group, rng)

        t0 = time.perf_counter()
        for i in range(args.messages):
            dep.submit_plain(rnd, b"%08d" % i, i % args.num_groups, client)
        dummies = dep.pad_round(rnd, rng)
        t1 = time.perf_counter()
        rss_after_intake = peak_rss_mib()

        result = dep.run_round(rnd, DeterministicRng(b"rss-mix"))
        t2 = time.perf_counter()

    intake_s = t1 - t0
    mix_s = t2 - t1
    total_s = t2 - t0
    report = {
        "messages": args.messages,
        "dummies": dummies,
        "crypto_group": args.group,
        "iterations": args.iterations,
        "ok": result.ok,
        "delivered": len(result.messages),
        "intake_s": round(intake_s, 3),
        "mix_s": round(mix_s, 3),
        "total_s": round(total_s, 3),
        "msgs_per_s": round(args.messages / total_s, 1) if total_s else None,
        "rss_baseline_mib": round(rss_start, 1),
        "rss_after_intake_mib": round(rss_after_intake, 1),
        "peak_rss_mib": round(peak_rss_mib(), 1),
    }
    json.dump(report, sys.stdout)
    print()
    return 0 if result.ok and len(result.messages) == args.messages else 1


if __name__ == "__main__":
    sys.exit(main())
