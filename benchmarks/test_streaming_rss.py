"""Bounded-memory data plane (``"streaming_rss"`` in BENCH_fastexp.json).

Runs one complete seeded batch round in a **subprocess**
(``scripts/stream_rss.py``, which reads its own ``VmHWM``) so the peak
is the round's own RSS, not the pytest process's, and asserts it stays
under a fixed memory bound — both as a peak and as growth over the
interpreter+imports baseline — while recording msgs/s for trajectory
tracking.  The default tier is sized for the tier-1 budget; scale it
up with environment variables, e.g. the acceptance-scale run:

    STREAM_RSS_MESSAGES=100000 STREAM_RSS_GROUP=P256 \\
    STREAM_RSS_LIMIT_MIB=1024 \\
        PYTHONPATH=src pytest -q -s benchmarks/test_streaming_rss.py

(TOY at 10^5 finishes in minutes; P-256 at 10^5 is an hours-long
soak on this 1-CPU container — the plane is the same code path, so
the tiers differ only in scale.)
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import print_table, record_bench

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "stream_rss.py"

MESSAGES = int(os.environ.get("STREAM_RSS_MESSAGES", "5000"))
GROUP = os.environ.get("STREAM_RSS_GROUP", "TOY").upper()
DEFAULT_TIER = MESSAGES <= 5000 and GROUP == "TOY"
# Fixed bounds for the default tier.  Measured on a 2-vCPU Linux VM:
# 28.4-28.7 MiB peak over a 23.3 MiB interpreter baseline, i.e.
# 5.1-5.4 MiB of growth in three of three runs (the removed object
# plane grew 26.8 MiB on the same round).  Env-overridden tiers bring
# their own peak bound and skip the growth bound.
RSS_LIMIT_MIB = float(
    os.environ.get("STREAM_RSS_LIMIT_MIB", "160" if DEFAULT_TIER else "1024")
)
RSS_GROWTH_LIMIT_MIB = 12.0




def _run_round(messages: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPT),
            "--messages", str(messages),
            "--group", GROUP,
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report["ok"] and report["delivered"] == messages
    return report


def test_rss_is_the_rounds_own():
    """A child inherits ``ru_maxrss`` across fork+exec: spawned from a
    process holding well over 100 MiB, the script must still report
    its own small baseline, and see the round grow past it."""
    ballast = b"\x01" * (128 << 20)  # written, so resident
    report = _run_round(64)
    assert len(ballast) == 128 << 20
    assert report["rss_baseline_mib"] < 64
    assert report["peak_rss_mib"] > report["rss_baseline_mib"]


@pytest.mark.slow
def test_streaming_rss():
    report = _run_round(MESSAGES)
    # Incremental RSS over the interpreter+imports baseline is the
    # plane's own footprint.
    growth = report["peak_rss_mib"] - report["rss_baseline_mib"]

    print_table(
        f"Streaming RSS ({MESSAGES} msgs, {GROUP})",
        ["metric", "batch"],
        [
            ("peak RSS (MiB)", report["peak_rss_mib"]),
            ("RSS over baseline (MiB)", round(growth, 1)),
            ("after intake (MiB)", report["rss_after_intake_mib"]),
            ("intake (s)", report["intake_s"]),
            ("mix (s)", report["mix_s"]),
            ("msgs/s", report["msgs_per_s"]),
        ],
    )

    record_bench(
        {
            "streaming_rss": {
                "crypto_group": GROUP,
                "messages": MESSAGES,
                "iterations": report["iterations"],
                "rss_limit_mib": RSS_LIMIT_MIB,
                "batch_peak_rss_mib": report["peak_rss_mib"],
                "batch_rss_over_baseline_mib": round(growth, 1),
                "batch_msgs_per_s": report["msgs_per_s"],
                "batch_total_s": report["total_s"],
            }
        }
    )

    assert report["peak_rss_mib"] <= RSS_LIMIT_MIB, (
        f"batch round peaked at {report['peak_rss_mib']} MiB; "
        f"the bounded-memory data plane must stay under {RSS_LIMIT_MIB} MiB"
    )
    if DEFAULT_TIER:
        assert growth <= RSS_GROWTH_LIMIT_MIB, (
            f"batch round grew {growth:.1f} MiB over its baseline; "
            f"the default tier must stay under {RSS_GROWTH_LIMIT_MIB} MiB"
        )
