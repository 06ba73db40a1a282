"""Shared benchmark helpers.

Every benchmark regenerates one table or figure of the paper: it runs
the relevant code (real crypto for microbenchmarks, the calibrated
simulator for cluster-scale experiments), prints the same rows/series
the paper reports next to the paper's published values, and asserts the
*shape* claims (who wins, by what factor, where crossovers fall).

Measurements are recorded with :func:`record_bench` into the
gitignored ``.bench_records.json``, so a tier-1 run leaves the tree
clean; ``make bench-smoke`` starts that file afresh and merges what its
run recorded into the tracked ``BENCH_fastexp.json``.
"""

import json
import time
from pathlib import Path

#: this checkout's benchmark records (not tracked; see the docstring)
BENCH_RECORDS = Path(__file__).resolve().parent.parent / ".bench_records.json"


def record_bench(fields: dict) -> None:
    """Merge ``fields`` into :data:`BENCH_RECORDS` (tests run in any
    order and each owns its own keys)."""
    data = {}
    if BENCH_RECORDS.exists():
        try:
            data = json.loads(BENCH_RECORDS.read_text())
        except (ValueError, OSError):
            data = {}
    data.update(fields)
    data["unix_time"] = int(time.time())
    BENCH_RECORDS.write_text(json.dumps(data, indent=2) + "\n")


def print_table(title: str, headers, rows) -> None:
    """Render a comparison table into the captured bench output."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
