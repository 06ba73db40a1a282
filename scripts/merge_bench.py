"""Merge one benchmark run's records into a tracked BENCH JSON file.

    python scripts/merge_bench.py RECORDS TRACKED

Every key in RECORDS replaces the same key in TRACKED; TRACKED's other
keys stay as they are.  ``make bench-smoke`` runs this after its
benchmarks, so only what that run measured moves.
"""

import json
import sys
from pathlib import Path


def main(records: str, tracked: str) -> None:
    path = Path(tracked)
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update(json.loads(Path(records).read_text()))
    path.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
