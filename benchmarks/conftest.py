"""Shared benchmark helpers.

Every benchmark regenerates one table or figure of the paper: it runs
the relevant code (real crypto for microbenchmarks, the calibrated
simulator for cluster-scale experiments), prints the same rows/series
the paper reports next to the paper's published values, and asserts the
*shape* claims (who wins, by what factor, where crossovers fall).
"""

import time

import pytest


def paired_best(run_a, run_b, limit: float, repeats: int = 5):
    """Best-of-``repeats`` wall clock of ``run_a`` and of ``run_b`` for
    an ``a / b <= limit`` assert, measured so that the box cannot fail
    it on its own: A and B alternate within each repeat (interference
    here is one-sided, 1.45x for stretches of 1-30 s — timing all of
    one side and then all of the other lets a stretch cover exactly one
    of them), minima are compared, and a ratio above ``limit`` is
    measured once more before it is believed."""

    def timed(fn) -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    best_a = best_b = float("inf")
    for _attempt in range(2):
        for _ in range(repeats):
            best_a = min(best_a, timed(run_a))
            best_b = min(best_b, timed(run_b))
        if best_a / best_b <= limit:
            break
    return best_a, best_b


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
