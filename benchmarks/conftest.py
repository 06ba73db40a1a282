"""Shared benchmark helpers.

Every benchmark regenerates one table or figure of the paper: it runs
the relevant code (real crypto for microbenchmarks, the calibrated
simulator for cluster-scale experiments), prints the same rows/series
the paper reports next to the paper's published values, and asserts the
*shape* claims (who wins, by what factor, where crossovers fall).
"""


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
