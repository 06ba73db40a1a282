#!/usr/bin/env python3
"""Regenerate the paper's headline evaluation numbers from the
calibrated simulator (paper §6) — the quick tour of Figures 9-11 and
Table 12 without running the full benchmark suite.

Run:  python examples/evaluation.py
"""

from repro.baselines import (
    riposte_latency_minutes,
    vuvuzela_dial_latency_minutes,
)
from repro.sim import AtomSimulator, SimConfig

MILLION = 2 ** 20


def main() -> None:
    print("Horizontal scaling, 1M microblogging messages (Fig 10 / Table 12)")
    print(f"{'servers':>8}  {'ours':>10}  {'paper':>8}")
    paper = {128: 228.7, 256: 113.4, 512: 56.3, 1024: 28.2}
    for n in (128, 256, 512, 1024):
        sim = AtomSimulator(SimConfig(num_servers=n, num_groups=n))
        print(f"{n:>8}  {sim.latency_minutes(MILLION):>8.1f}m  {paper[n]:>7}m")

    print("\nBaselines, 1M users (Table 12)")
    atom = AtomSimulator(SimConfig(num_servers=1024, num_groups=1024))
    atom_min = atom.latency_minutes(MILLION)
    riposte = riposte_latency_minutes(MILLION)
    print(f"  Atom microblog: {atom_min:6.1f} min "
          f"({riposte / atom_min:.1f}x faster than Riposte's {riposte:.0f} min)")
    dial = AtomSimulator(
        SimConfig(num_servers=1024, num_groups=1024,
                  application="dialing", message_size=80)
    ).latency_minutes(MILLION)
    vuvuzela = vuvuzela_dial_latency_minutes(MILLION)
    print(f"  Atom dialing:   {dial:6.1f} min "
          f"({dial / vuvuzela:.0f}x slower than Vuvuzela's {vuvuzela:.1f} min, "
          "but horizontally scalable and tamper-evident)")

    print("\nSimulated scale-out, 1B messages (Fig 11)")
    base = None
    for log_n in range(10, 16):
        n = 2 ** log_n
        result = AtomSimulator(
            SimConfig(num_servers=n, num_groups=n)
        ).simulate_round(10 ** 9)
        base = base or result.total_hours
        print(f"  2^{log_n} servers: {result.total_hours:6.1f} hr "
              f"(speed-up {base / result.total_hours:4.1f}x)")

    result = atom.simulate_round(MILLION)
    print(f"\nPer-server bandwidth at 1M messages: "
          f"{result.per_server_bandwidth_bytes_s / 1e6:.2f} MB/s "
          "(paper: <1 MB/s; Vuvuzela needs 166 MB/s)")


if __name__ == "__main__":
    main()
