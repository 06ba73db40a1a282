"""The systems Atom is compared against (paper §6.2, Table 12).

The paper compares Atom with the *published* numbers of Riposte,
Vuvuzela and Alpenhorn, each run on three c4.8xlarge machines.  Each
model below is anchored at the paper's one-million point:

- Riposte [22], anonymous microblogging: a DPF-written table that must
  grow with the writer count, so total server work is quadratic in the
  message count;
- Vuvuzela [72], dialing through a fixed anytrust chain: linear;
- Alpenhorn [50], dialing through the same topology with IBE: linear.
"""

from __future__ import annotations

#: Table 12: Riposte anonymizes one million messages in 669.2 minutes.
PAPER_RIPOSTE_MILLION_MINUTES = 669.2
#: Table 12: Vuvuzela dials a million users in ~0.5 minutes.
PAPER_VUVUZELA_MILLION_MINUTES = 0.5
#: §6.2: Vuvuzela servers need 166 MB/s; Atom servers less than 1 MB/s.
PAPER_VUVUZELA_SERVER_BANDWIDTH_MB_S = 166.0
#: Table 12: Alpenhorn dials a million users in ~0.5 minutes.
PAPER_ALPENHORN_MILLION_MINUTES = 0.5
#: §6.2: Alpenhorn suggests a dialing round every few hours, a window
#: Atom's 28 minutes also fits.
SUGGESTED_ROUND_INTERVAL_HOURS = 2.0


def riposte_latency_minutes(num_messages: int) -> float:
    """Quadratic in the message count: server work per write is
    O(table size), and the table grows with the writers."""
    if num_messages < 0:
        raise ValueError("message count must be non-negative")
    scale = num_messages / 1_000_000
    return PAPER_RIPOSTE_MILLION_MINUTES * scale * scale


def vuvuzela_dial_latency_minutes(num_users: int) -> float:
    """Linear through the fixed three-server chain."""
    if num_users < 0:
        raise ValueError("user count must be non-negative")
    return PAPER_VUVUZELA_MILLION_MINUTES * num_users / 1_000_000


def alpenhorn_dial_latency_minutes(num_users: int) -> float:
    """Linear, like Vuvuzela's chain."""
    if num_users < 0:
        raise ValueError("user count must be non-negative")
    return PAPER_ALPENHORN_MILLION_MINUTES * num_users / 1_000_000


def same_workload_comparison(
    microblog_messages: int, dialing_users: int
) -> dict:
    """Table 12 cost models evaluated at a *measured* workload.

    The paper's Table 12 compares systems at fixed round sizes; the
    scenario engine instead generates a workload and asks what each
    baseline would charge for exactly it: Riposte priced per microblog
    message actually offered, Vuvuzela/Alpenhorn per dialing user in
    the population.  ``benchmarks/test_table12_comparison.py`` records
    the result next to Atom's simulated latency for the same workload.
    """
    return {
        "riposte_minutes": riposte_latency_minutes(microblog_messages),
        "vuvuzela_minutes": vuvuzela_dial_latency_minutes(dialing_users),
        "alpenhorn_minutes": alpenhorn_dial_latency_minutes(dialing_users),
    }
