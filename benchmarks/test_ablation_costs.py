"""Ablations and §7 deployment costs.

Covers the design choices DESIGN.md calls out:
- square vs iterated-butterfly topology (depth/latency trade, §3)
- staggered vs naive server placement (§4.7)
- fault-tolerance parameter h vs group size/latency (§4.5)
- §7 deployment cost estimates.
"""

import pytest

from conftest import print_table
from repro.analysis.costs import estimate_server_cost
from repro.analysis.groups_math import minimum_group_size
from repro.sim import AtomSimulator, SimConfig
from repro.topology import IteratedButterflyNetwork, SquareNetwork


def test_ablation_topology_depth(benchmark):
    """Square's O(1)-depth beats the butterfly's O(log^2) depth — the
    reason the paper evaluates the square network."""
    benchmark(lambda: SquareNetwork(width=1024, depth=10).validate)

    rows = []
    for log_groups in (5, 8, 10):
        groups = 2 ** log_groups
        square = SquareNetwork(width=groups, depth=10)
        butterfly = IteratedButterflyNetwork(log_width=log_groups)
        rows.append((groups, square.depth, butterfly.depth))
    print_table(
        "Ablation: mixing iterations by topology",
        ["groups", "square (T)", "butterfly (T)"],
        rows,
    )
    assert SquareNetwork(width=1024, depth=10).depth < IteratedButterflyNetwork(
        log_width=10
    ).depth


def test_ablation_staggering(benchmark):
    """§4.7: staggering keeps every server busy."""
    on = AtomSimulator(SimConfig(staggered=True))
    off = AtomSimulator(SimConfig(staggered=False))
    benchmark(lambda: on.simulate_round(2 ** 22))

    rows = []
    for m in (2 ** 20, 2 ** 22, 2 ** 24):
        t_on = on.simulate_round(m).total_s
        t_off = off.simulate_round(m).total_s
        rows.append((f"{m/1e6:.0f}M", f"{t_on:.0f}", f"{t_off:.0f}", f"{t_off/t_on:.1f}x"))
    print_table(
        "Ablation: staggered vs naive placement (round seconds)",
        ["messages", "staggered", "naive", "naive penalty"],
        rows,
    )
    # At capacity-bound loads the naive layout is strictly worse.
    assert rows[-1][1] != rows[-1][2]


def test_ablation_fault_tolerance_h(benchmark):
    """§4.5: raising h grows groups slightly; latency only grows via the
    k - (h-1) active servers, which stays constant by construction."""
    benchmark(lambda: minimum_group_size(0.2, 1024, h=3))

    rows = []
    for h in (1, 2, 3, 5):
        k = minimum_group_size(0.2, 1024, h)
        active = k - (h - 1)
        sim = AtomSimulator(SimConfig(group_size=active))
        rows.append((h, k, active, f"{sim.latency_minutes(2 ** 20):.1f}"))
    print_table(
        "Ablation: fault tolerance h vs group size and latency (1M msgs)",
        ["h", "group size k", "active k-(h-1)", "latency (min)"],
        rows,
    )
    # The paper's point: the active count (and thus latency) barely moves.
    latencies = [float(r[3]) for r in rows]
    assert max(latencies) / min(latencies) < 1.35


def test_section7_costs(benchmark):
    benchmark(lambda: estimate_server_cost(4))

    rows = []
    for cores in (4, 36):
        est = estimate_server_cost(cores)
        rows.append(
            (
                cores,
                f"{est.reencrypt_msgs_per_s:.0f}",
                f"{est.shuffle_msgs_per_s:.0f}",
                f"{est.bandwidth_bytes_per_s/1e3:.0f} KB/s",
                f"${est.compute_usd_month:.0f}",
                f"${est.bandwidth_usd_month:.2f}",
            )
        )
    print_table(
        "§7 deployment costs per server-month",
        ["cores", "reenc/s", "shuffle/s", "bandwidth", "compute", "bw cost"],
        rows,
    )
    print("paper: 4-core $146 + ~$7.20; 36-core $1,165 + ~$65")

    est4 = estimate_server_cost(4)
    assert est4.compute_usd_month == pytest.approx(146.0)
    assert est4.bandwidth_usd_month == pytest.approx(7.20, rel=0.1)


def test_ablation_nizk_rounds(benchmark):
    """Our cut-and-choose shuffle proof: soundness/latency trade-off
    (the knob standing in for Neff-proof batching choices)."""
    import time

    from repro.crypto.elgamal import AtomElGamal
    from repro.crypto.groups import get_group
    from repro.crypto.vector import (
        CiphertextVector,
        prove_vector_shuffle,
        shuffle_vectors,
        verify_vector_shuffle,
    )

    group = get_group("TOY")
    scheme = AtomElGamal(group)
    kp = scheme.keygen()
    cts = [
        CiphertextVector((scheme.encrypt(kp.public, group.encode(bytes([i])))[0],))
        for i in range(16)
    ]
    shuffled, perm, rands = shuffle_vectors(scheme, kp.public, cts)

    benchmark(
        lambda: prove_vector_shuffle(scheme, kp.public, cts, shuffled, perm, rands, 8)
    )

    rows = []
    for rounds in (4, 8, 16, 32):
        start = time.perf_counter()
        proof = prove_vector_shuffle(
            scheme, kp.public, cts, shuffled, perm, rands, rounds
        )
        prove_t = time.perf_counter() - start
        start = time.perf_counter()
        assert verify_vector_shuffle(scheme, kp.public, cts, shuffled, proof, rounds)
        verify_t = time.perf_counter() - start
        rows.append(
            (rounds, f"2^-{rounds}", f"{prove_t*1e3:.1f}", f"{verify_t*1e3:.1f}")
        )
    print_table(
        "Ablation: shuffle-proof rounds vs soundness and cost (16 msgs, TOY)",
        ["rounds", "soundness", "prove (ms)", "verify (ms)"],
        rows,
    )
    # Cost linear in rounds.
    assert float(rows[3][2]) > 2.0 * float(rows[1][2])
