"""Table 12: latency to support a million users — Atom (128/256/512/
1024 mixed servers) vs Riposte (microblogging) and Vuvuzela/Alpenhorn
(dialing), plus the §6.2 bandwidth comparison.

Paper anchors: Atom microblog 228.7/113.4/56.3/28.2 min (2.9x-23.7x
faster than Riposte's 669.2 min); Atom dialing 225.1-27.9 min (56x-450x
slower than Vuvuzela's 0.5 min); Atom <1 MB/s per server vs Vuvuzela's
166 MB/s.

The paper compares at fixed round sizes; ``test_scenario_table12``
additionally re-runs the comparison at a *measured* workload — the
message counts actually generated by the seeded
black-friday-tamper-churn scenario — and records it as the
``scenario_table12`` bench record.
"""

import json

import pytest

from conftest import BENCH_RECORDS, print_table, record_bench
from repro.baselines import (
    PAPER_VUVUZELA_SERVER_BANDWIDTH_MB_S,
    SUGGESTED_ROUND_INTERVAL_HOURS,
    alpenhorn_dial_latency_minutes,
    riposte_latency_minutes,
    vuvuzela_dial_latency_minutes,
)
from repro.scenarios import ScenarioRunner, load_scenario
from repro.sim import AtomSimulator, SimConfig


USERS = 2 ** 20
SERVER_COUNTS = [128, 256, 512, 1024]
PAPER_MICROBLOG = {128: 228.7, 256: 113.4, 512: 56.3, 1024: 28.2}
PAPER_DIAL = {128: 225.1, 256: 112.6, 512: 55.5, 1024: 27.9}




def atom_latency(n: int, application: str) -> float:
    message_size = 160 if application == "microblog" else 80
    sim = AtomSimulator(
        SimConfig(
            num_servers=n,
            num_groups=n,
            application=application,
            message_size=message_size,
        )
    )
    return sim.latency_minutes(USERS)


def test_table12(benchmark):
    benchmark(lambda: atom_latency(1024, "microblog"))

    riposte = riposte_latency_minutes(USERS)
    vuvuzela = vuvuzela_dial_latency_minutes(USERS)
    alpenhorn = alpenhorn_dial_latency_minutes(USERS)

    rows = []
    micro, dial = {}, {}
    for n in SERVER_COUNTS:
        micro[n] = atom_latency(n, "microblog")
        dial[n] = atom_latency(n, "dialing")
        rows.append(
            (
                f"Atom {n}x mixed",
                f"{micro[n]:.1f} ({riposte / micro[n]:.1f}x)",
                f"{PAPER_MICROBLOG[n]}",
                f"{dial[n]:.1f} ({dial[n] / vuvuzela:.0f}x)",
                f"{PAPER_DIAL[n]}",
            )
        )
    rows.append(("Riposte 3xc4.8xl", f"{riposte:.1f} (1x)", "669.2", "-", "-"))
    rows.append(("Vuvuzela 3xc4.8xl", "-", "-", f"{vuvuzela:.1f} (1x)", "0.5"))
    rows.append(("Alpenhorn 3xc4.8xl", "-", "-", f"{alpenhorn:.1f} (1x)", "0.5"))
    print_table(
        "Table 12: latency for one million users (min)",
        ["config", "microblog ours", "paper", "dial ours", "paper"],
        rows,
    )

    # --- shape assertions -------------------------------------------------
    # Who wins microblogging: Atom beats Riposte at every size; the
    # advantage grows with the network (paper: 2.9x -> 23.7x).
    speedups = [riposte / micro[n] for n in SERVER_COUNTS]
    assert all(s > 1 for s in speedups)
    assert speedups == sorted(speedups)
    assert speedups[-1] == pytest.approx(23.7, rel=0.25)
    # Who wins dialing: Vuvuzela, by roughly 56x at 1,024 servers.
    slowdown = dial[1024] / vuvuzela
    assert 35 < slowdown < 80
    # §6.2: Atom still dials at Alpenhorn's suggested cadence.
    assert dial[1024] <= SUGGESTED_ROUND_INTERVAL_HOURS * 60
    # Bandwidth: Atom under 1 MB/s per server vs Vuvuzela's 166 MB/s.
    result = AtomSimulator(
        SimConfig(num_servers=1024, num_groups=1024)
    ).simulate_round(USERS)
    atom_mb_s = result.per_server_bandwidth_bytes_s / 1e6
    print(
        f"\nbandwidth per server: Atom {atom_mb_s:.2f} MB/s vs "
        f"Vuvuzela {PAPER_VUVUZELA_SERVER_BANDWIDTH_MB_S} MB/s (paper: <1 vs 166)"
    )
    assert atom_mb_s < 1.0
    assert atom_mb_s < PAPER_VUVUZELA_SERVER_BANDWIDTH_MB_S / 100


def test_scenario_table12():
    """Measured-workload mode: run the seeded acceptance scenario over
    the real stack, then price the *same generated workload* under each
    system's cost model (Atom at Table 12's server counts, Riposte per
    microblog message offered, Vuvuzela/Alpenhorn per dialing user) and
    persist the comparison for trajectory tracking."""
    runner = ScenarioRunner(
        load_scenario("black-friday-tamper-churn"), seed="atom-rpc"
    )
    metrics = runner.run()
    assert metrics.ok
    metrics.check_conservation()

    microblog = sum(r.microblog for r in metrics.rounds)
    dialing = sum(r.dialing for r in metrics.rounds)
    assert microblog > 0 and dialing > 0

    atom = {}
    for n in SERVER_COUNTS:
        atom[n] = {
            app: AtomSimulator(
                SimConfig(
                    num_servers=n,
                    num_groups=n,
                    application=app,
                    message_size=160 if app == "microblog" else 80,
                )
            ).latency_minutes(count)
            for app, count in (("microblog", microblog), ("dialing", dialing))
        }

    rows = [
        (
            f"Atom {n}x mixed",
            f"{atom[n]['microblog']:.2f}",
            f"{atom[n]['dialing']:.2f}",
        )
        for n in SERVER_COUNTS
    ]
    rows.append(("Riposte", f"{metrics.baselines['riposte_minutes']:.2f}", "-"))
    rows.append(("Vuvuzela", "-", f"{metrics.baselines['vuvuzela_minutes']:.2f}"))
    rows.append(
        ("Alpenhorn", "-", f"{metrics.baselines['alpenhorn_minutes']:.2f}")
    )
    print_table(
        f"Table 12 at the measured workload "
        f"({microblog} posts, {dialing} dials, seed atom-rpc)",
        ["config", "microblog min", "dial min"],
        rows,
    )

    # Shape at a tiny measured workload — the inverse of the 2^20-user
    # table above.  Atom pays its fixed per-hop floor regardless of
    # load, so per-message Riposte undercuts it on a handful of posts
    # (while test_table12 shows Atom 2.9x-23.7x ahead at 2^20), and
    # adding servers only helps the dialing side, whose cover-dummy
    # traffic is large enough to shard.
    for app in ("microblog", "dialing"):
        assert all(atom[n][app] > 0 for n in SERVER_COUNTS)
    dial_lat = [atom[n]["dialing"] for n in SERVER_COUNTS]
    assert all(a >= b for a, b in zip(dial_lat, dial_lat[1:]))
    assert all(
        metrics.baselines["riposte_minutes"] < atom[n]["microblog"]
        for n in SERVER_COUNTS
    )

    record_bench(
        {
            "scenario_table12": {
                "scenario": metrics.scenario,
                "seed": metrics.seed,
                "digest": metrics.digest,
                "microblog_messages": microblog,
                "dialing_messages": dialing,
                "dialing_users": runner.traffic.users,
                "trap_catches": metrics.total_trap_catches,
                "atom_minutes": {
                    str(n): {
                        app: round(atom[n][app], 4)
                        for app in ("microblog", "dialing")
                    }
                    for n in SERVER_COUNTS
                },
                # sub-second values: keep full precision, not round(4)
                "baseline_minutes": dict(metrics.baselines),
            }
        }
    )
    recorded = json.loads(BENCH_RECORDS.read_text())["scenario_table12"]
    assert recorded["digest"] == metrics.digest
    assert set(recorded["atom_minutes"]) == {str(n) for n in SERVER_COUNTS}
