"""Figure 10: speed-up of Atom networks of varying sizes relative to a
128-server network (one million microblogging messages).

"The network speeds up linearly with the number of servers. That is, an
Atom network with 1,024 servers is twice as fast as one with 512
servers." Paper anchors: 3.81 hr / 1.89 hr / 0.94 hr / 0.47 hr.

Alongside the calibrated simulator sweep, ``test_fleet_scaling``
measures the real thing at toy scale: the same seeded stream sharded
over 1, 2 and 4 ``repro serve`` OS processes (the ``"fleet_scaling"``
bench record).  The coordinator writes every process's MIX
requests before reading a reply, so the processes mix a layer at once
— the paper's horizontal axis, minus 1000 machines.
"""

import socket
import time

import pytest

from conftest import print_table, record_bench
from repro.sim import AtomSimulator, SimConfig

SERVER_COUNTS = [128, 256, 512, 1024]
PAPER_HOURS = {128: 3.81, 256: 1.89, 512: 0.94, 1024: 0.47}
MESSAGES = 2 ** 20





def test_fig10_sweep(benchmark):
    benchmark(
        lambda: AtomSimulator(
            SimConfig(num_servers=1024, num_groups=1024)
        ).simulate_round(MESSAGES)
    )

    hours = {}
    for n in SERVER_COUNTS:
        sim = AtomSimulator(SimConfig(num_servers=n, num_groups=n))
        hours[n] = sim.simulate_round(MESSAGES).total_hours

    base = hours[128]
    rows = [
        (
            n,
            f"{hours[n]:.2f}",
            PAPER_HOURS[n],
            f"{base / hours[n]:.2f}x",
            f"{PAPER_HOURS[128] / PAPER_HOURS[n]:.2f}x",
        )
        for n in SERVER_COUNTS
    ]
    print_table(
        "Figure 10: horizontal scaling, 1M microblog messages",
        ["servers", "ours (hr)", "paper (hr)", "our speed-up", "paper speed-up"],
        rows,
    )

    # Shape: linear speed-up — each doubling of servers halves latency.
    for small, large in zip(SERVER_COUNTS, SERVER_COUNTS[1:]):
        assert hours[small] / hours[large] == pytest.approx(2.0, rel=0.2)
    # Absolute agreement within 15% at every size.
    for n in SERVER_COUNTS:
        assert hours[n] == pytest.approx(PAPER_HOURS[n], rel=0.15)


# -- measured multi-process scaling ----------------------------------

FLEET_PROCESSES = [1, 2, 4]


def _free_ports(n):
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def _fleet_config():
    from repro.core import DeploymentConfig

    return DeploymentConfig(
        num_servers=8,
        num_groups=4,
        group_size=2,
        variant="trap",
        iterations=3,
        message_size=8,
        crypto_group="TOY",
        nizk_rounds=4,
    )


def _fleet_stream(config):
    from repro.core.pipeline import StreamConfig, StreamEngine

    engine = StreamEngine(
        config,
        stream=StreamConfig(
            rounds=2, users_per_round=8, seed=b"fleet-scaling"
        ),
    )
    with engine:
        return engine.run()


@pytest.mark.slow
def test_fleet_scaling(benchmark, tmp_path):
    """Measured throughput of the same seeded stream over a real fleet
    of 1, 2 and 4 server processes.  At toy scale the RPC hop — not the
    crypto — dominates, so the assertions are existence-level (every
    fleet completes, delivers the baseline payload, and has positive
    throughput); the per-width messages/s trajectory is what the JSON
    record is for.
    """
    from repro.fleet.controller import FleetController
    from repro.fleet.plan import DeploymentPlan

    baseline = _fleet_stream(_fleet_config())
    assert baseline.ok
    payload = [sorted(r.messages) for r in baseline.rounds]
    total_messages = sum(len(r.messages) for r in baseline.rounds)

    measured = {}
    for width in FLEET_PROCESSES:
        root = tmp_path / f"fleet-{width}"
        root.mkdir()
        plan = DeploymentPlan.build(
            _fleet_config(), width, ports=_free_ports(width),
            state_root=str(root / "state"),
        ).save(root / "plan.json")
        controller = FleetController(plan, runtime_dir=str(root / "run"))
        controller.up()
        try:
            start = time.perf_counter()
            report = _fleet_stream(plan.engine_config())
            elapsed = time.perf_counter() - start
        finally:
            controller.down()
        assert report.ok
        assert [sorted(r.messages) for r in report.rounds] == payload
        measured[width] = {
            "stream_s": round(elapsed, 4),
            "messages_per_s": round(total_messages / elapsed, 2),
        }

    benchmark.pedantic(
        lambda: None, rounds=1, iterations=1
    )  # timings above; keep the fixture satisfied

    print_table(
        "Fleet scaling: 2-round TOY stream, 4 groups over N processes",
        ["processes", "stream (s)", "messages/s"],
        [
            (w, measured[w]["stream_s"], measured[w]["messages_per_s"])
            for w in FLEET_PROCESSES
        ],
    )

    record_bench(
        {
            "fleet_scaling": {
                "crypto_group": "TOY",
                "num_groups": 4,
                "rounds": 2,
                "users_per_round": 8,
                "processes": {str(w): measured[w] for w in FLEET_PROCESSES},
            }
        }
    )

    for width in FLEET_PROCESSES:
        assert measured[width]["messages_per_s"] > 0
