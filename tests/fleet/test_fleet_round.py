"""Multi-process fleet acceptance: byte parity with in-process rounds,
rolling restarts mid-stream, and SIGKILL healed by buddy recovery.

The fleet moves the same envelopes over real OS process boundaries; it
must not influence the crypto.  Under identical DeterministicRng seeds
a round sharded over ``repro serve`` processes must produce a
byte-identical RoundResult to the zero-copy in-process round (same
convention as ``tests/net/test_transport_parity.py``: pinned seeds, no
loosened comparisons), and a pipelined stream must deliver identical
per-round payloads across a rolling restart of *every* server group.
"""

import pytest

from repro.core import DeploymentConfig
from repro.core.pipeline import StreamConfig, StreamEngine
from repro.crypto.groups import get_group
from repro.fleet.controller import FleetController
from repro.fleet.plan import DeploymentPlan

from tests.fleet.conftest import free_ports
from tests.net.test_transport_parity import (
    _canonical,
    _config,
    _run_seeded_round,
)


def _fleet_plan(config, num_processes, tmp_path):
    plan = DeploymentPlan.build(
        config,
        num_processes,
        ports=free_ports(num_processes),
        state_root=str(tmp_path / "state"),
    )
    return plan.save(tmp_path / "plan.json")


class TestRoundParity:
    @pytest.mark.parametrize("variant", ["basic", "nizk", "trap"])
    def test_round_byte_identical_across_two_processes(
        self, variant, tmp_path, running_fleet
    ):
        group = get_group("TOY")
        messages, inproc = _run_seeded_round(_config("inproc", "TOY", variant))
        plan = _fleet_plan(_config("inproc", "TOY", variant), 2, tmp_path)
        controller = FleetController(plan, runtime_dir=str(tmp_path / "run"))
        with running_fleet(controller):
            _, fleet = _run_seeded_round(plan.engine_config())
        assert inproc.ok and fleet.ok
        assert sorted(fleet.messages) == sorted(messages)
        assert _canonical(group, inproc) == _canonical(group, fleet)

    def test_partial_plan_keeps_unassigned_groups_local(
        self, tmp_path, running_fleet
    ):
        """One process hosting only gid 0; gid 1 stays in-coordinator.
        Still byte-identical — placement is invisible to the protocol."""
        from repro.fleet.plan import ProcessSpec

        group = get_group("TOY")
        config = _config("inproc", "TOY", "trap")
        _, inproc = _run_seeded_round(config)
        plan = DeploymentPlan(
            config=config,
            processes=[ProcessSpec("p0", free_ports(1)[0], (0,))],
        ).save(tmp_path / "plan.json")
        controller = FleetController(plan, runtime_dir=str(tmp_path / "run"))
        with running_fleet(controller):
            _, fleet = _run_seeded_round(plan.engine_config())
        assert fleet.ok
        assert _canonical(group, inproc) == _canonical(group, fleet)


def _stream_config(**overrides):
    base = dict(
        num_servers=8,
        num_groups=2,
        group_size=4,
        h=2,
        mode="manytrust",
        variant="trap",
        iterations=3,
        message_size=8,
        crypto_group="TOY",
        nizk_rounds=4,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


def _run_stream(config, on_round_settled=None, rounds=3):
    engine = StreamEngine(
        config,
        stream=StreamConfig(
            rounds=rounds, users_per_round=4, seed=b"fleet-stream"
        ),
    )
    if on_round_settled is not None:
        engine.on_round_settled = on_round_settled
    with engine:
        return engine.run()


class TestStreamOperations:
    @pytest.mark.slow
    def test_rolling_restart_mid_stream_is_byte_identical(
        self, tmp_path, running_fleet
    ):
        """The tentpole acceptance: roll every server group between
        rounds 0 and 1 (drain -> SIGTERM -> respawn -> WAL recovery ->
        rejoin) while the stream keeps progressing; every round's
        payload is byte-identical to the in-process stream."""
        baseline = _run_stream(_stream_config())
        plan = _fleet_plan(_stream_config(), 2, tmp_path)
        controller = FleetController(plan, runtime_dir=str(tmp_path / "run"))
        rolled = []

        def roll_once(r):
            if r == 0:
                pids_before = {
                    p.name: p.pid for p in controller.status().processes
                }
                controller.roll()
                pids_after = {
                    p.name: p.pid for p in controller.status().processes
                }
                rolled.append((pids_before, pids_after))

        with running_fleet(controller):
            report = _run_stream(plan.engine_config(), roll_once)
        assert report.ok
        # Every process really was replaced mid-stream.
        pids_before, pids_after = rolled[0]
        assert set(pids_before) == {"p0", "p1"}
        assert all(
            pids_after[name] != pids_before[name] for name in pids_before
        )
        assert report.total_recoveries == 0  # a roll is not a failure
        assert [
            (r.round_id, r.ok, r.messages) for r in report.rounds
        ] == [
            (r.round_id, r.ok, r.messages) for r in baseline.rounds
        ]

    @pytest.mark.slow
    def test_sigkill_mid_stream_detected_and_healed(
        self, tmp_path, running_fleet
    ):
        """SIGKILL one serve process after round 0 settles — nothing
        tells the engine.  The heartbeat detector declares its groups
        stalled, buddy recovery (§4.5) restores them inside the
        coordinator, and the stream completes with the same per-round
        payload as the failure-free run."""
        baseline = _run_stream(_stream_config(heartbeat=True))
        plan = _fleet_plan(_stream_config(heartbeat=True), 2, tmp_path)
        controller = FleetController(plan, runtime_dir=str(tmp_path / "run"))

        def kill_p1(r):
            if r == 0:
                controller.kill("p1")

        with running_fleet(controller):
            report = _run_stream(plan.engine_config(), kill_p1)
        assert report.ok
        assert report.total_recoveries == 1
        assert report.rounds[1].recovered_gids == [1]
        # Recovery redraws group sub-seeds, so compare the per-round
        # delivered payload (order-free), not raw ordering.
        assert [
            (r.round_id, r.ok, sorted(r.messages)) for r in report.rounds
        ] == [
            (r.round_id, r.ok, sorted(r.messages)) for r in baseline.rounds
        ]
