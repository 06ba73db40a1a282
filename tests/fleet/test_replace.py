"""Checkpoint-shipped node replacement: SIGKILL a serve process
mid-stream, rebuild it from a bundle (snapshot + minimal log suffix),
and require the stream byte-identical to the failure-free run.

Unlike the heartbeat+buddy path (``test_fleet_round``), ``replace`` is
an *operator* action: the controller distills the dead process's
journal into an O(state) bundle, archives the O(history) layout, and
ships the bundle to the respawned process — which provably cannot
replay old history, because the only segment in its log dir is the
shipped one.
"""

import pytest

from repro.fleet.controller import FleetController
from repro.fleet.plan import DeploymentPlan, ProcessSpec
from repro.store.segments import LogDir

from tests.fleet.conftest import free_ports
from tests.fleet.test_fleet_round import (
    _fleet_plan,
    _run_stream,
    _stream_config,
)
from tests.net.test_transport_parity import (
    _canonical,
    _config,
    _run_seeded_round,
)


class TestReplace:
    @pytest.mark.slow
    def test_sigkill_then_replace_is_byte_identical(
        self, tmp_path, running_fleet
    ):
        """The tentpole acceptance: kill p1 after round 0 settles,
        replace it via checkpoint shipping before the engine notices,
        and finish the stream byte-identical to the baseline — with
        zero buddy recoveries (a replace is an operational move, not a
        failure)."""
        baseline = _run_stream(_stream_config())
        plan = _fleet_plan(_stream_config(), 2, tmp_path)
        controller = FleetController(plan, runtime_dir=str(tmp_path / "run"))
        shipped = []

        def kill_and_replace(r):
            if r != 0:
                return
            pid_before = {
                p.name: p.pid for p in controller.status().processes
            }["p1"]
            controller.kill("p1")
            shipped.append(controller.replace("p1"))
            spec = plan.process("p1")
            from repro.fleet.server import fleet_log_root

            log_root = fleet_log_root(spec.state_dir)
            # The dead layout was archived, and the fresh journal holds
            # exactly one segment: the shipped bundle.  A restore that
            # reads this dir *cannot* replay pre-safe-point history.
            assert log_root.with_name("fleet-log-replaced").exists()
            scan = LogDir.scan_dir(log_root)
            assert scan.segments_read == ["wal-000001.seg"]
            pid_after = {
                p.name: p.pid for p in controller.status().processes
            }["p1"]
            assert pid_after != pid_before

        with running_fleet(controller):
            report = _run_stream(plan.engine_config(), kill_and_replace)
        assert report.ok
        assert report.total_recoveries == 0
        # Round 1's intake was already journaled (pipelined) when p1
        # died, so the bundle really shipped live state.
        assert shipped and shipped[0] > 0
        assert [
            (r.round_id, r.ok, r.messages) for r in report.rounds
        ] == [
            (r.round_id, r.ok, r.messages) for r in baseline.rounds
        ]

    def test_replace_volatile_process_is_plain_respawn(
        self, tmp_path, running_fleet
    ):
        """No state dir -> nothing to ship: replace respawns and
        returns 0; the process still serves a byte-identical round."""
        from repro.crypto.groups import get_group

        group = get_group("TOY")
        config = _config("inproc", "TOY", "trap")
        _, inproc = _run_seeded_round(config)
        plan = DeploymentPlan(
            config=config,
            processes=[ProcessSpec("p0", free_ports(1)[0], (0,))],
        ).save(tmp_path / "plan.json")
        controller = FleetController(plan, runtime_dir=str(tmp_path / "run"))
        with running_fleet(controller):
            controller.kill("p0")
            assert controller.replace("p0") == 0
            _, fleet = _run_seeded_round(plan.engine_config())
        assert fleet.ok
        assert _canonical(group, inproc) == _canonical(group, fleet)
