"""DeploymentPlan: validation, JSON round-trips, derived configs."""

import dataclasses

import pytest

from repro.core import DeploymentConfig
from repro.fleet.plan import (
    DeploymentPlan,
    HealthCheck,
    PlanError,
    ProcessSpec,
)


def _config(**overrides):
    base = dict(
        num_servers=8,
        num_groups=4,
        group_size=2,
        variant="trap",
        iterations=3,
        message_size=8,
        crypto_group="TOY",
        nizk_rounds=4,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


def _plan(processes, **config_overrides):
    return DeploymentPlan(config=_config(**config_overrides),
                          processes=processes)


class TestValidation:
    def test_no_processes(self):
        with pytest.raises(PlanError, match="at least one process"):
            _plan([])

    def test_duplicate_names(self):
        with pytest.raises(PlanError, match="duplicate process names"):
            _plan([
                ProcessSpec("p0", 9500, (0,)),
                ProcessSpec("p0", 9501, (1,)),
            ])

    def test_empty_name(self):
        with pytest.raises(PlanError, match="non-empty"):
            _plan([ProcessSpec("", 9500, (0,))])

    def test_duplicate_ports(self):
        with pytest.raises(PlanError, match="duplicate \\(host, port\\)"):
            _plan([
                ProcessSpec("p0", 9500, (0,)),
                ProcessSpec("p1", 9500, (1,)),
            ])

    def test_same_port_different_hosts_ok(self):
        plan = _plan([
            ProcessSpec("p0", 9500, (0,), host="127.0.0.1"),
            ProcessSpec("p1", 9500, (1,), host="127.0.0.2"),
        ])
        assert plan.placement == {0: "p0", 1: "p1"}

    def test_process_without_groups(self):
        with pytest.raises(PlanError, match="hosts no groups"):
            _plan([ProcessSpec("p0", 9500, ())])

    def test_gid_out_of_range(self):
        with pytest.raises(PlanError, match="outside 0..3"):
            _plan([ProcessSpec("p0", 9500, (0, 4))])

    def test_overlapping_gids(self):
        with pytest.raises(PlanError, match="gid 1 assigned to both"):
            _plan([
                ProcessSpec("p0", 9500, (0, 1)),
                ProcessSpec("p1", 9501, (1, 2)),
            ])

    def test_unassigned_gids_stay_in_coordinator(self):
        # Partial plans are legal: unassigned groups are hosted by the
        # coordinator process itself.
        plan = _plan([ProcessSpec("p0", 9500, (0, 2))])
        assert plan.placement == {0: "p0", 2: "p0"}

    def test_unknown_process_name(self):
        plan = _plan([ProcessSpec("p0", 9500, (0,))])
        assert plan.process("p0").port == 9500
        with pytest.raises(PlanError, match="no process 'p9'"):
            plan.process("p9")


class TestJson:
    def test_round_trip(self, tmp_path):
        plan = DeploymentPlan.build(
            _config(), 2, base_port=9700,
            state_root=str(tmp_path / "state"),
            health=HealthCheck(interval_s=0.5, timeout_s=3.0),
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = DeploymentPlan.load(path)
        assert loaded.config == plan.config
        assert loaded.processes == plan.processes
        assert loaded.health == plan.health
        assert loaded.path == str(path)

    def test_bytes_config_fields_survive(self, tmp_path):
        # Any bytes-typed DeploymentConfig field must survive the JSON
        # encoding (hex-wrapped), not get mangled to a string.
        plan = DeploymentPlan.build(_config(), 1)
        text = plan.to_json()
        loaded = DeploymentPlan.from_json(text)
        assert loaded.config == plan.config

    def test_unknown_config_field_rejected(self):
        plan = DeploymentPlan.build(_config(), 1)
        text = plan.to_json().replace(
            '"num_servers"', '"num_serverz"', 1
        )
        with pytest.raises(PlanError, match="unknown config field"):
            DeploymentPlan.from_json(text)

    def test_retired_parallelism_field_rejected(self):
        """Plans written before the worker pool went name
        ``parallelism``; they fail on load, not silently drop it."""
        plan = DeploymentPlan.build(_config(), 1)
        text = plan.to_json().replace(
            '"num_servers"', '"parallelism": 2, "num_servers"', 1
        )
        with pytest.raises(PlanError, match="'parallelism'"):
            DeploymentPlan.from_json(text)

    def test_retired_group_rejected(self, tmp_path, capsys):
        """A plan naming a group that is gone is refused on load: the
        CLI exits 2 naming the choices."""
        from repro.cli import main

        text = DeploymentPlan.build(_config(), 1).to_json().replace(
            '"TOY"', '"MODP2048"', 1
        )
        with pytest.raises(PlanError, match="crypto_group must be one of"):
            DeploymentPlan.from_json(text)
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert main(["fleet", "status", "--plan", str(path)]) == 2
        assert "['P256', 'TOY'], got 'MODP2048'" in capsys.readouterr().err

    def test_garbage_rejected(self):
        with pytest.raises(PlanError, match="not valid JSON"):
            DeploymentPlan.from_json("{nope")


class TestBuild:
    def test_round_robin_split(self):
        plan = DeploymentPlan.build(_config(), 2, base_port=9600)
        assert [p.gids for p in plan.processes] == [(0, 2), (1, 3)]
        assert [p.port for p in plan.processes] == [9600, 9601]

    def test_explicit_ports_and_state_root(self, tmp_path):
        plan = DeploymentPlan.build(
            _config(), 4, ports=[7001, 7002, 7003, 7004],
            state_root=str(tmp_path),
        )
        assert [p.port for p in plan.processes] == [7001, 7002, 7003, 7004]
        assert plan.processes[2].state_dir == str(tmp_path / "p2")

    def test_too_many_processes(self):
        with pytest.raises(PlanError, match="need 1..4 processes"):
            DeploymentPlan.build(_config(), 5)


class TestDerivedConfigs:
    def test_engine_config_requires_saved_plan(self, tmp_path):
        plan = DeploymentPlan.build(_config(), 2)
        with pytest.raises(PlanError, match="saved before"):
            plan.engine_config()
        plan.save(tmp_path / "plan.json")
        engine = plan.engine_config()
        assert engine.transport == "fleet"
        assert engine.fleet_plan == str(tmp_path / "plan.json")

    def test_serve_config_strips_coordinator_wiring(self, tmp_path):
        config = _config(
            heartbeat=True,
            net_faults="*:drop:2%", state_dir=str(tmp_path),
        )
        serve = DeploymentPlan.build(config, 2).serve_config()
        assert serve.transport == "inproc"
        assert serve.fleet_plan is None
        assert serve.state_dir is None
        assert serve.net_faults is None
        assert serve.heartbeat is False
        # ... but every protocol parameter is untouched.
        for name in ("num_servers", "num_groups", "group_size", "variant",
                     "iterations", "message_size", "crypto_group"):
            assert getattr(serve, name) == getattr(config, name)

    def test_fleet_transport_needs_plan_path(self):
        with pytest.raises(ValueError, match="needs fleet_plan"):
            dataclasses.replace(_config(), transport="fleet")
