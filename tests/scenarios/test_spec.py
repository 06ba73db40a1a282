"""ScenarioSpec grammar: parse/describe round-trip, strict validation,
deployment building, and the bundled scenario files."""

import json

import pytest

from repro.scenarios import (
    ScenarioError,
    ScenarioSpec,
    list_bundled,
    load_scenario,
)


def sample_dict(**overrides):
    base = {
        "name": "sample",
        "rounds": 3,
        "traffic": {"model": "constant", "users": 6, "rate": 2.0},
        "faults": "r1:tamper-group:0:0:replace_one",
        "deployment": {"num_groups": 2, "group_size": 2, "message_size": 24},
    }
    base.update(overrides)
    return base


class TestRoundTrip:
    def test_parse_describe_identity(self):
        spec = ScenarioSpec.parse(sample_dict())
        canonical = spec.describe()
        assert ScenarioSpec.parse(canonical).describe() == canonical

    def test_json_string_accepted(self):
        spec = ScenarioSpec.parse(json.dumps(sample_dict()))
        assert spec.name == "sample"
        assert spec.traffic.kind == "constant"

    def test_to_json_reload(self, tmp_path):
        spec = ScenarioSpec.parse(sample_dict())
        path = tmp_path / "s.json"
        path.write_text(spec.to_json())
        assert ScenarioSpec.load(path).describe() == spec.describe()

    def test_fault_schedule_canonicalized(self):
        spec = ScenarioSpec.parse(sample_dict())
        assert spec.describe()["faults"] == "r1:tamper-group:0:0:replace_one"
        assert len(spec.fault_schedule().events) == 1


class TestValidation:
    def test_unknown_top_key(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            ScenarioSpec.parse(sample_dict(trafic={}))

    def test_unknown_deployment_key(self):
        with pytest.raises(ScenarioError, match="unknown deployment keys"):
            ScenarioSpec.parse(sample_dict(deployment={"serfers": 4}))

    def test_unknown_dialing_key(self):
        with pytest.raises(ScenarioError, match="unknown dialing keys"):
            ScenarioSpec.parse(sample_dict(dialing={"boxes": 4}))

    @pytest.mark.parametrize("key", ["dummy_mu", "dummy_scale"])
    def test_retired_dialing_noise_knob_is_refused(self, key):
        """The runner never read these: §5's Laplace dialing dummies are
        not implemented, so no knob may claim to tune them."""
        with pytest.raises(ScenarioError, match=f"unknown dialing keys.*{key}"):
            ScenarioSpec.parse(sample_dict(dialing={"mailboxes": 4, key: 1.0}))

    @pytest.mark.parametrize("old, new", [
        ("groups", "num_groups"), ("group", "crypto_group"),
    ])
    def test_old_deployment_spelling_names_the_field(self, old, new):
        with pytest.raises(ScenarioError, match=f"'{old}' is spelled '{new}'"):
            ScenarioSpec.parse(sample_dict(deployment={old: 2}))
        spec = ScenarioSpec.parse(sample_dict())
        with pytest.raises(ScenarioError, match=f"'{old}' is spelled '{new}'"):
            spec.deployment_config(**{old: 2})

    def test_missing_traffic(self):
        spec = sample_dict()
        del spec["traffic"]
        with pytest.raises(ScenarioError, match="'traffic' section"):
            ScenarioSpec.parse(spec)

    def test_traffic_error_surfaces(self):
        with pytest.raises(ScenarioError, match="unknown traffic model"):
            ScenarioSpec.parse(sample_dict(traffic={"model": "nope"}))

    def test_bad_fault_schedule(self):
        with pytest.raises(ScenarioError, match="bad fault schedule"):
            ScenarioSpec.parse(sample_dict(faults="r1:explode:0"))

    def test_bad_net_faults(self):
        with pytest.raises(ScenarioError, match="bad net-fault plan"):
            ScenarioSpec.parse(sample_dict(net_faults="*:teleport:1%"))

    def test_bad_rounds(self):
        with pytest.raises(ScenarioError, match="rounds"):
            ScenarioSpec.parse(sample_dict(rounds=0))

    def test_not_json(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            ScenarioSpec.parse("{nope")

    def test_not_a_dict(self):
        with pytest.raises(ScenarioError, match="must be a dict"):
            ScenarioSpec.parse("[1, 2]")


class TestDeploymentConfig:
    def test_defaults_and_formula(self):
        config = ScenarioSpec.parse(sample_dict()).deployment_config()
        assert config.num_groups == 2
        assert config.group_size == 2
        # the CLI's sizing formula: max(groups*size, 2*size)
        assert config.num_servers == 4
        assert config.variant == "trap"

    def test_overrides_win(self):
        spec = ScenarioSpec.parse(sample_dict())
        config = spec.deployment_config(transport="tcp", crypto_group="TOY")
        assert config.transport == "tcp"
        assert config.crypto_group == "TOY"
        # None overrides are ignored (unset CLI flags)
        config = spec.deployment_config(transport=None)
        assert config.transport == "inproc"

    def test_unknown_override_rejected(self):
        spec = ScenarioSpec.parse(sample_dict())
        with pytest.raises(ScenarioError, match="unknown deployment override"):
            spec.deployment_config(users=5)

    def test_seed_derived_from_scenario_seed(self):
        spec = ScenarioSpec.parse(sample_dict(seed="alpha"))
        assert spec.deployment_config().seed == b"alpha/deploy"

    def test_retired_group_refused_with_exit_2(self, tmp_path, capsys):
        """A scenario naming a group that is gone exits 2 naming the
        choices, like any other bad deployment value."""
        from repro.cli import main

        deployment = dict(sample_dict()["deployment"], crypto_group="MODP2048")
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(sample_dict(deployment=deployment)))
        assert main(["scenario", "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad deployment section: crypto_group must be one of" in err
        assert "['P256', 'TOY'], got 'MODP2048'" in err

    def test_net_faults_forwarded(self):
        spec = ScenarioSpec.parse(sample_dict(net_faults="*:drop:2%"))
        assert spec.deployment_config().net_faults == "*:drop:2%"


class TestBundled:
    def test_bundled_names(self):
        names = list_bundled()
        assert "steady" in names
        assert "diurnal" in names
        assert "black-friday-tamper-churn" in names

    def test_all_bundled_parse_and_roundtrip(self):
        for name in list_bundled():
            spec = load_scenario(name)
            assert spec.name == name
            canonical = spec.describe()
            assert ScenarioSpec.parse(canonical).describe() == canonical
            spec.deployment_config()  # must build

    def test_black_friday_composition(self):
        spec = load_scenario("black-friday-tamper-churn")
        assert spec.traffic.kind == "bursty"
        assert spec.traffic.churn > 0
        assert spec.traffic.dialing_share > 0
        assert any(
            ev.action == "tamper-group" for ev in spec.fault_schedule().events
        )

    def test_unknown_bundled_name(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            load_scenario("black-tuesday")

    def test_path_argument(self, tmp_path):
        spec = load_scenario("steady")
        path = tmp_path / "copy.json"
        path.write_text(spec.to_json())
        assert load_scenario(path).describe() == spec.describe()
