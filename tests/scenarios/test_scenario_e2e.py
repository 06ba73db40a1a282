"""End-to-end scenario runs: the seeded black-friday-tamper-churn
acceptance scenario (byte-identical reruns, healed delivery on
inproc + tcp), runner delivery through the real apps, the sim
reconciliation, and the CLI surface."""

import json

import pytest

from repro.cli import main
from repro.scenarios import (
    ConservationError,
    ScenarioRunner,
    ScenarioSpec,
    load_scenario,
)
from repro.sim import reconcile_with_traffic

SEED = "atom-rpc"


@pytest.fixture(scope="module")
def black_friday():
    runner = ScenarioRunner(load_scenario("black-friday-tamper-churn"), seed=SEED)
    return runner, runner.run()


class TestBlackFridayAcceptance:
    def test_completes_ok(self, black_friday):
        _, metrics = black_friday
        assert metrics.ok

    def test_conservation_reconciles(self, black_friday):
        _, metrics = black_friday
        metrics.check_conservation()  # raises on imbalance
        assert metrics.total_arrivals == (
            metrics.total_delivered
            + metrics.total_dropped
            + metrics.total_trapped
        )

    def test_tamper_caught_and_healed(self, black_friday):
        _, metrics = black_friday
        assert metrics.total_trap_catches >= 1
        # healed delivery: the caught round retried after blame-rekey
        # and every arrival still came out
        assert metrics.total_delivered == metrics.total_arrivals
        caught = [r for r in metrics.rounds if r.trap_catches]
        assert all(r.retries >= 1 and r.ok for r in caught)

    def test_churned_users_reabsorbed(self, black_friday):
        _, metrics = black_friday
        assert metrics.total_churned > 0
        assert metrics.total_rejoined > 0

    def test_rerun_is_byte_identical(self, black_friday):
        _, metrics = black_friday
        again = ScenarioRunner(
            load_scenario("black-friday-tamper-churn"), seed=SEED
        ).run()
        assert again.digest == metrics.digest
        assert [r.deterministic_fields() for r in again.rounds] == [
            r.deterministic_fields() for r in metrics.rounds
        ]

    def test_tcp_is_byte_identical(self, black_friday):
        _, metrics = black_friday
        over_tcp = ScenarioRunner(
            load_scenario("black-friday-tamper-churn"), seed=SEED,
            transport="tcp",
        ).run()
        assert over_tcp.ok
        assert over_tcp.digest == metrics.digest

    def test_different_seed_different_workload(self, black_friday):
        _, metrics = black_friday
        other = ScenarioRunner(
            load_scenario("black-friday-tamper-churn"), seed="other-seed"
        ).run(check=True)
        assert other.digest != metrics.digest

    def test_reconciles_with_traffic_model(self, black_friday):
        runner, metrics = black_friday
        recon = reconcile_with_traffic(metrics, runner.spec.traffic)
        assert recon["matched"]
        assert recon["delivery_rate"] == 1.0
        assert len(recon["rounds"]) == len(metrics.rounds)

    def test_dialing_delivered_through_mailboxes(self, black_friday):
        runner, metrics = black_friday
        dialed = sum(r.dialing for r in metrics.rounds)
        assert dialed > 0
        opened = [
            token
            for r in range(runner.spec.rounds)
            for user in range(runner.traffic.users)
            for token in runner.receive(r, user)
        ]
        # every delivered call opens to its sender token "u<i>@r<j>"
        assert len(opened) == dialed
        assert all(tok.startswith(b"u") and b"@r" in tok for tok in opened)

    def test_microblog_delivered_to_board(self, black_friday):
        runner, metrics = black_friday
        posted = sum(len(runner.board.read(r.round_id)) for r in metrics.rounds)
        assert posted == sum(r.microblog for r in metrics.rounds)

    def test_report_is_machine_readable(self, black_friday):
        _, metrics = black_friday
        blob = json.loads(metrics.to_json())
        assert blob["ok"] is True
        assert blob["digest"] == metrics.digest
        assert blob["totals"]["arrivals"] == metrics.total_arrivals
        assert {"riposte_minutes", "vuvuzela_minutes", "alpenhorn_minutes"} \
            <= set(blob["baselines"])


class TestRunnerBehaviour:
    def test_steady_scenario_board_and_totals(self):
        runner = ScenarioRunner(load_scenario("steady"))
        metrics = runner.run()
        assert metrics.ok
        assert metrics.total_delivered == metrics.total_arrivals
        assert len(runner.board.all_posts()) == metrics.total_delivered

    def test_spec_object_not_mutated_across_runs(self):
        spec = load_scenario("diurnal")
        a = ScenarioRunner(spec, seed="s1").run()
        b = ScenarioRunner(spec, seed="s1").run()
        assert a.digest == b.digest

    def test_conservation_error_surfaces(self):
        runner = ScenarioRunner(load_scenario("steady"))
        metrics = runner.run(check=False)
        metrics.rounds[0].delivered -= 1  # corrupt the ledger
        with pytest.raises(ConservationError):
            metrics.check_conservation()

    def test_message_size_guard(self):
        spec = ScenarioSpec.parse(
            {
                "name": "tight",
                "rounds": 1,
                "traffic": {
                    "model": "constant", "users": 4, "rate": 2.0,
                    "dialing_share": 1.0,
                },
                "deployment": {
                    "num_groups": 2, "group_size": 2, "message_size": 24,
                },
            }
        )
        runner = ScenarioRunner(spec)
        with pytest.raises(Exception, match="message_size"):
            runner.run()


class TestScenarioCli:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "black-friday-tamper-churn" in out
        assert "steady" in out

    def test_describe_round_trips(self, capsys):
        assert main(["scenario", "describe", "steady"]) == 0
        out = capsys.readouterr().out
        spec = ScenarioSpec.parse(out)
        assert spec.name == "steady"

    def test_run_with_json_report(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code = main(
            ["scenario", "run", "steady", "--seed", SEED,
             "--json", str(report)]
        )
        assert code == 0
        blob = json.loads(report.read_text())
        assert blob["ok"] is True
        assert blob["scenario"] == "steady"
        assert "digest" in capsys.readouterr().out

    def test_run_requires_scenario(self, capsys):
        assert main(["scenario", "run"]) == 2

    def test_unknown_scenario(self, capsys):
        assert main(["scenario", "run", "black-tuesday"]) == 2
        assert "no bundled scenario" in capsys.readouterr().err

    def test_run_from_file_with_overrides(self, capsys, tmp_path):
        spec = load_scenario("steady")
        path = tmp_path / "custom.json"
        path.write_text(spec.to_json())
        assert main(["scenario", "run", str(path), "--transport", "tcp"]) == 0
        assert "(tcp, seed atom-rpc)" in capsys.readouterr().out
