"""Tests for the §4.7 pipelining mode and the CLI."""

import pytest

from repro.cli import main as cli_main
from repro.sim import SimConfig
from repro.sim.pipeline import PipelinedAtomSimulator


class TestPipelining:
    def test_pipelined_throughput_beats_latency_mode(self):
        """§4.7: pipelining outputs messages every one group's worth of
        latency, so steady-state throughput rises."""
        sim = PipelinedAtomSimulator(SimConfig(num_servers=1024, num_groups=1024))
        comparison = sim.compare_with_latency_mode(2 ** 20)
        assert comparison["throughput_gain"] > 1.0

    def test_pipelined_round_latency_worse(self):
        """The trade-off: a single batch takes longer end to end,
        because each stage has only N/T servers."""
        config = SimConfig(num_servers=1024, num_groups=1024)
        pipelined = PipelinedAtomSimulator(config).simulate(2 ** 20)
        from repro.sim import AtomSimulator

        latency_mode = AtomSimulator(config).simulate_round(2 ** 20)
        assert pipelined.round_latency_s > latency_mode.total_s

    def test_output_period_is_stage_time(self):
        sim = PipelinedAtomSimulator(SimConfig(num_servers=512, num_groups=512))
        result = sim.simulate(2 ** 19)
        assert result.round_latency_s == pytest.approx(
            result.output_period_s * result.stages
        )

    def test_throughput_definition(self):
        sim = PipelinedAtomSimulator(SimConfig(num_servers=512, num_groups=512))
        result = sim.simulate(2 ** 19)
        assert result.throughput_msgs_per_s == pytest.approx(
            2 ** 19 / result.output_period_s
        )


class TestCli:
    def test_round_command(self, capsys):
        code = cli_main(
            ["round", "--users", "4", "--iterations", "3", "--crypto-group", "TOY"]
        )
        assert code == 0
        assert "round: ok" in capsys.readouterr().out

    def test_simulate_command(self, capsys):
        code = cli_main(["simulate", "--servers", "1024"])
        assert code == 0
        out = capsys.readouterr().out
        assert "28.2 min" in out

    def test_group_size_command(self, capsys):
        code = cli_main(["group-size", "--h", "1"])
        assert code == 0
        assert "k = 32" in capsys.readouterr().out

    def test_costs_command(self, capsys):
        code = cli_main(["costs", "--cores", "4"])
        assert code == 0
        assert "$146" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["group-size", "--f", "-0.1"],
            ["group-size", "--f", "1.5"],
            ["group-size", "--h", "0"],
            ["simulate", "--servers", "0"],
            ["simulate", "--messages", "-5"],
            ["costs", "--cores", "-2"],
        ],
    )
    def test_out_of_range_input_exits_2(self, capsys, argv):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_nizk_round(self, capsys):
        code = cli_main(
            [
                "round", "--users", "4", "--variant", "nizk",
                "--iterations", "2", "--crypto-group", "TOY",
            ]
        )
        assert code == 0
