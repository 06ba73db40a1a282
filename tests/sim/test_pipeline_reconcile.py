"""Reconciling the analytic §4.7 pipelining model against the real
stream engine's measured intake/mix overlap."""

import pytest

from repro.core import DeploymentConfig, StreamConfig, StreamEngine
from repro.sim import reconcile_with_engine


def run_stream():
    engine = StreamEngine(
        DeploymentConfig(
            num_servers=6,
            num_groups=2,
            group_size=2,
            variant="basic",
            iterations=3,
            message_size=8,
            crypto_group="TOY",
        ),
        stream=StreamConfig(
            rounds=4,
            users_per_round=8,
            seed=b"reconcile",
        ),
    )
    report = engine.run()
    assert report.ok
    return report


class TestReconciliation:
    def test_model_vs_engine(self):
        report = run_stream()
        numbers = reconcile_with_engine(report)

        # The two-stage model: serial = intake + mix, ideal = max of the
        # two, so the analytic speedup lies in (1, 2].
        assert numbers["serial_period_s"] == pytest.approx(
            numbers["mean_intake_s"] + numbers["mean_mix_s"]
        )
        assert numbers["analytic_period_s"] == pytest.approx(
            max(numbers["mean_intake_s"], numbers["mean_mix_s"])
        )
        assert 1.0 < numbers["analytic_speedup"] <= 2.0

        # The engine measurably moved intake inside the mix window; the
        # realized overlap can't exceed the smaller stage.
        assert numbers["mean_overlap_s"] > 0
        assert 0.0 < numbers["overlap_utilization"] <= 1.0 + 1e-6

        # On one core the cooperative schedule cannot beat the ideal
        # pipeline; the measured period includes per-round exit work,
        # so it also cannot beat the serial stage sum.
        assert numbers["measured_period_s"] >= numbers["analytic_period_s"]
        assert numbers["measured_speedup"] <= numbers["analytic_speedup"]

    def test_empty_report_rejected(self):
        from repro.core.pipeline import StreamReport

        with pytest.raises(ValueError):
            reconcile_with_engine(StreamReport())
