"""Tests for the analytical modules (group math, costs) and the
chi-squared uniformity detector the empirical anonymity test uses."""

import pytest

from repro.analysis.costs import estimate_server_cost
from repro.analysis.groups_math import (
    anytrust_failure_probability,
    expected_dummy_messages,
    group_size_curve,
    manytrust_failure_probability,
    minimum_group_size,
)
from repro.crypto.groups import DeterministicRng
from tests.core.test_anonymity_empirical import chi_squared_uniformity


class TestGroupSizeMath:
    def test_paper_anytrust_example(self):
        """§4.1: f=0.2, G=1024 -> k=32 gives failure < 2^-64."""
        assert minimum_group_size(0.2, 1024, h=1) == 32
        assert anytrust_failure_probability(32, 0.2, 1024) < 2 ** -64
        assert anytrust_failure_probability(31, 0.2, 1024) >= 2 ** -64

    def test_manytrust_costs_one_extra_member_per_h_roughly(self):
        sizes = group_size_curve(0.2, 1024, list(range(1, 6)))
        assert sizes[0] == 32
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_figure13_range(self):
        """Figure 13: k grows from ~32 (h=1) to ~70 (h=20)."""
        sizes = group_size_curve(0.2, 1024, [1, 10, 20])
        assert sizes[0] == 32
        assert 45 <= sizes[1] <= 60
        assert 65 <= sizes[2] <= 80

    def test_higher_adversarial_fraction_needs_larger_groups(self):
        assert minimum_group_size(0.3, 1024) > minimum_group_size(0.2, 1024)

    def test_more_groups_need_larger_k(self):
        assert minimum_group_size(0.2, 2 ** 20) >= minimum_group_size(0.2, 1024)

    def test_probability_bounds(self):
        assert manytrust_failure_probability(2, 0.2, h=5) == 1.0
        assert 0 <= anytrust_failure_probability(10, 0.5, 100) <= 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            anytrust_failure_probability(32, 1.0)
        with pytest.raises(ValueError):
            anytrust_failure_probability(0, 0.2)
        with pytest.raises(ValueError):
            manytrust_failure_probability(32, 0.2, h=0)

    @pytest.mark.parametrize("f", [-0.1, 1.0, 1.5])
    def test_manytrust_rejects_a_fraction_outside_the_unit_interval(self, f):
        with pytest.raises(ValueError):
            manytrust_failure_probability(32, f, h=1)
        with pytest.raises(ValueError):
            minimum_group_size(f, 1024)

    def test_manytrust_rejects_no_groups(self):
        with pytest.raises(ValueError):
            manytrust_failure_probability(32, 0.2, h=1, num_groups=0)

    def test_dummy_messages_paper_number(self):
        """§6.2: mu=13,000 with 32 servers -> ~410k dummies."""
        assert expected_dummy_messages(13_000, 32) == pytest.approx(416_000)


class TestAnonymityMetrics:
    """The detector has power: a seeded uniform shuffle stays near its
    dof, a network that never moves anything scores far above it."""

    def test_chi_squared_uniform_permutations(self):
        rng = DeterministicRng(b"chi")
        perms = []
        for _ in range(600):
            perm = list(range(4))
            rng.shuffle(perm)
            perms.append(perm)
        stat, dof = chi_squared_uniformity(perms)
        assert stat < 2.5 * dof  # uniform data stays near dof

    def test_chi_squared_detects_identity(self):
        perms = [[0, 1, 2, 3]] * 600
        stat, dof = chi_squared_uniformity(perms)
        assert stat > 10 * dof


class TestDeploymentCosts:
    def test_paper_throughput_numbers(self):
        """§7: ~2,700 reenc/s and ~9,200 shuffles/s on four cores."""
        est = estimate_server_cost(4)
        assert est.reencrypt_msgs_per_s == pytest.approx(2985, rel=0.15)
        assert est.shuffle_msgs_per_s == pytest.approx(9570, rel=0.15)

    def test_paper_bandwidth_bound(self):
        """§7: ~300 KB/s upper bound for a 4-core server."""
        est = estimate_server_cost(4)
        assert est.bandwidth_bytes_per_s == pytest.approx(300e3, rel=0.1)

    @pytest.mark.parametrize("cores", [0, -2])
    def test_rejects_fewer_than_one_core(self, cores):
        with pytest.raises(ValueError):
            estimate_server_cost(cores)

    def test_paper_dollar_figures(self):
        est4 = estimate_server_cost(4)
        est36 = estimate_server_cost(36)
        assert est4.compute_usd_month == pytest.approx(146.0)
        assert est4.bandwidth_usd_month == pytest.approx(7.20, rel=0.1)
        assert est36.compute_usd_month == pytest.approx(1165.0)
        # §7: bandwidth cost scales linearly with cores -> ~$65/month
        assert est36.bandwidth_usd_month == pytest.approx(65.0, rel=0.15)

    def test_total(self):
        est = estimate_server_cost(4)
        assert est.total_usd_month == pytest.approx(
            est.compute_usd_month + est.bandwidth_usd_month
        )
