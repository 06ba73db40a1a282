"""Tests for the Table 12 models of Riposte, Vuvuzela and Alpenhorn."""

import pytest

from repro.baselines import (
    alpenhorn_dial_latency_minutes,
    riposte_latency_minutes,
    vuvuzela_dial_latency_minutes,
)


class TestRiposte:
    def test_latency_model_quadratic(self):
        one = riposte_latency_minutes(1_000_000)
        two = riposte_latency_minutes(2_000_000)
        assert one == pytest.approx(669.2)
        assert two == pytest.approx(4 * 669.2)


class TestVuvuzela:
    def test_latency_model_linear(self):
        assert vuvuzela_dial_latency_minutes(1_000_000) == pytest.approx(0.5)
        assert vuvuzela_dial_latency_minutes(2_000_000) == pytest.approx(1.0)


class TestAlpenhorn:
    def test_latency_model(self):
        assert alpenhorn_dial_latency_minutes(1_000_000) == pytest.approx(0.5)


class TestTable12Shape:
    """The comparison table's headline ratios."""

    def test_atom_vs_riposte_speedup(self):
        from repro.sim import AtomSimulator, SimConfig

        atom = AtomSimulator(SimConfig(num_servers=1024, num_groups=1024))
        atom_min = atom.latency_minutes(2 ** 20)
        speedup = riposte_latency_minutes(2 ** 20) / atom_min
        assert 15 < speedup < 35  # paper: 23.7x

    def test_vuvuzela_vs_atom_slowdown(self):
        from repro.sim import AtomSimulator, SimConfig

        atom = AtomSimulator(
            SimConfig(num_servers=1024, num_groups=1024, application="dialing", message_size=80)
        )
        slowdown = atom.latency_minutes(2 ** 20) / vuvuzela_dial_latency_minutes(2 ** 20)
        assert 30 < slowdown < 90  # paper: 56x
