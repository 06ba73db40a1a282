"""Tests for the performance simulator: model invariants and the
paper-shape properties every figure relies on."""

import pytest

from repro.core.messages import PayloadSpec, inner_payload_size
from repro.crypto.groups import get_group
from repro.sim import (
    AtomSimulator,
    Fleet,
    GroupMixModel,
    MachineSpec,
    NetworkModel,
    PrimitiveCosts,
    SimConfig,
    amdahl_speedup,
    group_setup_latency,
)
from repro.sim.runner import CCA2_OVERHEAD_BYTES, ELEMENT_PAYLOAD_BYTES


@pytest.fixture(scope="module")
def costs():
    return PrimitiveCosts.paper_table3()


class TestCostModel:
    def test_table3_values(self, costs):
        assert costs.enc == pytest.approx(1.40e-4)
        assert costs.reenc == pytest.approx(3.35e-4)
        assert costs.shuffle_per_msg == pytest.approx(1.07e-1 / 1024)

    def test_nizk_trap_ratio_about_four(self, costs):
        """§6.1: 'The NIZK variant takes about four times longer'."""
        ratio = costs.nizk_over_trap_ratio(trap_doubling=True)
        assert 3.0 < ratio < 5.5

    def test_scaled(self, costs):
        double = costs.scaled(2.0)
        assert double.enc == pytest.approx(2 * costs.enc)
        assert double.dvss_pair == costs.dvss_pair  # non-CPU knobs kept


class TestMachines:
    def test_amdahl_limits(self):
        assert amdahl_speedup(1, 0.9) == pytest.approx(1.0)
        assert amdahl_speedup(10 ** 6, 0.9) == pytest.approx(10.0, rel=1e-3)

    def test_amdahl_monotone(self):
        speeds = [amdahl_speedup(c, 0.95) for c in (1, 2, 4, 8, 16)]
        assert speeds == sorted(speeds)

    def test_amdahl_validation(self):
        with pytest.raises(ValueError):
            amdahl_speedup(0, 0.5)
        with pytest.raises(ValueError):
            amdahl_speedup(4, 1.5)

    def test_paper_mix_fractions(self):
        fleet = Fleet.paper_mix(1000)
        cores = [m.cores for m in fleet.machines]
        assert cores.count(4) == 800
        assert cores.count(8) == 100
        assert cores.count(16) == 50
        assert cores.count(32) == 50

    def test_trap_more_parallel_than_nizk(self):
        m = MachineSpec(cores=36, bandwidth_mbps=100)
        assert m.effective_cores("trap") > m.effective_cores("nizk")

    def test_homogeneous(self):
        fleet = Fleet.homogeneous(10, cores=8)
        assert all(m.cores == 8 for m in fleet.machines)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            Fleet([])


class TestNetwork:
    def test_latency_range(self):
        net = NetworkModel()
        for a in range(0, 100, 7):
            for b in range(0, 100, 11):
                lat = net.latency(a, b, 100)
                assert lat == 0 or 0.040 <= lat <= 0.160

    def test_self_latency_zero(self):
        assert NetworkModel().latency(5, 5, 100) == 0.0

    def test_intra_cluster_cheaper(self):
        net = NetworkModel()
        intra = net.latency(0, 1, 100)
        inter = net.latency(0, 99, 100)
        assert intra < inter

    def test_transfer_time(self):
        net = NetworkModel()
        m = MachineSpec(4, 100.0)  # 12.5 MB/s
        assert net.transfer_time(12.5e6, m) == pytest.approx(1.0)

    def test_mean_latency_in_range(self):
        mean = NetworkModel().mean_latency()
        assert 0.040 <= mean <= 0.160


class TestGroupMixModel:
    """Figures 5-7 shapes."""

    def _model(self, costs, variant, k=32, cores=4):
        machines = [MachineSpec(cores, 100.0)] * k
        return GroupMixModel(costs, NetworkModel(), machines, variant=variant)

    def test_fig5_linear_in_messages(self, costs):
        model = self._model(costs, "trap")
        t1 = model.iteration_time(1024)
        t2 = model.iteration_time(2048)
        t4 = model.iteration_time(4096)
        assert t2 / t1 == pytest.approx((t4 / t2), rel=0.25)
        assert t4 > t2 > t1

    def test_fig5_nizk_about_4x_trap(self, costs):
        trap = self._model(costs, "trap").iteration_time(2 * 4096)  # trap doubling
        nizk = self._model(costs, "nizk").iteration_time(4096)
        assert 2.5 < nizk / trap < 6.0

    def test_fig6_linear_in_group_size(self, costs):
        t8 = self._model(costs, "trap", k=8).iteration_time(1024)
        t16 = self._model(costs, "trap", k=16).iteration_time(1024)
        t32 = self._model(costs, "trap", k=32).iteration_time(1024)
        assert t16 / t8 == pytest.approx(2.0, rel=0.2)
        assert t32 / t16 == pytest.approx(2.0, rel=0.2)

    def test_fig7_trap_speedup_near_linear(self, costs):
        # Evaluated at a compute-dominated load (Figure 5's upper end);
        # at tiny loads network hops cap the speed-up for any variant.
        model = self._model(costs, "trap")
        base = model.iteration_time_with_cores(4, 16384)
        s36 = base / model.iteration_time_with_cores(36, 16384)
        assert 4.5 < s36 <= 9.0  # paper: ~8x, near-linear vs 9x ideal

    def test_fig7_nizk_speedup_sublinear(self, costs):
        trap_model = self._model(costs, "trap")
        nizk_model = self._model(costs, "nizk")
        trap_s = trap_model.iteration_time_with_cores(4, 16384) / trap_model.iteration_time_with_cores(36, 16384)
        nizk_s = nizk_model.iteration_time_with_cores(4, 16384) / nizk_model.iteration_time_with_cores(36, 16384)
        assert nizk_s < trap_s

    def test_table4_setup_quadratic(self, costs):
        t4 = group_setup_latency(4, costs)
        t8 = group_setup_latency(8, costs)
        t64 = group_setup_latency(64, costs)
        assert t8 / t4 == pytest.approx(4.0)
        # paper anchors: 7.4ms at k=4, 1432.1ms at k=64 (same order)
        assert 0.001 < t4 < 0.05
        assert 0.3 < t64 < 5.0


class TestEndToEnd:
    """Figures 9-11 and Table 12 shapes."""

    def test_fig9_linear_in_messages(self):
        sim = AtomSimulator(SimConfig())
        lat = [sim.latency_minutes(m) for m in (2 ** 19, 2 ** 20, 2 ** 21)]
        assert lat[1] / lat[0] == pytest.approx(2.0, rel=0.3)
        assert lat[2] / lat[1] == pytest.approx(2.0, rel=0.3)

    def test_paper_headline_28_minutes(self):
        """§1: 'a million Tweet-length messages in 28 minutes'."""
        sim = AtomSimulator(SimConfig(num_servers=1024, num_groups=1024))
        assert sim.latency_minutes(2 ** 20) == pytest.approx(28.2, rel=0.05)

    def test_fig10_horizontal_scaling(self):
        lat = {}
        for n in (128, 256, 512, 1024):
            lat[n] = AtomSimulator(
                SimConfig(num_servers=n, num_groups=n)
            ).latency_minutes(2 ** 20)
        assert lat[512] / lat[1024] == pytest.approx(2.0, rel=0.15)
        assert lat[128] / lat[1024] == pytest.approx(8.0, rel=0.15)

    def test_fig11_sublinear_at_scale(self):
        base = AtomSimulator(
            SimConfig(num_servers=2 ** 10, num_groups=2 ** 10)
        ).simulate_round(10 ** 9)
        big = AtomSimulator(
            SimConfig(num_servers=2 ** 15, num_groups=2 ** 15)
        ).simulate_round(10 ** 9)
        speedup = base.total_s / big.total_s
        assert 15 < speedup < 30  # sub-linear vs 32x ideal (paper: 23.6x)

    def test_dialing_close_to_microblogging(self):
        micro = AtomSimulator(SimConfig()).latency_minutes(2 ** 20)
        dial = AtomSimulator(
            SimConfig(application="dialing", message_size=80)
        ).latency_minutes(2 ** 20)
        assert dial == pytest.approx(micro, rel=0.25)  # Table 12: 28.2 vs 27.9

    def test_bandwidth_below_1mb_per_s(self):
        """§6.2: Atom servers use less than 1 MB/s."""
        result = AtomSimulator(SimConfig()).simulate_round(2 ** 20)
        assert result.per_server_bandwidth_bytes_s < 1e6

    def test_staggering_helps(self):
        """§4.7 ablation: naive placement wastes capacity."""
        on = AtomSimulator(SimConfig(staggered=True)).simulate_round(2 ** 22)
        off = AtomSimulator(SimConfig(staggered=False)).simulate_round(2 ** 22)
        assert off.total_s >= on.total_s

    def test_trap_doubles_ciphertexts(self):
        sim = AtomSimulator(SimConfig(variant="trap"))
        assert sim.total_ciphertexts(1000) == 2000
        sim2 = AtomSimulator(SimConfig(variant="nizk"))
        assert sim2.total_ciphertexts(1000) == 1000

    def test_setup_under_two_seconds(self):
        """§1: fault tolerance adds 'less than two seconds of overhead'
        (the k=33 group setup)."""
        assert AtomSimulator(SimConfig(group_size=33)).setup_time() < 2.0


class TestSizingMatchesTheLiveSpec:
    """The cost model sizes ciphertexts with the paper's constants
    (31 B/element, 48 B inner envelope); the live stack embeds 29 B per
    P-256 point and frames the inner ciphertext in 54 B (33 B point,
    16 B tag, kind byte, two u16 lengths).  Before wire version 3 the
    live envelope was 90 B and the rows below read 5 / 6 / 9 live
    against the same 3 / 5 / 7 — every Fig 5-11 projection was for a
    system 1.2-1.7x cheaper than the one running.  Pinned so the two
    cannot drift apart again unnoticed."""

    #: (variant, message bytes) -> (live elements, sim elements)
    TABLE = [
        ("trap", 32, 3, 3),
        ("trap", 80, 5, 5),
        ("trap", 160, 8, 7),
        ("basic", 160, 6, 6),
    ]

    @pytest.mark.parametrize("variant,size,live,sim", TABLE)
    def test_elements_per_message(self, variant, size, live, sim):
        spec = PayloadSpec.for_deployment(
            get_group("P256"), size, trap_variant=(variant == "trap")
        )
        modelled = SimConfig(variant=variant, message_size=size).elements_per_message()
        assert (spec.elements_per_message, modelled) == (live, sim)
        assert modelled <= spec.elements_per_message <= modelled + 1

    def test_live_envelope_is_54_bytes_on_p256(self):
        group = get_group("P256")
        assert inner_payload_size(group, 0) == 54
        assert group.params.message_bytes == 29
        assert (CCA2_OVERHEAD_BYTES, ELEMENT_PAYLOAD_BYTES) == (48, 31)
