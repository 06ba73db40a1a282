"""Tests for §3 dummy-message padding (cover traffic for uneven loads
and the butterfly topology)."""

import pytest

from repro.core import AtomDeployment, DeploymentConfig
from repro.core import messages as fmt


def config(**overrides):
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant="basic",
        iterations=3,
        message_size=24,
        crypto_group="TOY",
    )
    base.update(overrides)
    return DeploymentConfig(**base)


class TestDummyPayloadFormat:
    SPEC = fmt.PayloadSpec.sized(64)

    def test_build_and_detect(self):
        payload = self.SPEC.build_dummy(b"n" * 12)
        assert fmt.PayloadSpec.is_dummy(payload)
        assert not fmt.PayloadSpec.is_trap(payload)
        assert not fmt.PayloadSpec.is_inner(payload)

    def test_same_size_as_plain(self):
        assert len(self.SPEC.build_dummy(b"n" * 12)) == len(
            self.SPEC.build_plain(b"msg")
        )

    def test_garbage_is_not_dummy(self):
        assert not fmt.PayloadSpec.is_dummy(b"\xff" * 10)


class TestPadRoundBasic:
    def test_uneven_load_padded_and_round_succeeds(self):
        dep = AtomDeployment(config())
        rnd = dep.start_round(0)
        msgs = [f"m{i}".encode() for i in range(3)]  # uneven: 2 vs 1
        for i, m in enumerate(msgs):
            dep.submit_plain(rnd, m, entry_gid=i % 2)
        added = dep.pad_round(rnd)
        assert added >= 1
        result = dep.run_round(rnd)
        assert result.ok
        # dummies are filtered out: exactly the user messages remain
        assert sorted(result.messages) == sorted(msgs)

    def test_empty_groups_padded(self):
        dep = AtomDeployment(config())
        rnd = dep.start_round(0)
        dep.submit_plain(rnd, b"lonely", entry_gid=0)
        dep.pad_round(rnd)
        result = dep.run_round(rnd)
        assert result.ok
        assert result.messages == [b"lonely"]

    def test_counts_divisible_after_padding(self):
        dep = AtomDeployment(config(num_groups=4, num_servers=10))
        rnd = dep.start_round(0)
        for i in range(5):
            dep.submit_plain(rnd, f"m{i}".encode(), entry_gid=i % 4)
        dep.pad_round(rnd)
        beta = rnd.topology.beta
        counts = {
            gid: len(node.holdings)
            for gid, node in rnd.coordinator.nodes.items()
        }
        assert len(set(counts.values())) == 1
        assert next(iter(counts.values())) % beta == 0

    @pytest.mark.parametrize("variant", ["basic", "nizk"])
    @pytest.mark.parametrize("message_size", [1, 8, 12])
    def test_short_messages_leave_room_for_a_dummy(self, variant, message_size):
        # Regression: 6 users x 8-byte messages used to die mid-round in
        # pad_round ("payload of 13 bytes does not fit in 13 bytes").
        dep = AtomDeployment(
            config(variant=variant, message_size=message_size, nizk_rounds=4)
        )
        assert dep.spec.payload_size >= fmt.LENGTH_BYTES + 1 + fmt.DUMMY_NONCE_BYTES
        rnd = dep.start_round(0)
        msgs = [bytes([65 + i]) * message_size for i in range(6)]
        for i, m in enumerate(msgs):
            dep.submit_plain(rnd, m, entry_gid=i % 2)
        assert dep.pad_round(rnd) == 2
        result = dep.run_round(rnd)
        assert result.ok
        assert sorted(result.messages) == sorted(msgs)

    def test_nizk_variant_padding(self):
        dep = AtomDeployment(config(variant="nizk", nizk_rounds=4, iterations=2))
        rnd = dep.start_round(0)
        dep.submit_plain(rnd, b"solo", entry_gid=1)
        dep.pad_round(rnd)
        result = dep.run_round(rnd)
        assert result.ok
        assert result.messages == [b"solo"]


class TestPadRoundTrap:
    def test_trap_variant_dummies_are_full_pairs(self):
        dep = AtomDeployment(config(variant="trap"))
        rnd = dep.start_round(0)
        msgs = [f"m{i}".encode() for i in range(3)]
        for i, m in enumerate(msgs):
            dep.submit_trap(rnd, m, entry_gid=i % 2)
        nodes = rnd.coordinator.nodes.values()
        before = sum(len(node.commitments) for node in nodes)
        added = dep.pad_round(rnd)
        after = sum(len(node.commitments) for node in nodes)
        assert added >= 1
        assert after == before + added  # each dummy registered a trap
        result = dep.run_round(rnd)
        assert result.ok
        assert sorted(result.messages) == sorted(msgs)

    def test_butterfly_with_padding(self):
        dep = AtomDeployment(config(topology="butterfly", variant="trap"))
        rnd = dep.start_round(0)
        dep.submit_trap(rnd, b"real message", entry_gid=0)
        dep.pad_round(rnd)
        result = dep.run_round(rnd)
        assert result.ok
        assert result.messages == [b"real message"]
