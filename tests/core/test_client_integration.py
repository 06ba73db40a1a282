"""Client-side submission tests plus larger integration rounds, one of
them on P-256 with realistic payloads."""

import pytest

from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.core import messages as fmt
from repro.core.group import GroupContext
from repro.core.server import AtomServer, Behavior
from repro.crypto.commit import verify_commitment


@pytest.fixture()
def entry_setup(toy_group):
    servers = [AtomServer(server_id=i, group=toy_group) for i in range(3)]
    ctx = GroupContext(gid=0, servers=servers, group=toy_group, nizk_rounds=8)
    client = Client(toy_group)
    return ctx, client


class TestClientPlain:
    def test_submission_verifies(self, toy_group, entry_setup):
        ctx, client = entry_setup
        sub = client.prepare_plain(b"hello", ctx.public_key, 0, payload_size=24)
        assert sub.verify(toy_group, ctx.public_key, gid=0)

    def test_wrong_gid_rejected(self, toy_group, entry_setup):
        ctx, client = entry_setup
        sub = client.prepare_plain(b"hello", ctx.public_key, 0, payload_size=24)
        assert not sub.verify(toy_group, ctx.public_key, gid=1)

    def test_proof_count_matches_parts(self, toy_group, entry_setup):
        ctx, client = entry_setup
        sub = client.prepare_plain(b"hello" * 4, ctx.public_key, 0, payload_size=40)
        assert len(sub.proofs) == len(sub.vector.parts) > 1

    def test_truncated_proofs_rejected(self, toy_group, entry_setup):
        from repro.core.client import Submission

        ctx, client = entry_setup
        sub = client.prepare_plain(b"hello" * 4, ctx.public_key, 0, payload_size=40)
        broken = Submission(vector=sub.vector, proofs=sub.proofs[:-1])
        assert not broken.verify(toy_group, ctx.public_key, gid=0)


class TestClientTrapPair:
    @pytest.fixture()
    def trap_setup(self, toy_group, entry_setup):
        from repro.core.trustees import TrusteeGroup

        ctx, client = entry_setup
        trustees = TrusteeGroup(toy_group, num_trustees=3)
        spec = fmt.PayloadSpec.for_deployment(toy_group, 16, trap_variant=True)
        return ctx, client, trustees, spec

    def test_pair_verifies(self, toy_group, trap_setup):
        ctx, client, trustees, spec = trap_setup
        sub, _ = client.prepare_trap_pair(
            b"msg", ctx.public_key, trustees.public_key, 0, spec.payload_size, 16
        )
        assert sub.verify(toy_group, ctx.public_key)

    def test_commitment_opens_to_trap(self, toy_group, trap_setup):
        ctx, client, trustees, spec = trap_setup
        sub, trap_payload = client.prepare_trap_pair(
            b"msg", ctx.public_key, trustees.public_key, 0, spec.payload_size, 16
        )
        assert verify_commitment(sub.trap_commitment, trap_payload)
        gid, nonce = fmt.PayloadSpec.parse_trap(trap_payload)
        assert gid == 0 and len(nonce) == 16

    def test_pair_payloads_same_size(self, toy_group, trap_setup):
        """Traps and inner ciphertexts must be indistinguishable."""
        ctx, client, trustees, spec = trap_setup
        sub, _ = client.prepare_trap_pair(
            b"msg", ctx.public_key, trustees.public_key, 0, spec.payload_size, 16
        )
        sizes = {len(s.vector.parts) for s in sub.pair}
        assert len(sizes) == 1

    def test_pair_order_varies(self, toy_group, trap_setup):
        """The trap position within the pair must be random (the 50%
        detection probability depends on it)."""
        from repro.crypto.groups import DeterministicRng

        ctx, _, trustees, spec = trap_setup
        orders = set()
        for seed in range(12):
            client = Client(toy_group, rng=DeterministicRng(bytes([seed])))
            sub, trap_payload = client.prepare_trap_pair(
                b"msg", ctx.public_key, trustees.public_key, 0, spec.payload_size, 16
            )
            # which element of the pair is the trap?
            secrets_sum = sum(ctx.reveal_secrets()) % toy_group.q
            first = toy_group.decode_chunks(
                ctx.scheme.decrypt(secrets_sum, p) for p in sub.pair[0].vector.parts
            )
            orders.add(first == trap_payload)
        assert orders == {True, False}


class TestIntegration128Bit:
    """Whole rounds; the realistic-payload one runs on P-256, the
    paper's 128-bit-security curve."""

    def test_trap_round_with_32_byte_messages(self):
        config = DeploymentConfig(
            num_servers=8,
            num_groups=2,
            group_size=3,
            variant="trap",
            iterations=3,
            message_size=32,
            crypto_group="P256",
        )
        dep = AtomDeployment(config)
        rnd = dep.start_round(0)
        msgs = [f"32-byte-ish message number {i:03d}".encode() for i in range(4)]
        for i, m in enumerate(msgs):
            dep.submit_trap(rnd, m, entry_gid=i % 2)
        result = dep.run_round(rnd)
        assert result.ok
        assert sorted(result.messages) == sorted(msgs)

    def test_manytrust_nizk_combination(self):
        """NIZK verification and threshold mixing compose."""
        config = DeploymentConfig(
            num_servers=10,
            num_groups=2,
            group_size=4,
            variant="nizk",
            mode="manytrust",
            h=2,
            iterations=2,
            message_size=8,
            crypto_group="TOY",
            nizk_rounds=4,
        )
        dep = AtomDeployment(config)
        rnd = dep.start_round(0)
        msgs = [f"m{i}".encode() for i in range(4)]
        for i, m in enumerate(msgs):
            dep.submit_plain(rnd, m, entry_gid=i % 2)
        rnd.contexts[1].servers[0].fail()  # within the h-1 budget
        result = dep.run_round(rnd)
        assert result.ok
        assert sorted(result.messages) == sorted(msgs)

    def test_two_malicious_servers_in_different_groups(self):
        """Multiple tamperings multiply detection odds (2^-kappa)."""
        config = DeploymentConfig(
            num_servers=8,
            num_groups=2,
            group_size=2,
            variant="trap",
            iterations=2,
            message_size=8,
            crypto_group="TOY",
        )
        aborts = 0
        trials = 12
        for trial in range(trials):
            from repro.crypto.groups import DeterministicRng

            rng = DeterministicRng(b"two-tamper-%d" % trial)
            dep = AtomDeployment(config)
            rnd = dep.start_round(trial, rng)
            rnd.contexts[0].servers[0].behavior = Behavior.REPLACE_ONE
            rnd.contexts[1].servers[0].behavior = Behavior.REPLACE_ONE
            client = Client(dep.group, rng)
            for i in range(4):
                dep.submit_trap(rnd, f"m{i}".encode(), entry_gid=i % 2, client=client)
            result = dep.run_round(rnd, rng)
            aborts += result.aborted
        # Two independent tamperings evade with probability ~1/4, so
        # E[aborts] = 9.  Seeded trials make the observed count a fixed
        # value; the p=3/4 binomial bound (P[<5] ~ 3e-3 over seeds, a
        # recurring flake when this drew fresh randomness) still
        # documents the statistic being reproduced.
        assert aborts >= 5

    def test_audit_totals_accumulate(self):
        config = DeploymentConfig(
            num_servers=6,
            num_groups=2,
            group_size=2,
            variant="basic",
            iterations=3,
            message_size=8,
            crypto_group="TOY",
        )
        dep = AtomDeployment(config)
        rnd = dep.start_round(0)
        for i in range(4):
            dep.submit_plain(rnd, f"m{i}".encode(), entry_gid=i % 2)
        result = dep.run_round(rnd)
        # one audit per group per layer
        assert len(result.audits) == config.num_groups * config.iterations
        assert result.bytes_sent_total == sum(a.bytes_sent for a in result.audits)
