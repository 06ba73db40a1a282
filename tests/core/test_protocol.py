"""Integration tests: full Atom rounds across all variants."""

import pytest

from repro.core import (
    AtomDeployment,
    Client,
    DeploymentConfig,
    StreamConfig,
    StreamEngine,
)
from repro.core.client import TrapSubmission
from repro.core.server import AtomServer, Behavior
from repro.crypto.commit import commit
from repro.crypto.groups import DeterministicRng


def small_config(**overrides):
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant="basic",
        iterations=3,
        message_size=8,
        crypto_group="TOY",
        nizk_rounds=4,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


def run_with_messages(dep, rnd, msgs, variant, rng=None):
    """Submit and mix; a DeterministicRng pins client trap-coin flips
    and mixing shuffles, making catch-probability outcomes reproducible."""
    client = Client(dep.group, rng) if rng is not None else None
    for i, m in enumerate(msgs):
        if variant == "trap":
            dep.submit_trap(rnd, m, entry_gid=i % dep.config.num_groups, client=client)
        else:
            dep.submit_plain(rnd, m, entry_gid=i % dep.config.num_groups, client=client)
    return dep.run_round(rnd, rng)


class TestCorrectness:
    """§2.2 Correctness: honest outputs contain all honest inputs."""

    @pytest.mark.parametrize("variant", ["basic", "nizk", "trap"])
    def test_all_variants_route_all_messages(self, variant):
        dep = AtomDeployment(small_config(variant=variant))
        rnd = dep.start_round(0)
        msgs = [f"msg{i}".encode() for i in range(4)]
        result = run_with_messages(dep, rnd, msgs, variant)
        assert result.ok
        assert sorted(result.messages) == sorted(msgs)

    def test_larger_load(self):
        dep = AtomDeployment(small_config())
        rnd = dep.start_round(0)
        msgs = [f"m{i:03d}".encode() for i in range(16)]
        result = run_with_messages(dep, rnd, msgs, "basic")
        assert sorted(result.messages) == sorted(msgs)

    def test_four_groups_square(self):
        dep = AtomDeployment(small_config(num_servers=10, num_groups=4))
        rnd = dep.start_round(0)
        msgs = [f"m{i:03d}".encode() for i in range(16)]
        result = run_with_messages(dep, rnd, msgs, "basic")
        assert sorted(result.messages) == sorted(msgs)

    def test_butterfly_topology(self):
        dep = AtomDeployment(
            small_config(num_servers=8, num_groups=2, topology="butterfly")
        )
        rnd = dep.start_round(0)
        msgs = [f"m{i}".encode() for i in range(4)]
        result = run_with_messages(dep, rnd, msgs, "basic")
        assert sorted(result.messages) == sorted(msgs)

    def test_manytrust_mode(self):
        dep = AtomDeployment(
            small_config(num_servers=10, group_size=4, mode="manytrust", h=2)
        )
        rnd = dep.start_round(0)
        msgs = [f"m{i}".encode() for i in range(4)]
        result = run_with_messages(dep, rnd, msgs, "basic")
        assert sorted(result.messages) == sorted(msgs)

    def test_output_order_differs_from_input(self):
        """The final permutation should not be the identity."""
        dep = AtomDeployment(small_config())
        rnd = dep.start_round(0)
        msgs = [f"m{i:03d}".encode() for i in range(16)]
        result = run_with_messages(dep, rnd, msgs, "basic")
        assert result.messages != msgs


class TestSubmissionValidation:
    def test_unbalanced_entry_rejected(self):
        dep = AtomDeployment(small_config())
        rnd = dep.start_round(0)
        dep.submit_plain(rnd, b"a", entry_gid=0)
        with pytest.raises(ValueError):
            dep.run_round(rnd)

    def test_duplicate_submission_rejected(self):
        """A rerandomized copy cannot even be built without the witness;
        an exact copy is rejected by the seen-set (and the NIZK binds
        gid so cross-group replay also fails, tested in crypto)."""
        dep = AtomDeployment(small_config())
        rnd = dep.start_round(0)
        client = Client(dep.group)
        ctx = rnd.contexts[0]
        sub = client.prepare_plain(b"dup", ctx.public_key, 0, dep.spec.payload_size)
        dep._accept(rnd, 0, [sub], None)
        with pytest.raises(ValueError):
            dep._accept(rnd, 0, [sub], None)

    def test_forged_proof_rejected_by_the_entry_node(self, monkeypatch):
        """The entry node is the only EncProof verifier: a pair whose
        proofs belong to other ciphertexts is refused there, and an
        honest pair is verified exactly once per part."""
        import repro.core.client as client_module
        from repro.core.client import Submission

        dep = AtomDeployment(small_config(variant="trap"))
        rnd = dep.start_round(0)
        client = Client(dep.group)
        args = (
            rnd.contexts[0].public_key, rnd.trustees.public_key,
            0, dep.spec.payload_size, dep.config.message_size,
        )
        sub, _ = client.prepare_trap_pair(b"evil", *args)
        first, second = sub.pair
        forged = TrapSubmission(
            pair=(Submission(first.vector, second.proofs), second),
            trap_commitment=sub.trap_commitment,
            gid=0,
        )
        with pytest.raises(ValueError, match="EncProof"):
            dep.inject_trap_submission(rnd, 0, forged)
        assert not rnd.coordinator.nodes[0].holdings
        assert not rnd.trap_submissions

        calls = []
        verify = client_module.verify_encryption

        def counting(*args):
            calls.append(1)
            return verify(*args)

        monkeypatch.setattr(client_module, "verify_encryption", counting)
        dep.submit_trap(rnd, b"ok", entry_gid=0)
        assert len(calls) == 2 * dep.spec.elements_per_message

    def test_wrong_variant_submission(self):
        dep = AtomDeployment(small_config(variant="trap"))
        rnd = dep.start_round(0)
        with pytest.raises(ValueError):
            dep.submit_plain(rnd, b"x", entry_gid=0)
        dep2 = AtomDeployment(small_config(variant="basic"))
        rnd2 = dep2.start_round(0)
        with pytest.raises(ValueError):
            dep2.submit_trap(rnd2, b"x", entry_gid=0)

    def test_message_with_the_cover_prefix_is_refused_by_name(self):
        """The exit drops every message that starts with the cover
        marker, so an honest one that does is refused at submit."""
        dep = AtomDeployment(small_config(variant="trap"))
        rnd = dep.start_round(0)
        with pytest.raises(ValueError, match=r"prefix b'\\x00__atom_'"):
            dep.submit_trap(rnd, b"\x00__atom_", entry_gid=0)
        assert not rnd.coordinator.nodes[0].holdings

    def test_trap_stream_refuses_a_cover_prefixed_message(self):
        def message_fn(round_id, user):
            return b"\x00__atom_" if user == 0 else b"u%d" % user

        engine = StreamEngine(
            small_config(variant="trap"),
            stream=StreamConfig(rounds=1, users_per_round=4, seed=b"cover"),
            message_fn=message_fn,
        )
        with engine, pytest.raises(ValueError, match="cover-dummy prefix"):
            engine.run()

    def test_required_user_multiple(self):
        dep = AtomDeployment(small_config(num_groups=2))
        unit = dep.required_user_multiple()
        assert unit >= 1
        # a full unit of users runs cleanly
        rnd = dep.start_round(0)
        msgs = [f"u{i}".encode() for i in range(unit)]
        result = run_with_messages(dep, rnd, msgs, "basic")
        assert result.ok


class TestNizkVariantSecurity:
    def test_malicious_shuffler_aborts_with_culprit(self):
        dep = AtomDeployment(small_config(variant="nizk"))
        rnd = dep.start_round(0)
        bad_server = rnd.contexts[1].servers[0]
        bad_server.behavior = Behavior.BAD_SHUFFLE
        msgs = [f"m{i}".encode() for i in range(4)]
        result = run_with_messages(dep, rnd, msgs, "nizk")
        assert result.aborted
        assert result.offending_groups == [1]
        assert not result.messages  # nothing revealed

    def test_malicious_replacer_aborts(self):
        dep = AtomDeployment(small_config(variant="nizk"))
        rnd = dep.start_round(0)
        rnd.contexts[0].servers[1].behavior = Behavior.REPLACE_ONE
        msgs = [f"m{i}".encode() for i in range(4)]
        result = run_with_messages(dep, rnd, msgs, "nizk")
        assert result.aborted


class TestTrapVariantSecurity:
    def test_trap_counts(self):
        dep = AtomDeployment(small_config(variant="trap"))
        rnd = dep.start_round(0)
        msgs = [f"m{i}".encode() for i in range(4)]
        result = run_with_messages(dep, rnd, msgs, "trap")
        assert result.ok
        assert result.num_traps_checked == 4

    def test_replacement_detected_about_half_the_time(self):
        """§4.4: tampering trips a trap with probability 1/2.

        Seeded trials: each trial's coin (which of the pair the client
        made the trap, and which ciphertext the shuffle put in front of
        the tamperer) is drawn from a DeterministicRng, so the observed
        abort count is a fixed value inside the binomial bound rather
        than a fresh 2*2^-14 tail risk per CI run.
        """
        aborts = 0
        trials = 14
        for trial in range(trials):
            rng = DeterministicRng(b"trap-catch-%d" % trial)
            dep = AtomDeployment(small_config(variant="trap"))
            rnd = dep.start_round(trial, rng)
            rnd.contexts[0].servers[0].behavior = Behavior.REPLACE_ONE
            msgs = [f"m{i}".encode() for i in range(4)]
            result = run_with_messages(dep, rnd, msgs, "trap", rng)
            aborts += result.aborted
        # Binomial(14, 0.5): [2, 12] covers ~1 - 2*2^-14 of seeds.
        assert 2 <= aborts <= 12

    def test_successful_tampering_only_drops_one(self):
        """When the adversary evades the traps, all other messages
        still come out (anonymity set shrinks by exactly one).
        Seeded: one of the 20 fixed trials is a known evasion."""
        for trial in range(20):
            rng = DeterministicRng(b"trap-evade-%d" % trial)
            dep = AtomDeployment(small_config(variant="trap"))
            rnd = dep.start_round(trial, rng)
            rnd.contexts[0].servers[0].behavior = Behavior.REPLACE_ONE
            msgs = [f"m{i}".encode() for i in range(4)]
            result = run_with_messages(dep, rnd, msgs, "trap", rng)
            if result.ok:
                survivors = [m for m in result.messages if m in msgs]
                assert len(survivors) == len(msgs) - 1
                return
        pytest.fail("adversary never evaded the traps in 20 seeded trials")

    def test_duplicate_inner_detected(self):
        dep = AtomDeployment(small_config(variant="trap"))
        rnd = dep.start_round(0)
        rnd.contexts[0].servers[0].behavior = Behavior.DUPLICATE_ONE
        msgs = [f"m{i}".encode() for i in range(4)]
        result = run_with_messages(dep, rnd, msgs, "trap")
        # duplicating removes one ciphertext and repeats another: either a
        # missing trap or a duplicate inner — both abort.
        assert result.aborted

    def test_honest_round_after_aborted_round(self):
        """Keys are per-round: an abort does not poison later rounds."""
        dep = AtomDeployment(small_config(variant="trap"))
        rnd0 = dep.start_round(0)
        rnd0.contexts[0].servers[0].behavior = Behavior.DUPLICATE_ONE
        msgs = [f"m{i}".encode() for i in range(4)]
        run_with_messages(dep, rnd0, msgs, "trap")
        # servers objects are shared; reset behavior for the next round
        for server in dep.servers:
            server.behavior = Behavior.HONEST
            server.tamper_budget = 1
        rnd1 = dep.start_round(1)
        result = run_with_messages(dep, rnd1, msgs, "trap")
        assert result.ok and sorted(result.messages) == sorted(msgs)


class TestBlame:
    def test_bad_commitment_user_identified(self):
        dep = AtomDeployment(small_config(variant="trap"))
        rnd = dep.start_round(0)
        client = Client(dep.group)
        good_ids = [
            dep.submit_trap(rnd, f"m{i}".encode(), entry_gid=i % 2) for i in range(3)
        ]
        sub, _ = client.prepare_trap_pair(
            b"evil", rnd.contexts[1].public_key, rnd.trustees.public_key,
            1, dep.spec.payload_size, dep.config.message_size,
        )
        corrupted = TrapSubmission(pair=sub.pair, trap_commitment=commit(b"X"), gid=1)
        bad_id = dep.inject_trap_submission(rnd, 1, corrupted)
        result = dep.run_round(rnd)
        assert result.aborted
        report = dep.blame(rnd)
        assert report.all_blamed == (bad_id,)
        assert not set(good_ids) & set(report.all_blamed)

    def test_two_trap_user_identified(self):
        """A user submitting two traps (no inner) breaks the counts."""
        dep = AtomDeployment(small_config(variant="trap"))
        rnd = dep.start_round(0)
        client = Client(dep.group)
        for i in range(3):
            dep.submit_trap(rnd, f"m{i}".encode(), entry_gid=i % 2)
        # Build a malicious pair: two traps.
        ctx = rnd.contexts[1]
        t1 = dep.spec.build_trap(1, b"a" * 16)
        t2 = dep.spec.build_trap(1, b"b" * 16)
        s1 = client._submit_payload(t1, ctx.public_key, 1)
        s2 = client._submit_payload(t2, ctx.public_key, 1)
        malicious = TrapSubmission(pair=(s1, s2), trap_commitment=commit(t1), gid=1)
        bad_id = dep.inject_trap_submission(rnd, 1, malicious)
        result = dep.run_round(rnd)
        assert result.aborted
        report = dep.blame(rnd)
        assert bad_id in report.all_blamed


class TestChurn:
    def test_anytrust_failure_stalls_round(self):
        dep = AtomDeployment(small_config())
        rnd = dep.start_round(0)
        msgs = [f"m{i}".encode() for i in range(4)]
        for i, m in enumerate(msgs):
            dep.submit_plain(rnd, m, entry_gid=i % 2)
        rnd.contexts[0].servers[0].fail()
        result = dep.run_round(rnd)
        assert result.aborted
        assert "alive" in result.abort_reason

    def test_manytrust_survives_failure(self):
        dep = AtomDeployment(
            small_config(num_servers=10, group_size=4, mode="manytrust", h=2)
        )
        rnd = dep.start_round(0)
        msgs = [f"m{i}".encode() for i in range(4)]
        for i, m in enumerate(msgs):
            dep.submit_plain(rnd, m, entry_gid=i % 2)
        rnd.contexts[0].servers[3].fail()
        result = dep.run_round(rnd)
        assert result.ok
        assert sorted(result.messages) == sorted(msgs)

    def test_buddy_recovery_end_to_end(self):
        from repro.core.faults import BuddySystem

        dep = AtomDeployment(
            small_config(num_servers=10, group_size=4, mode="manytrust", h=2)
        )
        rnd = dep.start_round(0)
        buddies = BuddySystem(dep.group)
        buddies.escrow(rnd.contexts[0], rnd.contexts[1])
        msgs = [f"m{i}".encode() for i in range(4)]
        for i, m in enumerate(msgs):
            dep.submit_plain(rnd, m, entry_gid=i % 2)
        for server in rnd.contexts[0].servers[:2]:
            server.fail()
        replacements = [AtomServer(server_id=200 + i, group=dep.group) for i in range(4)]
        rnd.contexts[0] = buddies.recover(rnd.contexts[0], replacements)
        result = dep.run_round(rnd)
        assert result.ok
        assert sorted(result.messages) == sorted(msgs)


class TestByteAccounting:
    def test_nizk_variant_sends_more_bytes(self):
        msgs = [f"m{i}".encode() for i in range(4)]
        dep_b = AtomDeployment(small_config(variant="basic"))
        rnd_b = dep_b.start_round(0)
        res_b = run_with_messages(dep_b, rnd_b, msgs, "basic")
        dep_n = AtomDeployment(small_config(variant="nizk"))
        rnd_n = dep_n.start_round(0)
        res_n = run_with_messages(dep_n, rnd_n, msgs, "nizk")
        assert res_n.bytes_sent_total > res_b.bytes_sent_total
