"""Deep tests for the buddy-group escrow and recovery machinery (§4.5)."""

import pytest

from repro.core.faults import BuddySystem, restore_group
from repro.core.group import GroupContext, GroupStalled
from repro.core.server import AtomServer
from repro.crypto.secret_sharing import Share


def manytrust_group(toy_group, gid, size=4, h=2):
    servers = [AtomServer(server_id=gid * 100 + i, group=toy_group) for i in range(size)]
    return GroupContext(
        gid, servers, toy_group, mode="manytrust", h=h, nizk_rounds=8
    )


@pytest.fixture()
def pair(toy_group):
    return manytrust_group(toy_group, 0), manytrust_group(toy_group, 1)


class TestEscrow:
    def test_escrow_shares_reconstruct_originals(self, toy_group, pair):
        group, buddy = pair
        system = BuddySystem(toy_group)
        escrow = system.escrow(group, buddy)
        from repro.crypto.secret_sharing import shamir_reconstruct

        for member, subshares in enumerate(escrow.subshares):
            value = shamir_reconstruct(toy_group, subshares[: escrow.threshold])
            assert value == group._threshold_scheme.dvss.shares[member].value

    def test_anytrust_group_cannot_escrow(self, toy_group):
        servers = [AtomServer(server_id=i, group=toy_group) for i in range(3)]
        anytrust = GroupContext(
            0, servers, toy_group, mode="anytrust", nizk_rounds=8
        )
        buddy = manytrust_group(toy_group, 1)
        with pytest.raises(ValueError):
            BuddySystem(toy_group).escrow(anytrust, buddy)

    def test_multiple_buddies(self, toy_group, pair):
        group, buddy = pair
        second_buddy = manytrust_group(toy_group, 2)
        system = BuddySystem(toy_group)
        system.escrow(group, buddy)
        system.escrow(group, second_buddy)
        assert len(system.escrows_for(group.gid)) == 2

    def test_no_escrow_no_recovery(self, toy_group, pair):
        group, _ = pair
        system = BuddySystem(toy_group)
        replacements = [AtomServer(server_id=200 + i, group=toy_group) for i in range(4)]
        with pytest.raises(GroupStalled):
            system.recover(group, replacements)


class TestRecovery:
    def test_recovery_with_partial_buddy_availability(self, toy_group, pair):
        """Only a threshold subset of buddy members needs to respond."""
        group, buddy = pair
        system = BuddySystem(toy_group)
        system.escrow(group, buddy)
        for server in group.servers[:2]:
            server.fail()
        replacements = [AtomServer(server_id=200 + i, group=toy_group) for i in range(4)]
        # buddy threshold = k - (h-1) = 3; offer exactly 3 live members
        restored = system.recover(group, replacements, buddy_alive=[0, 2, 3])
        assert restored.public_key == group.public_key
        assert restored.participants()  # no longer stalled

    def test_recovery_fails_below_buddy_threshold(self, toy_group, pair):
        group, buddy = pair
        system = BuddySystem(toy_group)
        system.escrow(group, buddy)
        replacements = [AtomServer(server_id=200 + i, group=toy_group) for i in range(4)]
        with pytest.raises(GroupStalled):
            system.recover(group, replacements, buddy_alive=[0, 1])

    def test_replacement_count_must_match(self, toy_group, pair):
        group, buddy = pair
        system = BuddySystem(toy_group)
        system.escrow(group, buddy)
        with pytest.raises(ValueError):
            system.recover(group, [AtomServer(server_id=300, group=toy_group)])

    def test_restored_group_mixes(self, toy_group, pair):
        from repro.crypto.elgamal import AtomElGamal
        from repro.crypto.vector import encrypt_vector, plaintext_of

        group, buddy = pair
        system = BuddySystem(toy_group)
        system.escrow(group, buddy)
        scheme = AtomElGamal(toy_group)
        payloads = [bytes([i]) * 4 for i in range(4)]
        vectors = [encrypt_vector(scheme, group.public_key, p)[0] for p in payloads]
        for server in group.servers[:2]:
            server.fail()
        replacements = [AtomServer(server_id=200 + i, group=toy_group) for i in range(4)]
        restored = system.recover(group, replacements)
        batches, _ = restored.mix(vectors, next_keys=[None])
        out = [plaintext_of(restored.scheme, v) for b in batches for v in b]
        assert sorted(out) == sorted(payloads)

    def test_corrupted_escrow_detected(self, toy_group, pair):
        """restore_group cross-checks recovered shares against the
        originals; a corrupted escrow cannot silently change the key."""
        group, _ = pair
        replacements = [AtomServer(server_id=200 + i, group=toy_group) for i in range(4)]
        bad_shares = [
            Share(i + 1, (s.value + 1) % toy_group.q)
            for i, s in enumerate(group._threshold_scheme.dvss.shares)
        ]
        with pytest.raises(ValueError, match="escrow corrupted"):
            restore_group(group, replacements, bad_shares)

    def test_trustees_as_universal_buddy(self, toy_group):
        """§4.5: 'the trustee group can be used for this purpose' — a
        single highly-available group escrows for many groups."""
        system = BuddySystem(toy_group)
        trustee_like = manytrust_group(toy_group, 99, size=5, h=2)
        groups = [manytrust_group(toy_group, gid) for gid in range(3)]
        for group in groups:
            system.escrow(group, trustee_like)
        for group in groups:
            for server in group.servers[:2]:
                server.fail()
            replacements = [
                AtomServer(server_id=500 + group.gid * 10 + i, group=toy_group)
                for i in range(4)
            ]
            restored = system.recover(group, replacements)
            assert restored.public_key == group.public_key
