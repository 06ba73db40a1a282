"""Tests for Shamir sharing, Feldman VSS, DVSS, and threshold ElGamal."""

import pytest

from repro.crypto.elgamal import AtomElGamal
from repro.crypto.secret_sharing import (
    DvssProtocol,
    Share,
    feldman_deal,
    feldman_verify,
    lagrange_coefficient,
    shamir_reconstruct,
    shamir_share,
)
from repro.crypto.threshold import ThresholdElGamal


class TestShamir:
    def test_reconstruct_from_threshold(self, toy_group):
        secret = 123456789 % toy_group.q
        shares = shamir_share(toy_group, secret, threshold=3, num_shares=5)
        assert shamir_reconstruct(toy_group, shares[:3]) == secret
        assert shamir_reconstruct(toy_group, shares[2:]) == secret

    def test_any_subset_of_threshold_size(self, toy_group):
        secret = 42
        shares = shamir_share(toy_group, secret, threshold=2, num_shares=4)
        import itertools

        for subset in itertools.combinations(shares, 2):
            assert shamir_reconstruct(toy_group, list(subset)) == secret

    def test_below_threshold_gives_wrong_secret(self, toy_group):
        secret = 777
        shares = shamir_share(toy_group, secret, threshold=3, num_shares=5)
        assert shamir_reconstruct(toy_group, shares[:2]) != secret

    def test_invalid_threshold_rejected(self, toy_group):
        with pytest.raises(ValueError):
            shamir_share(toy_group, 1, threshold=6, num_shares=5)
        with pytest.raises(ValueError):
            shamir_share(toy_group, 1, threshold=0, num_shares=5)

    def test_duplicate_indices_rejected(self, toy_group):
        shares = [Share(1, 10), Share(1, 20)]
        with pytest.raises(ValueError):
            shamir_reconstruct(toy_group, shares)

    def test_lagrange_partition_of_unity(self, toy_group):
        # Interpolating the constant polynomial 1: coefficients sum to 1.
        xs = [1, 2, 5, 7]
        total = sum(
            lagrange_coefficient(toy_group.q, xs, j) for j in range(len(xs))
        ) % toy_group.q
        assert total == 1


class TestFeldman:
    def test_honest_dealing_verifies(self, toy_group):
        secret = toy_group.random_scalar()
        dealing = feldman_deal(toy_group, secret, threshold=3, num_shares=5)
        for share in dealing.shares:
            assert feldman_verify(toy_group, share, dealing.commitments)

    def test_corrupted_share_detected(self, toy_group):
        secret = toy_group.random_scalar()
        dealing = feldman_deal(toy_group, secret, threshold=3, num_shares=5)
        bad = Share(dealing.shares[0].index, (dealing.shares[0].value + 1) % toy_group.q)
        assert not feldman_verify(toy_group, bad, dealing.commitments)

    def test_public_matches_secret(self, toy_group):
        secret = toy_group.random_scalar()
        dealing = feldman_deal(toy_group, secret, threshold=2, num_shares=3)
        assert dealing.public == toy_group.g ** secret


class TestDvss:
    def test_shares_reconstruct_group_secret(self, toy_group):
        result = DvssProtocol(toy_group, num_members=5, threshold=3).run()
        secret = shamir_reconstruct(toy_group, result.shares[:3])
        assert toy_group.g ** secret == result.group_public

    def test_all_honest_dealers_qualify(self, toy_group):
        result = DvssProtocol(toy_group, num_members=4, threshold=2).run()
        assert result.qualified == [0, 1, 2, 3]

    def test_corrupt_dealer_disqualified(self, toy_group):
        result = DvssProtocol(toy_group, num_members=4, threshold=2).run(
            corrupt_dealers={1: 2}
        )
        assert 1 not in result.qualified
        # Remaining dealers still produce a usable key.
        secret = shamir_reconstruct(toy_group, result.shares[:2])
        assert toy_group.g ** secret == result.group_public

    def test_share_publics_consistent(self, toy_group):
        result = DvssProtocol(toy_group, num_members=4, threshold=2).run()
        for member, share in enumerate(result.shares):
            assert toy_group.g ** share.value == result.share_publics[member]

    def test_invalid_params(self, toy_group):
        with pytest.raises(ValueError):
            DvssProtocol(toy_group, num_members=3, threshold=4)


class TestThresholdElGamal:
    @pytest.fixture()
    def scheme_and_threshold(self, toy_group):
        scheme = AtomElGamal(toy_group)
        dvss = DvssProtocol(toy_group, num_members=5, threshold=3).run()
        return scheme, ThresholdElGamal(toy_group, dvss)

    def test_decrypt_with_various_subsets(self, toy_group, scheme_and_threshold):
        scheme, thresh = scheme_and_threshold
        m = toy_group.encode(b"thr")
        ct, _ = scheme.encrypt(thresh.public_key, m)
        for participants in ([0, 1, 2], [2, 3, 4], [0, 2, 4], [0, 1, 2, 3, 4]):
            peeled = ct
            for member in participants:
                w = thresh.weighted_secret(member, participants)
                peeled = scheme.reencrypt(w, None, peeled)
            assert peeled.c == m

    def test_below_threshold_rejected(self, toy_group, scheme_and_threshold):
        _, thresh = scheme_and_threshold
        with pytest.raises(ValueError):
            thresh.weighted_secret(0, [0, 1])

    def test_weighted_secrets_sum_to_group_secret(self, toy_group, scheme_and_threshold):
        _, thresh = scheme_and_threshold
        participants = [1, 2, 4]
        total = sum(
            thresh.weighted_secret(m, participants) for m in participants
        ) % toy_group.q
        assert toy_group.g ** total == thresh.public_key

    def test_weighted_reencryption_pipeline(self, toy_group, scheme_and_threshold):
        """Many-trust mixing: k-(h-1) members peel the group layer."""
        scheme, thresh = scheme_and_threshold
        nxt = scheme.keygen()
        m = toy_group.encode(b"mt")
        ct, _ = scheme.encrypt(thresh.public_key, m)
        participants = [0, 3, 4]
        for member in participants:
            w = thresh.weighted_secret(member, participants)
            ct = scheme.reencrypt(w, nxt.public, ct)
        ct = ct.with_y_bot()
        assert scheme.decrypt(nxt.secret, ct) == m

    def test_release_and_decrypt(self, toy_group, scheme_and_threshold):
        """Trap-variant trustees: publish shares, anyone decrypts."""
        scheme, thresh = scheme_and_threshold
        m = toy_group.encode(b"rel")
        ct, _ = scheme.encrypt(thresh.public_key, m)
        released = {i: thresh.dvss.shares[i].value for i in (0, 1, 2)}
        assert scheme.decrypt(thresh.reconstruct_secret(released), ct) == m

    def test_release_too_few_shares(self, toy_group, scheme_and_threshold):
        _, thresh = scheme_and_threshold
        with pytest.raises(ValueError):
            thresh.reconstruct_secret({0: thresh.dvss.shares[0].value})

    def test_nonparticipant_weighted_secret_rejected(self, toy_group, scheme_and_threshold):
        _, thresh = scheme_and_threshold
        with pytest.raises(ValueError):
            thresh.weighted_secret(0, [1, 2, 3])
