"""Tests for the microblogging and dialing applications.

The rounds run as one-round streams: posts and dial requests enter
through the engine's ``arrivals_fn`` (the scenario runner's workload
hook), and the delivered messages go to the board and the mailboxes.
"""

import pytest

from repro.apps.dialing import (
    DialingService,
    DialRequest,
    fill_mailboxes,
    laplace_noise_count,
    open_dial,
    seal_dial,
)
from repro.apps.microblog import BulletinBoard, check_post
from repro.core import (
    DeploymentConfig,
    FaultSchedule,
    StreamConfig,
    StreamEngine,
)
from repro.crypto.elgamal import ElGamalKeyPair
from repro.crypto.groups import DeterministicRng, get_group


def tiny_config(**overrides):
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant="trap",
        iterations=2,
        message_size=16,
        crypto_group="TOY",
    )
    base.update(overrides)
    return DeploymentConfig(**base)


def one_round(config, payloads, faults="", retry_aborted=True):
    """Route ``payloads`` round-robin over the entry groups through a
    one-round stream; returns its RoundStats."""
    arrivals = [(p, i % config.num_groups) for i, p in enumerate(payloads)]
    engine = StreamEngine(
        config,
        FaultSchedule.parse(faults),
        StreamConfig(rounds=1, seed=b"apps", retry_aborted=retry_aborted),
        arrivals_fn=lambda r: arrivals,
    )
    with engine:
        (stats,) = engine.run().rounds
    return stats


def publish_round(config, posts, board, **kwargs):
    """The microblog client check, a round, and the board's publish of
    a delivered round."""
    for post in posts:
        check_post(post, config.message_size)
    stats = one_round(config, posts, **kwargs)
    if stats.ok:
        board.publish(0, stats.messages)
    return stats


class TestBulletinBoard:
    def test_publish_read(self):
        board = BulletinBoard()
        board.publish(0, [b"a", b"b"])
        board.publish(1, [b"c"])
        assert board.read(0) == [b"a", b"b"]
        assert board.read(2) == []
        assert sorted(board.all_posts()) == [b"a", b"b", b"c"]


class TestMicroblog:
    def test_round_publishes_all_posts(self):
        board = BulletinBoard()
        posts = [f"post {i}".encode() for i in range(4)]
        assert publish_round(tiny_config(), posts, board).ok
        assert sorted(board.read(0)) == sorted(posts)

    def test_oversized_post_rejected(self):
        with pytest.raises(ValueError):
            publish_round(tiny_config(), [b"x" * 50] * 4, BulletinBoard())

    def test_plain_variant(self):
        board = BulletinBoard()
        posts = [f"p{i}".encode() for i in range(4)]
        assert publish_round(tiny_config(variant="basic"), posts, board).ok
        assert sorted(board.read(0)) == sorted(posts)

    def test_aborted_round_publishes_nothing(self):
        # an always-detected disruption: a server duplicates a ciphertext
        board = BulletinBoard()
        posts = [f"post {i}".encode() for i in range(4)]
        stats = publish_round(
            tiny_config(), posts, board,
            faults="r0:tamper-group:0:0:duplicate_one", retry_aborted=False,
        )
        assert not stats.ok and stats.abort_reasons
        assert board.read(0) == []


class TestDialSealing:
    def test_seal_open_roundtrip(self):
        group = get_group("TOY")
        bob = ElGamalKeyPair.generate(group)
        sealed = seal_dial(group, b"alice-public-key-bytes", bob)
        assert open_dial(group, bob, sealed) == b"alice-public-key-bytes"

    def test_wrong_recipient_cannot_open(self):
        group = get_group("TOY")
        bob = ElGamalKeyPair.generate(group)
        eve = ElGamalKeyPair.generate(group)
        sealed = seal_dial(group, b"alice", bob)
        with pytest.raises(Exception):
            open_dial(group, eve, sealed)

    def test_request_wire_roundtrip(self):
        request = DialRequest(recipient_id=42, sealed=b"sealed-bytes")
        assert DialRequest.from_bytes(request.to_bytes()) == request

    def test_short_wire_rejected(self):
        with pytest.raises(ValueError):
            DialRequest.from_bytes(b"abc")


class TestLaplaceNoise:
    def test_nonnegative(self):
        rng = DeterministicRng(b"noise")
        for _ in range(100):
            assert laplace_noise_count(5.0, 2.0, rng) >= 0

    def test_mean_near_mu(self):
        rng = DeterministicRng(b"mean")
        samples = [laplace_noise_count(50.0, 3.0, rng) for _ in range(300)]
        assert 45 < sum(samples) / len(samples) < 55

    def test_deterministic(self):
        a = laplace_noise_count(10.0, 2.0, DeterministicRng(b"s"))
        b = laplace_noise_count(10.0, 2.0, DeterministicRng(b"s"))
        assert a == b


class TestDialing:
    def _service(self, **kwargs):
        return DialingService(get_group("TOY"), **kwargs)

    def _route(self, service, requests):
        """One round of dial requests; the exit fills the mailboxes."""
        # message_size must cover 8B recipient id + the sealed box
        # (group element + AEAD nonce/tag) — 96 bytes is ample for TOY.
        stats = one_round(
            tiny_config(message_size=96), [r.to_bytes() for r in requests]
        )
        assert stats.ok
        service.mailboxes[0] = fill_mailboxes(
            stats.messages, service.num_mailboxes
        )

    def test_dial_end_to_end(self):
        service = self._service(num_mailboxes=4)
        group = service.group
        bob = ElGamalKeyPair.generate(group)
        alice_pub = b"alice-pk"
        requests = [
            service.make_request(alice_pub, recipient_id=1, recipient_key=bob)
        ]
        # pad round with unrelated calls
        carol = ElGamalKeyPair.generate(group)
        for i in range(3):
            requests.append(
                service.make_request(b"dave-pk%d" % i, 2, carol)
            )
        self._route(service, requests)
        received = service.receive(0, 1, bob)
        assert received == [alice_pub]

    def test_mailbox_separation(self):
        service = self._service(num_mailboxes=4)
        group = service.group
        bob = ElGamalKeyPair.generate(group)
        carol = ElGamalKeyPair.generate(group)
        requests = [
            service.make_request(b"to-bob", 1, bob),
            service.make_request(b"to-carol", 2, carol),
            service.make_request(b"to-bob-2", 1, bob),
            service.make_request(b"to-carol-2", 2, carol),
        ]
        self._route(service, requests)
        assert sorted(service.receive(0, 1, bob)) == [b"to-bob", b"to-bob-2"]
        assert sorted(service.receive(0, 2, carol)) == [b"to-carol", b"to-carol-2"]

    def test_recipient_cannot_open_others_calls(self):
        service = self._service(num_mailboxes=4)
        group = service.group
        bob = ElGamalKeyPair.generate(group)
        eve = ElGamalKeyPair.generate(group)
        requests = [service.make_request(b"secret", 1, bob) for _ in range(4)]
        self._route(service, requests)
        assert service.receive(0, 1, eve) == []

    def test_dummy_traffic_hides_call_volume(self):
        service = self._service(num_mailboxes=2, dummy_mu=2.0, dummy_scale=1.0)
        group = service.group
        bob = ElGamalKeyPair.generate(group)
        requests = [service.make_request(b"hi-bob", 0, bob)]
        self._route(service, requests + service.dummy_requests(0))
        # Bob's mailbox download contains dummies beyond the real call...
        downloaded = service.download(0, 0)
        assert len(downloaded) >= 1
        # ...but only the real call opens.
        assert service.receive(0, 0, bob) == [b"hi-bob"]

    def test_missing_round_raises(self):
        service = self._service(num_mailboxes=4)
        with pytest.raises(KeyError):
            service.download(5, 0)
