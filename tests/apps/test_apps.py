"""Tests for the microblogging and dialing applications.

The rounds run as one-round streams: posts and dial requests enter
through the engine's ``arrivals_fn`` (the scenario runner's workload
hook), and the delivered messages go to the board and the mailboxes.
"""

import pytest

from repro.apps.dialing import (
    DialRequest,
    fill_mailboxes,
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
from repro.crypto.groups import get_group


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


class TestDialing:
    """A caller seals with ``seal_dial``, a round delivers the requests,
    the exit places them with ``fill_mailboxes``, and a recipient tries
    ``open_dial`` on every entry of their mailbox."""

    num_mailboxes = 4

    def _request(self, sender, recipient_id, recipient_key):
        sealed = seal_dial(get_group("TOY"), sender, recipient_key)
        return DialRequest(recipient_id=recipient_id, sealed=sealed)

    def _route(self, requests):
        """One round of dial requests; the exit fills the mailboxes."""
        # message_size must cover 8B recipient id + the sealed box
        # (group element + AEAD nonce/tag) — 96 bytes is ample for TOY.
        stats = one_round(
            tiny_config(message_size=96), [r.to_bytes() for r in requests]
        )
        assert stats.ok
        return fill_mailboxes(stats.messages, self.num_mailboxes)

    def _receive(self, boxes, recipient_id, recipient_key):
        opened = []
        for sealed in boxes[recipient_id % self.num_mailboxes].entries:
            try:
                opened.append(open_dial(get_group("TOY"), recipient_key, sealed))
            except ValueError:
                continue  # someone else's call
        return opened

    def test_dial_end_to_end(self):
        group = get_group("TOY")
        bob = ElGamalKeyPair.generate(group)
        alice_pub = b"alice-pk"
        requests = [self._request(alice_pub, recipient_id=1, recipient_key=bob)]
        # pad round with unrelated calls
        carol = ElGamalKeyPair.generate(group)
        for i in range(3):
            requests.append(self._request(b"dave-pk%d" % i, 2, carol))
        boxes = self._route(requests)
        assert self._receive(boxes, 1, bob) == [alice_pub]

    def test_mailbox_separation(self):
        group = get_group("TOY")
        bob = ElGamalKeyPair.generate(group)
        carol = ElGamalKeyPair.generate(group)
        requests = [
            self._request(b"to-bob", 1, bob),
            self._request(b"to-carol", 2, carol),
            self._request(b"to-bob-2", 1, bob),
            self._request(b"to-carol-2", 2, carol),
        ]
        boxes = self._route(requests)
        assert sorted(self._receive(boxes, 1, bob)) == [b"to-bob", b"to-bob-2"]
        assert sorted(self._receive(boxes, 2, carol)) == [
            b"to-carol", b"to-carol-2",
        ]

    def test_recipient_cannot_open_others_calls(self):
        group = get_group("TOY")
        bob = ElGamalKeyPair.generate(group)
        eve = ElGamalKeyPair.generate(group)
        requests = [self._request(b"secret", 1, bob) for _ in range(4)]
        boxes = self._route(requests)
        assert self._receive(boxes, 1, eve) == []
