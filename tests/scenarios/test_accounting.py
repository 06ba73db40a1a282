"""Batch-aware per-message accounting: senders, not ciphertexts.

``RoundStats.submitted`` must count *senders*, not ciphertexts — the
trap variant holds two ciphertexts per sender and the batch plane
stores them as one contiguous buffer — and ``dummies`` must report the
cover padding actually delivered.  Both must survive the journal's
ROUND_DONE table.
"""

import pytest

from repro.core import DeploymentConfig, FaultSchedule, StreamConfig, StreamEngine
from repro.crypto.groups import DeterministicRng
from repro.store.checkpoint import ROUND_DONE, RoundDone


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


def run_stream(faults="", users=3, rounds=3, **config_overrides):
    engine = StreamEngine(
        tiny_config(**config_overrides),
        FaultSchedule.parse(faults),
        StreamConfig(rounds=rounds, users_per_round=users, seed=b"acct"),
    )
    with engine:
        return engine.run()


class TestSubmittedAndDummies:
    def test_counts_senders_not_ciphertexts(self):
        # 3 users x 2 trap ciphertexts over 2 groups: holdings lengths
        # alone would say 4-vs-2; submitted must say 3.
        report = run_stream(users=3)
        assert report.ok
        for stats in report.rounds:
            assert stats.submitted == 3
            # uneven split (2 users on g0, 1 on g1) forces cover padding
            assert stats.dummies > 0

    def test_even_split_needs_no_dummies(self):
        report = run_stream(users=4)
        for stats in report.rounds:
            assert stats.submitted == 4
            assert stats.dummies == 0

    def test_retry_replaces_dummy_count(self):
        # A caught tamper retries the round: submitted stays the honest
        # sender count, dummies reflect the delivered attempt.
        report = run_stream(
            faults="r1:tamper-group:0:0:replace_one", users=3, rounds=3
        )
        caught = [s for s in report.rounds if s.attempts > 1]
        for stats in caught:
            assert stats.submitted == 3
            assert stats.dummies > 0
        for stats in report.rounds:
            assert stats.ok
            assert len(stats.messages) == 3


class TestCheckpointCodec:
    def _stats(self):
        report = run_stream(users=3, rounds=1)
        return report.rounds[0]

    def test_roundtrip_preserves_accounting(self):
        stats = self._stats()
        rng = DeterministicRng(b"codec")
        rng.randbytes(8)
        body = ROUND_DONE.encode(RoundDone(stats, rng.counter))
        decoded, counter = ROUND_DONE.decode(body, round_id=stats.round_id)
        assert decoded.submitted == stats.submitted
        assert decoded.dummies == stats.dummies
        assert counter == rng.counter
