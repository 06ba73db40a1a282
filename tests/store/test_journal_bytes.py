"""The bytes a seeded stream journals repeat exactly, round by round.

Every journal body is a fixed codec table (timing floats are ``f64``,
not text), and the round id lives in the frame, so two runs of the same
seeded stream append the same number of payload bytes for every round.
The per-round budget below is pinned: a change to any record layout or
to what a round journals moves it, and must re-record it here.
"""

from collections import Counter
from unittest import mock

from repro.core import DeploymentConfig, StreamConfig, StreamEngine
from repro.store.segments import LogDir
from repro.store.wal import NO_ROUND

#: payload bytes passed to ``LogDir.append`` per frame round id
#: (``NO_ROUND``: META, STREAM_BEGIN and the CLEAN marker; 141 since
#: journal version 4 dropped META's f64 adversarial fraction, three u32
#: knobs and its group size's presence byte, and STREAM_BEGIN's two
#: bools, 164 - 8 - 12 - 1 - 2)
BUDGET = {0: 7052, 1: 7052, 2: 7052, NO_ROUND: 141}


def _journaled_bytes(state_dir) -> dict:
    per_round = Counter()
    append = LogDir.append

    def counting(self, rtype, payload, round_id=NO_ROUND):
        per_round[round_id] += len(payload)
        return append(self, rtype, payload, round_id)

    config = DeploymentConfig(
        num_servers=6, num_groups=2, group_size=2, variant="trap",
        iterations=3, message_size=8, crypto_group="TOY", nizk_rounds=4,
        seed=b"journal-bytes", state_dir=str(state_dir),
    )
    stream = StreamConfig(rounds=3, users_per_round=4, seed=b"journal-bytes")
    with mock.patch.object(LogDir, "append", counting):
        report = StreamEngine(config, stream=stream).run()
    assert report.ok and len(report.rounds) == 3
    return dict(per_round)


def test_bytes_journaled_per_round_repeat_exactly(tmp_path):
    first = _journaled_bytes(tmp_path / "a")
    second = _journaled_bytes(tmp_path / "b")
    assert first == second
    assert first == BUDGET
