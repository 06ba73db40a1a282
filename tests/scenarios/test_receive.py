"""``ScenarioRunner.receive``: a recipient opens only their own calls.

Every way ``open_dial`` fails on an entry that is not the recipient's
is a ``ValueError`` (a short AEAD box, a point off the curve, a failed
tag), so ``receive`` skips exactly those and lets anything else raise.
"""

import pytest

from repro.apps.dialing import seal_dial
from repro.crypto.elgamal import ElGamalKeyPair
from repro.crypto.groups import DeterministicRng
from repro.scenarios import ScenarioRunner, ScenarioSpec


def all_dialing(group):
    return ScenarioSpec.parse(
        {
            "name": "receive",
            "rounds": 1,
            "seed": "receive",
            "traffic": {
                "model": "constant", "users": 4, "rate": 4.0,
                "dialing_share": 1.0,
            },
            "deployment": {
                "num_groups": 2, "group_size": 2, "iterations": 2,
                "message_size": 96, "crypto_group": group,
            },
            "dialing": {"mailboxes": 2},
        }
    )


@pytest.mark.parametrize("group", ["TOY", "P256"])
def test_truncated_and_foreign_entries_are_skipped(group):
    runner = ScenarioRunner(all_dialing(group))
    assert runner.run().ok
    users = range(runner.traffic.users)
    user = next(u for u in users if runner.receive(0, u))
    own = runner.receive(0, user)

    stranger = ElGamalKeyPair.generate(
        runner.engine.deployment.group, DeterministicRng(b"stranger")
    )
    foreign = seal_dial(
        runner.engine.deployment.group, b"not-for-you", stranger,
        DeterministicRng(b"foreign"),
    )
    mailbox = runner.mailboxes[0][user % runner.num_mailboxes]
    mailbox.entries[:0] = [foreign[:5], foreign, b""]

    assert runner.receive(0, user) == own
    assert all(token.startswith(b"u") and b"@r0" in token for token in own)
