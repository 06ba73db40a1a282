"""Anonymous microblogging over Atom (paper §5).

Users broadcast fixed-size short messages (the paper evaluates 160-byte
"tweets"); the exit servers publish the anonymized plaintexts to a
public bulletin board that anyone can read.  The rounds themselves are
a stream's (:class:`~repro.scenarios.runner.ScenarioRunner` drives the
app over :class:`~repro.core.pipeline.StreamEngine`); this module holds
the client check and the board.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

#: The paper's microblogging message size (§5).
TWEET_BYTES = 160


def check_post(post: bytes, limit: int) -> bytes:
    """Client-side size validation (the scenario runner's workload
    builder checks every post with it)."""
    if len(post) > limit:
        raise ValueError(
            f"post of {len(post)} bytes exceeds the {limit}-byte limit"
        )
    return post


@dataclass
class BulletinBoard:
    """Public append-only board of anonymized posts, by round."""

    posts_by_round: dict = field(default_factory=dict)

    def publish(self, round_id: int, messages: Sequence[bytes]) -> None:
        self.posts_by_round.setdefault(round_id, []).extend(messages)

    def read(self, round_id: int) -> List[bytes]:
        return list(self.posts_by_round.get(round_id, []))

    def all_posts(self) -> List[bytes]:
        return [m for msgs in self.posts_by_round.values() for m in msgs]
