"""Atom server identity and state.

A server has a long-term identity key (its directory entry), hardware
attributes used by the performance model (cores, bandwidth — the §6.2
heterogeneous fleet), a fail-stop flag for churn experiments, and an
optional :class:`Behavior` policy for active-adversary experiments.

Per-round, per-group *mixing* keys are generated fresh each round
(§4.4: "the group keys change across rounds") and live in the
:class:`~repro.core.group.GroupContext`, not here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.elgamal import ElGamalKeyPair
from repro.crypto.groups import Group


class Behavior(enum.Enum):
    """Adversary policies for experiments (paper §4.3, §4.4, §7)."""

    HONEST = "honest"
    #: drop one ciphertext during mixing (trap variant: caught w.p. 1/2)
    DROP_ONE = "drop_one"
    #: replace one ciphertext with a fresh encryption of attacker text
    REPLACE_ONE = "replace_one"
    #: duplicate one ciphertext (caught by explicit duplicate checks)
    DUPLICATE_ONE = "duplicate_one"
    #: permute dishonestly but claim otherwise (NIZK variant: proof fails)
    BAD_SHUFFLE = "bad_shuffle"


@dataclass
class AtomServer:
    """One volunteer server in the deployment."""

    server_id: int
    group: Group
    identity: ElGamalKeyPair = None
    cores: int = 4
    bandwidth_mbps: float = 100.0
    failed: bool = False
    behavior: Behavior = Behavior.HONEST
    #: how many tamperings a malicious server attempts per round
    tamper_budget: int = 1

    def __post_init__(self) -> None:
        if self.identity is None:
            self.identity = ElGamalKeyPair.generate(self.group)

    @property
    def is_malicious(self) -> bool:
        return self.behavior is not Behavior.HONEST

    def fail(self) -> None:
        """Fail-stop: the server stops responding (churn, §4.5)."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    def __repr__(self) -> str:
        flags = []
        if self.failed:
            flags.append("failed")
        if self.is_malicious:
            flags.append(self.behavior.value)
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"AtomServer({self.server_id}, {self.cores}c, {self.bandwidth_mbps}Mbps{suffix})"
