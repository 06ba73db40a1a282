"""The four workloads and their seeded message generator.

Load model (all workloads): closed loop, one generator.  The
single-threaded stream child calls ``StreamEngine.run()``; the engine
asks ``message_fn`` for round r+1's messages when round r starts
mixing, so a slow system receives less load.  The deployment shape is
the same everywhere — 4 groups x 3 servers, 4 iterations, square
topology, anytrust, nizk_rounds=6, batch data plane, resilience on, no
faults — and ``rounds x users`` is fixed per workload, so per-message
and per-round numbers stay comparable between runs.  A run is
``streams`` such streams, each in a fresh process: sized to take the
benchmark's nominal 24 s on a 2-core box, and scaled by ``--seconds``.

Sizing constraints (respected here, not fixed): users per round must be
a multiple of ``AtomDeployment.required_user_multiple()`` (16 for
basic/nizk, 8 for trap at this shape) or dummies pad the round, and
``basic`` with ``message_size < 13`` crashes in ``pad_round``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variant: str
    crypto_group: str
    message_size: int
    #: "inproc" | "tcp" | "fleet" (2 ``repro serve`` processes)
    transport: str
    #: WAL + checkpoints under a state dir (always on for the fleet)
    durable: bool
    users: int
    #: per stream.  Round 0 is warm-up (table promotion, lazy imports) and the last
    #: round has no next round's intake riding in its mix window, so
    #: rounds 1..R-2 are the steady-state ones the timings sample.
    rounds: int
    #: streams per nominal run: a fixed count, so that every run does
    #: the same work however fast the box is at that minute
    streams: int

    def deployment_config(self, seed: str, state_dir: Optional[str]):
        from repro.core import DeploymentConfig

        return DeploymentConfig(
            num_servers=12,
            num_groups=4,
            group_size=3,
            variant=self.variant,
            mode="anytrust",
            iterations=4,
            message_size=self.message_size,
            crypto_group=self.crypto_group,
            topology="square",
            nizk_rounds=6,
            seed=f"{seed}/deployment".encode(),
            transport="tcp" if self.transport == "tcp" else "inproc",
            data_plane="batch",
            state_dir=state_dir if self.durable else None,
            resilience=True,
        )

    def stream_config(self, seed: str):
        from repro.core import StreamConfig

        return StreamConfig(
            rounds=self.rounds,
            users_per_round=self.users,
            seed=f"{seed}/stream".encode(),
        )

    def messages(self, seed: str) -> List[List[bytes]]:
        """Every message of the stream, by round: a pure function of
        the seed, shared by workloads of equal size and shape (so
        ``trap_p256_fleet2`` carries ``trap_p256_inproc``'s stream)."""
        return [
            [message(seed, self.message_size, r, u) for u in range(self.users)]
            for r in range(self.rounds)
        ]


def message(seed: str, size: int, round_id: int, user: int) -> bytes:
    digest = hashlib.sha256(f"{seed}/msg/{round_id}/{user}".encode()).digest()
    return digest[:size]


def payload_digest(rounds: List[List[bytes]]) -> str:
    """sha256 over the sorted payloads of each round, in round order."""
    h = hashlib.sha256()
    for payloads in rounds:
        h.update(len(payloads).to_bytes(4, "big"))
        for payload in sorted(payloads):
            h.update(len(payload).to_bytes(4, "big") + payload)
    return h.hexdigest()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "trap_p256_inproc",
            "Recommended variant on the paper's curve with only protocol work: "
            "P-256 scalar mults dominate; crypto changes must show here, stack "
            "changes must not.",
            variant="trap", crypto_group="P256", message_size=32,
            transport="inproc", durable=False, users=8, rounds=6, streams=1,
        ),
        Workload(
            "nizk_p256_inproc",
            "Same crypto layer used differently: shuffle-proof prove/verify and "
            "ReEnc proofs dominate, so a gain for one use that costs the other "
            "shows.",
            # 24 bytes: the largest message whose payload is one P-256
            # element, which keeps a 16-user round under 10 s
            variant="nizk", crypto_group="P256", message_size=24,
            transport="inproc", durable=False, users=16, rounds=3, streams=1,
        ),
        Workload(
            "trap_p256_fleet2",
            "trap_p256_inproc's identical stream over 2 repro serve processes "
            "with WALs: fleet, envelopes, transport and the MIX_BATCH relay do "
            "real work only here.",
            variant="trap", crypto_group="P256", message_size=32,
            transport="fleet", durable=True, users=8, rounds=6, streams=1,
        ),
        Workload(
            "ctl_toy_tcp_wal",
            "Smallest rounds: crypto is cheap, so per-round envelopes, loopback "
            "RPCs, WAL fsyncs and checkpoints dominate; the only workload with "
            "enough rounds for a tail.",
            variant="basic", crypto_group="TOY", message_size=16,
            transport="tcp", durable=True, users=16, rounds=55, streams=5,
        ),
    )
}
