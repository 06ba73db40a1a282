"""Vuvuzela baseline (paper §6.2, Table 12).

Vuvuzela [72] chains all traffic through a *fixed* set of anytrust
servers: each server onion-decrypts, shuffles, adds Laplace-noise cover
traffic, and forwards.  Dialing deposits messages into invitation
mailboxes ("dead drops").  It scales only vertically — Table 12 runs it
on three c4.8xlarge boxes with 10 Gbps links, where a 1M-user dialing
round takes ~0.5 minutes.

:class:`VuvuzelaChain` implements the onion chain functionally (layered
ElGamal-KEM onions, per-hop shuffle, Laplace dummies).
:func:`vuvuzela_dial_latency_minutes` is the Table 12 anchor model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.elgamal import AtomElGamal, ElGamalKeyPair
from repro.crypto.groups import DeterministicRng, GroupBackend as Group
from repro.crypto.kem import Cca2Ciphertext, cca2_decrypt, cca2_encrypt

#: Table 12: Vuvuzela dials a million users in ~0.5 minutes.
PAPER_VUVUZELA_MILLION_MINUTES = 0.5


class VuvuzelaChain:
    """A 3-server anytrust onion chain with dialing mailboxes."""

    def __init__(
        self,
        group: Group,
        num_servers: int = 3,
        noise_mu: float = 0.0,
        rng: Optional[DeterministicRng] = None,
    ):
        self.group = group
        self.scheme = AtomElGamal(group)
        self.servers = [ElGamalKeyPair.generate(group, rng) for _ in range(num_servers)]
        self.noise_mu = noise_mu
        self.rng = rng

    def wrap(self, message: bytes) -> bytes:
        """Client-side onion: encrypt to the chain back-to-front."""
        onion = message
        for server in reversed(self.servers):
            onion = cca2_encrypt(self.group, server.public, onion, self.rng).to_bytes()
        return onion

    def run_round(self, onions: Sequence[bytes]) -> List[bytes]:
        """Each server peels a layer, injects noise, and shuffles."""
        import secrets as _secrets

        current = list(onions)
        for depth, server in enumerate(self.servers):
            peeled = []
            for onion in current:
                try:
                    layer = Cca2Ciphertext.from_bytes(self.group, onion)
                    peeled.append(cca2_decrypt(self.group, server.secret, layer))
                except Exception:
                    continue  # drop malformed (noise from previous hops)
            noise = self._noise_onions(depth)
            peeled.extend(noise)
            for i in range(len(peeled) - 1, 0, -1):
                j = (
                    self.rng.randint(0, i)
                    if self.rng is not None
                    else _secrets.randbelow(i + 1)
                )
                peeled[i], peeled[j] = peeled[j], peeled[i]
            current = peeled
        return current

    def _noise_onions(self, depth: int) -> List[bytes]:
        """Cover-traffic onions for the remaining hops."""
        if self.noise_mu <= 0:
            return []
        import secrets as _secrets

        count = max(0, round(self.noise_mu))
        noise = []
        for _ in range(count):
            body = b"\x00" + _secrets.token_bytes(15)
            onion = body
            for server in reversed(self.servers[depth + 1:]):
                onion = cca2_encrypt(self.group, server.public, onion).to_bytes()
            noise.append(onion)
        return noise

    def dial_round(
        self, requests: Sequence[Tuple[int, bytes]], num_mailboxes: int
    ) -> Dict[int, List[bytes]]:
        """Dialing: route (recipient, payload) pairs into dead drops.

        Real messages carry a 0x01 tag byte; noise onions (whose
        innermost plaintext starts with 0x00) are filtered out.
        """
        import struct

        onions = [
            self.wrap(b"\x01" + struct.pack(">Q", rid) + payload)
            for rid, payload in requests
        ]
        outputs = self.run_round(onions)
        mailboxes: Dict[int, List[bytes]] = {i: [] for i in range(num_mailboxes)}
        for message in outputs:
            if len(message) < 9 or message[0] != 1:
                continue  # noise
            (rid,) = struct.unpack(">Q", message[1:9])
            mailboxes[rid % num_mailboxes].append(message[9:])
        return mailboxes


def vuvuzela_dial_latency_minutes(num_users: int) -> float:
    """Table 12 model: linear scaling through the fixed 3-server chain,
    anchored at 1M users = 0.5 minutes (hybrid crypto on c4.8xlarge)."""
    if num_users < 0:
        raise ValueError("user count must be non-negative")
    return PAPER_VUVUZELA_MILLION_MINUTES * num_users / 1_000_000


#: §6.2: Vuvuzela servers need 166 MB/s; Atom servers less than 1 MB/s.
PAPER_VUVUZELA_SERVER_BANDWIDTH_MB_S = 166.0
