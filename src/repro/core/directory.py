"""Directory authority: server registry and group formation (§4.1, §4.7).

The directory knows the set of participating servers and their keys
(the paper assumes a fault-tolerant cluster of directory authorities,
as in Tor).  Each round it:

1. samples ``G`` groups of ``k`` servers (the deployment's
   ``group_size``; :mod:`repro.analysis.groups_math` gives the §4.1
   size for a malicious fraction ``f``) from the public randomness
   beacon, seeded by the deployment seed;
2. *staggers* member positions across groups (§4.7): server ``s``
   appearing in several groups occupies a different position in each,
   so that pipelined groups keep every server busy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.group import GroupContext
from repro.core.server import AtomServer
from repro.crypto.beacon import RandomnessBeacon
from repro.crypto.groups import DeterministicRng, Group


class Directory:
    """Registry of servers plus per-round group formation.

    ``config`` is the deployment's
    :class:`~repro.core.protocol.DeploymentConfig`: groups take its
    ``group_size``, ``mode``, ``h`` and ``nizk_rounds``, and the beacon
    its ``seed``.
    """

    def __init__(self, servers: Sequence[AtomServer], group: Group, config):
        if not servers:
            raise ValueError("directory needs at least one server")
        self.servers = list(servers)
        self.group = group
        self.config = config
        self.beacon = RandomnessBeacon(config.seed)

    def form_groups(
        self,
        round_id: int,
        num_groups: int,
        rng: Optional[DeterministicRng] = None,
    ) -> List[GroupContext]:
        """Sample and instantiate the round's groups (§4.1).

        Positions are staggered: group ``g``'s member list is rotated by
        ``g`` so a server serving in many groups holds a different rank
        in each (§4.7 "Ensuring maximal server utilization").
        """
        cfg = self.config
        k = cfg.group_size
        memberships = self.beacon.sample_groups(
            round_id, len(self.servers), num_groups, k
        )
        contexts = []
        for gid, member_ids in enumerate(memberships):
            rotation = gid % k
            ordered = member_ids[rotation:] + member_ids[:rotation]
            members = [self.servers[i] for i in ordered]
            contexts.append(
                GroupContext(
                    gid=gid,
                    servers=members,
                    group=self.group,
                    mode=cfg.mode,
                    h=cfg.h,
                    rng=rng,
                    nizk_rounds=cfg.nizk_rounds,
                )
            )
        return contexts

    def utilization_positions(self, contexts: Sequence[GroupContext]) -> List[List[int]]:
        """For analysis: position of each server in each group it joins."""
        positions: List[List[int]] = [[] for _ in self.servers]
        for ctx in contexts:
            for pos, server in enumerate(ctx.servers):
                positions[server.server_id].append(pos)
        return positions


def make_fleet(
    num_servers: int,
    group: Group,
    cores_distribution: Optional[Sequence[tuple]] = None,
) -> List[AtomServer]:
    """Build the paper's heterogeneous fleet (§6.2).

    Default mix: 80% 4-core, 10% 8-core, 5% 16-core, 5% 32-core, with
    the Tor-derived bandwidth mix (80% <100 Mbps, 10% 100–200, 5%
    200–300, 5% >300).
    """
    if cores_distribution is None:
        cores_distribution = [
            (0.80, 4, 100.0),
            (0.10, 8, 150.0),
            (0.05, 16, 250.0),
            (0.05, 32, 350.0),
        ]
    servers: List[AtomServer] = []
    boundaries = []
    acc = 0.0
    for fraction, cores, bw in cores_distribution:
        acc += fraction
        boundaries.append((acc, cores, bw))
    for sid in range(num_servers):
        u = (sid + 0.5) / num_servers
        for bound, cores, bw in boundaries:
            if u <= bound + 1e-9:
                servers.append(
                    AtomServer(server_id=sid, group=group, cores=cores, bandwidth_mbps=bw)
                )
                break
        else:
            last = cores_distribution[-1]
            servers.append(
                AtomServer(server_id=sid, group=group, cores=last[1], bandwidth_mbps=last[2])
            )
    return servers
