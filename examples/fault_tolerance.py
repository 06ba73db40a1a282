#!/usr/bin/env python3
"""Fault tolerance and recovery (paper §4.5): many-trust groups survive
h-1 failures transparently; buddy groups recover from worse.

Run:  python examples/fault_tolerance.py
"""

from repro.core import AtomDeployment, DeploymentConfig
from repro.core.faults import BuddySystem
from repro.core.group import GroupStalled
from repro.core.server import AtomServer


def main() -> None:
    config = DeploymentConfig(
        num_servers=12,
        num_groups=2,
        group_size=4,
        variant="basic",
        mode="manytrust",
        h=2,                      # tolerate h-1 = 1 failure per group
        iterations=3,
        message_size=24,
        crypto_group="P256",
    )
    deployment = AtomDeployment(config)
    messages = [f"msg {i}".encode() for i in range(4)]

    # --- h-1 failures: the round proceeds with k-(h-1) members ----------
    rnd = deployment.start_round(0)
    print(f"groups of k={config.group_size}, threshold "
          f"k-(h-1)={rnd.contexts[0].threshold}")
    rnd.contexts[0].servers[0].fail()
    print("server failed in group 0 — within the h-1 budget")
    for i, m in enumerate(messages):
        deployment.submit_plain(rnd, m, entry_gid=i % 2)
    result = deployment.run_round(rnd)
    print(f"round 0: {'ok' if result.ok else 'aborted'} — "
          f"{len(result.messages)} messages delivered\n")

    # --- beyond h-1: buddy-group recovery --------------------------------
    rnd = deployment.start_round(1)
    buddies = BuddySystem(deployment.group)
    buddies.escrow(rnd.contexts[0], buddy=rnd.contexts[1])
    print("group 0's key shares escrowed with buddy group 1")

    for i, m in enumerate(messages):
        deployment.submit_plain(rnd, m, entry_gid=i % 2)
    for server in rnd.contexts[0].servers[:2]:
        server.fail()
    print("two servers failed in group 0 — exceeds h-1 = 1")
    try:
        rnd.contexts[0].participants()
    except GroupStalled as stalled:
        print(f"group stalled: {stalled}")

    replacements = [
        AtomServer(server_id=100 + i, group=deployment.group) for i in range(4)
    ]
    rnd.contexts[0] = buddies.recover(rnd.contexts[0], replacements)
    print("replacement group reconstructed the key from buddy escrow")
    result = deployment.run_round(rnd)
    print(f"round 1 after recovery: {'ok' if result.ok else 'aborted'} — "
          f"{len(result.messages)} messages delivered")
    assert sorted(result.messages) == sorted(messages)


if __name__ == "__main__":
    main()
