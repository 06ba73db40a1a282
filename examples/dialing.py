#!/usr/bin/env python3
"""The dialing application (paper §5), driven by the scenario engine:
a declarative all-dialing workload routes calls through Atom; each
recipient downloads their mailbox and opens the calls addressed to
their long-term key (derived, like everything else, from the scenario
seed).

Run:  python examples/dialing.py
"""

from repro.scenarios import ScenarioRunner, ScenarioSpec


def main() -> None:
    spec = ScenarioSpec.parse(
        {
            "name": "example-dialing",
            "rounds": 2,
            "seed": "example",
            "traffic": {
                "model": "constant",
                "users": 6,
                "rate": 4.0,
                "dialing_share": 1.0,  # every arrival is a call
            },
            "deployment": {
                "num_groups": 2,
                "group_size": 3,
                "variant": "trap",
                "iterations": 3,
                "message_size": 96,
                "crypto_group": "P256",
            },
            "dialing": {"mailboxes": 4},
        }
    )
    runner = ScenarioRunner(spec)
    metrics = runner.run()
    print("dialing scenario:", "ok" if metrics.ok else "ABORTED")
    print(f"  {metrics.total_arrivals} calls offered, "
          f"{metrics.total_delivered} delivered")

    for round_id in range(spec.rounds):
        print(f"\nround {round_id} mailboxes:")
        for user in range(spec.traffic.users):
            opened = runner.receive(round_id, user)
            if not opened:
                continue
            callers = ", ".join(token.decode() for token in opened)
            print(f"  user {user} was dialed by: {callers}")
            print(f"    -> can now derive a shared secret with "
                  f"{len(opened)} caller(s)")


if __name__ == "__main__":
    main()
