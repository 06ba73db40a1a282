#!/usr/bin/env python3
"""Anonymous microblogging (paper §5), driven by the scenario engine:
a steady declarative workload posts to the public bulletin board, then
a "Black Friday" spike scenario shows an actively malicious server
being caught by the traps mid-surge — the round retries and every post
still comes out.

Run:  python examples/microblogging.py
"""

from repro.scenarios import ScenarioRunner, ScenarioSpec, load_scenario


def main() -> None:
    # --- a steady honest workload, declared not hand-rolled -------------
    spec = ScenarioSpec.parse(
        {
            "name": "example-steady",
            "rounds": 3,
            "seed": "example",
            "traffic": {"model": "constant", "users": 6, "rate": 4.0},
            "deployment": {
                "num_groups": 2,
                "group_size": 3,
                "variant": "trap",
                "iterations": 3,
                "message_size": 40,
                "crypto_group": "P256",
            },
        }
    )
    runner = ScenarioRunner(spec)
    metrics = runner.run()  # conservation-checked
    print("steady scenario:", "ok" if metrics.ok else "ABORTED")
    for round_id in range(spec.rounds):
        for post in runner.board.read(round_id):
            print(f"  board r{round_id}:", post.decode())

    # --- the bundled tamper scenario ------------------------------------
    print("\nblack-friday-tamper-churn (bundled): a server tampers during "
          "the spike round")
    bf = ScenarioRunner(load_scenario("black-friday-tamper-churn"))
    report = bf.run()
    print(report.format_table())
    caught = report.total_trap_catches
    healed = report.total_delivered == report.total_arrivals
    print(f"\ntamper attempts caught by traps: {caught} "
          f"(~50% per attempt; the round then blames, rekeys, retries)")
    print(f"healed delivery: {healed} — every arrival still reached the "
          f"board or a mailbox")
    print(f"churn: {report.total_churned} users left mid-scenario, "
          f"{report.total_rejoined} were reabsorbed")


if __name__ == "__main__":
    main()
