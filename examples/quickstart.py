#!/usr/bin/env python3
"""Quickstart: run one full Atom round in-process.

Builds a small deployment (2 anytrust groups of 3 servers, square
topology, trap variant — the configuration the paper evaluates), routes
eight messages through T mixing iterations, and prints the anonymized
output.  A second act kills a durable one-round stream after its
first layer commit and resumes it from the sharded write-ahead log —
showing the segmented layout rotating and compacting so disk stays
bounded.  A third act runs a round under a chaotic network (dropped and delayed
RPCs) and shows the resilience layer keeping the output identical.

Run:  python examples/quickstart.py
"""

import shutil
import tempfile

from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.crypto.groups import DeterministicRng


def main() -> None:
    config = DeploymentConfig(
        num_servers=8,
        num_groups=2,
        group_size=3,
        variant="trap",       # trap-based active-attack defense (§4.4)
        iterations=4,         # mixing iterations T (paper uses 10 at scale)
        message_size=24,
        crypto_group="P256",  # the paper's NIST curve
    )
    with AtomDeployment(config) as deployment:
        print(f"deployment: {config.num_groups} groups of {config.group_size} "
              f"servers, {config.iterations} mixing iterations, {config.variant} variant")
        print(f"payload: {deployment.spec.payload_size} bytes "
              f"({deployment.spec.elements_per_message} group elements/message)\n")

        rnd = deployment.start_round(round_id=0)
        messages = [f"anonymous message #{i}".encode() for i in range(8)]
        for index, message in enumerate(messages):
            user = deployment.submit_trap(rnd, message, entry_gid=index % 2)
            print(f"user {user} -> entry group {index % 2}: {message.decode()}")

        result = deployment.run_round(rnd)

    print(f"\nround {'SUCCEEDED' if result.ok else 'ABORTED: ' + result.abort_reason}")
    print(f"traps checked: {result.num_traps_checked}, "
          f"bytes moved: {result.bytes_sent_total:,}")
    print("\nanonymized output (order is the mixed permutation):")
    for message in result.messages:
        print(f"  {message.decode()}")

    assert sorted(result.messages) == sorted(messages), "correctness violated!"
    print("\nall submitted messages delivered — correctness holds (§2.2)")

    kill_and_resume()
    chaos_round()


def kill_and_resume() -> None:
    """Durability demo: die after the first layer commit, come back.

    With a ``state_dir``, every accepted submission and every committed
    mixing layer lands in a write-ahead log — sharded across rotating
    segment files (``wal-<seq>.seg`` + an atomic ``wal.manifest``), so
    a long-lived journal stays bounded instead of growing forever.  We
    run a seeded one-round stream (what ``repro round --state-dir``
    runs) with a deliberately tiny rotation threshold, 'kill' it right
    after layer 1 commits (the log keeps only what was journaled), then
    let :class:`~repro.store.recovery.RecoveryManager` rebuild the
    deployment and re-enter mixing at the committed layer.  The resumed
    round delivers what the uninterrupted round would have — and a
    safe-point compaction afterwards shrinks the settled history down
    to O(state).
    """
    from repro.core import StreamConfig, StreamEngine
    from repro.store.compact import compact_state_dir
    from repro.store.recovery import RecoveryManager
    from repro.store.segments import LogDir
    from repro.store.store import DurableStore

    class Killed(Exception):
        """Stands in for kill -9 right after a layer commit."""

    state_dir = tempfile.mkdtemp(prefix="atom-quickstart-")
    config = DeploymentConfig(
        num_servers=8, num_groups=2, group_size=3, variant="trap",
        iterations=4, message_size=24, crypto_group="P256",
        state_dir=state_dir,
        wal_segment_records=8,   # rotate every 8 records (default: 8 MiB)
    )
    print("\n--- kill and resume ---")
    messages = [f"durable message #{i}".encode() for i in range(8)]
    engine = StreamEngine(
        config,
        stream=StreamConfig(rounds=1, users_per_round=len(messages),
                            seed=b"quickstart"),
        message_fn=lambda r, i: messages[i],
    )
    commit = DurableStore.layer_commit

    def kill_after_layer_1(store, round_id, layer, *rest):
        commit(store, round_id, layer, *rest)
        if layer == 1:
            raise Killed

    DurableStore.layer_commit = kill_after_layer_1
    try:
        engine.run()
    except Killed:
        pass  # no clean-shutdown marker: the state dir is resumable
    finally:
        DurableStore.layer_commit = commit
    scan = LogDir.scan_dir(state_dir)
    print(f"crashed after 1/{config.iterations} layer commits; "
          f"state dir: {state_dir}")
    print(f"journal: {len(scan.records)} records across "
          f"{len(scan.segments_read)} segments, {scan.disk_bytes:,} bytes")

    manager = RecoveryManager(state_dir)
    print(f"recovery sees: {manager.describe()}")
    (stats,) = manager.resume_stream().rounds

    print(f"resumed round {'SUCCEEDED' if stats.ok else 'ABORTED'}; "
          f"{len(stats.messages)} messages delivered")
    assert sorted(stats.messages) == sorted(messages), "messages lost!"

    compaction = compact_state_dir(state_dir)
    print(f"compaction: dropped {compaction.dropped}/{compaction.examined} "
          f"settled records, {compaction.bytes_before:,} -> "
          f"{compaction.bytes_after:,} bytes")
    print("all messages survived the crash — durability holds, "
          "disk stays bounded")
    shutil.rmtree(state_dir)


def chaos_round() -> None:
    """Resilience demo: the same round on a hostile network.

    ``net_faults`` (CLI ``--net-faults``) injects seed-deterministic
    faults below the RPC retry layer: here 5% of requests are dropped
    outright, 10% are delayed 2 ms, and 1% are delivered twice.  The
    retry loop re-sends dropped requests and request-ID dedup makes the
    duplicates apply exactly once, so the delivered output matches the
    calm-network run exactly.
    """
    print("\n--- chaos round ---")

    def run(net_faults=None):
        config = DeploymentConfig(
            num_servers=8, num_groups=2, group_size=3, variant="trap",
            iterations=4, message_size=24, crypto_group="P256",
            net_faults=net_faults,
        )
        with AtomDeployment(config) as deployment:
            rng = DeterministicRng(b"quickstart-setup")
            rnd = deployment.start_round(round_id=0, rng=rng)
            client = Client(deployment.group, rng)
            for i in range(8):
                deployment.submit_trap(
                    rnd, f"chaotic message #{i}".encode(), entry_gid=i % 2,
                    client=client,
                )
            return deployment.run_round(rnd, DeterministicRng(b"quickstart-mix"))

    plan = "*:drop:5%;*:delay:2:10%;*:dup:1%"
    calm = run()
    stormy = run(net_faults=plan)
    print(f"chaos plan: {plan}")
    print(f"stormy round {'SUCCEEDED' if stormy.ok else 'ABORTED'}")
    assert stormy.ok and stormy.messages == calm.messages
    print("delivered output identical to the calm network — "
          "retries + idempotent delivery hold")


if __name__ == "__main__":
    main()
