"""Durable-store overhead (the ``"wal_overhead"`` bench record).

The write-ahead log rides inside the round's hot path (node-side
intake journaling, per-layer commit + checkpoint records), so it must
be close to free next to the crypto: the same seeded P-256 round is
driven with a ``--state-dir`` store and with the no-op store, and both
timings, the absolute log size and the per-record append cost are
recorded for trajectory tracking.  No ratio is asserted: on a shared
box a ratio of two round timings measures the neighbours.
"""

import time

import pytest

from conftest import print_table, record_bench
from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.crypto.groups import DeterministicRng
from repro.store.segments import LogDir
from repro.store.wal import WriteAheadLog





def _build_config(state_dir=None):
    return DeploymentConfig(
        num_servers=6, num_groups=2, group_size=2, variant="trap",
        iterations=3, message_size=8, crypto_group="P256",
        state_dir=str(state_dir) if state_dir else None,
    )


def _run_round(state_dir=None) -> float:
    """The envelope-overhead benchmark's seeded round, trap variant
    (the store's worst case: trap pairs double the intake envelopes
    and the commitments ride along); returns its wall clock."""
    start = time.perf_counter()
    with AtomDeployment(_build_config(state_dir)) as dep:
        rng = DeterministicRng(b"wal-round")
        rnd = dep.start_round(0, rng=rng)
        client = Client(dep.group, DeterministicRng(b"wal-client"))
        for i in range(8):
            dep.submit_trap(rnd, b"m%d" % i, i % 2, client)
        dep.pad_round(rnd, DeterministicRng(b"wal-pad"))
        result = dep.run_round(rnd, DeterministicRng(b"wal-mix"))
        assert result.ok and len(result.messages) == 8
    return time.perf_counter() - start


@pytest.mark.slow
def test_wal_overhead(benchmark, tmp_path_factory):
    # Warm both paths (fixed-base tables, imports) before timing.
    _run_round()
    _run_round(tmp_path_factory.mktemp("warm"))

    def store_round():
        return _run_round(tmp_path_factory.mktemp("wal"))

    store_s = store_round()
    null_s = _run_round()
    ratio = store_s / null_s

    # Absolute log footprint + raw append cost of one durable round
    # (segmented layout: size and count come from the manifest scan).
    wal_dir = tmp_path_factory.mktemp("size")
    _run_round(wal_dir)
    scan = LogDir.scan_dir(wal_dir)
    wal_bytes = scan.disk_bytes
    records = len(scan.records)

    append_dir = tmp_path_factory.mktemp("append")
    wal = WriteAheadLog(append_dir / "a.wal", fsync_every=8)
    payload = b"x" * 512
    start = time.perf_counter()
    for _ in range(256):
        wal.append(1, payload)
    append_ms = (time.perf_counter() - start) / 256 * 1e3
    wal.close()

    benchmark.pedantic(store_round, rounds=1, iterations=1)

    print_table(
        "Durable-store overhead (seeded P-256 trap round)",
        ["metric", "value"],
        [
            ("no-op store round (s)", f"{null_s:.3f}"),
            ("durable store round (s)", f"{store_s:.3f}"),
            ("store / no-op", f"{ratio:.3f}x"),
            ("wal bytes per round", f"{wal_bytes:,}"),
            ("wal records per round", f"{records}"),
            ("append 512B record (ms)", f"{append_ms:.4f}"),
        ],
    )

    record_bench(
        {
            "wal_overhead": {
                "round_group": "P256",
                "variant": "trap",
                "null_round_s": round(null_s, 4),
                "store_round_s": round(store_s, 4),
                "overhead_ratio": round(ratio, 4),
                "wal_bytes_per_round": wal_bytes,
                "wal_records_per_round": records,
                "append_512B_ms": round(append_ms, 4),
                "fsync_every": 8,
            }
        }
    )
