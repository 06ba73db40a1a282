"""Resilience-layer overhead (the ``"rpc_overhead"`` bench record).

The ResilientTransport wrapper sits on every RPC of every round —
stamping request IDs, picking per-kind deadlines, and (node-side)
consulting the dedup cache — so on the in-process fast path it should
be noise next to the crypto.  Every deployment runs behind it, so the
seeded P-256 round is timed as deployed, and the wrapper's own cost is
measured per request against a transport that absorbs requests
instantly.  Both are recorded for trajectory tracking; no ratio is
asserted.
"""

import time

import pytest

from conftest import print_table, record_bench
from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.crypto.groups import DeterministicRng
from repro.net.envelopes import COORDINATOR, CommitLayer, wrap
from repro.net.resilience import ResilientTransport, RpcPolicy
from repro.net.transport import Transport





def _build_config():
    return DeploymentConfig(
        num_servers=6, num_groups=2, group_size=2, variant="trap",
        iterations=3, message_size=8, crypto_group="P256",
    )


def _run_round() -> float:
    """The wal-overhead benchmark's seeded round, trap variant (the
    chattiest intake: trap pairs double the envelopes the wrapper must
    stamp and the nodes must dedup-check); returns its wall clock."""
    start = time.perf_counter()
    with AtomDeployment(_build_config()) as dep:
        rng = DeterministicRng(b"rpc-round")
        rnd = dep.start_round(0, rng=rng)
        client = Client(dep.group, DeterministicRng(b"rpc-client"))
        for i in range(8):
            dep.submit_trap(rnd, b"m%d" % i, i % 2, client)
        dep.pad_round(rnd, DeterministicRng(b"rpc-pad"))
        result = dep.run_round(rnd, DeterministicRng(b"rpc-mix"))
        assert result.ok and len(result.messages) == 8
    return time.perf_counter() - start


class _SinkTransport(Transport):
    """Absorbs requests instantly: isolates the wrapper's own cost."""

    name = "sink"

    def register(self, round_id, node_id, node):
        pass

    def unregister_round(self, round_id):
        pass

    def request(self, env, timeout=None):
        return []


@pytest.mark.slow
def test_rpc_overhead(benchmark):
    # Warm up (fixed-base tables, imports) before timing.
    _run_round()
    rpc_s = _run_round()

    # Raw wrapper cost per request on the success path (no retries).
    wrapped = ResilientTransport(
        _SinkTransport(), RpcPolicy.default(), seed=b"rpc-bench"
    )
    env = wrap(CommitLayer(layer=0), 0, COORDINATOR, 0)
    start = time.perf_counter()
    for _ in range(4096):
        env.req_id = 0  # fresh stamp every pass, like a real send
        wrapped.request(env)
    wrap_us = (time.perf_counter() - start) / 4096 * 1e6

    benchmark.pedantic(_run_round, rounds=1, iterations=1)

    print_table(
        "Resilience-layer overhead (seeded P-256 trap round, in-process)",
        ["metric", "value"],
        [
            ("resilient round (s)", f"{rpc_s:.3f}"),
            ("wrapper cost per request (us)", f"{wrap_us:.2f}"),
        ],
    )

    record_bench(
        {
            "rpc_overhead": {
                "round_group": "P256",
                "variant": "trap",
                "resilient_round_s": round(rpc_s, 4),
                "wrapper_request_us": round(wrap_us, 2),
            }
        }
    )
