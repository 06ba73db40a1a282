"""The metric catalogue and the few statistics the benchmark reports.

``BENCHMARK.json`` at the repo root lists the same names, units,
directions and bounds (its schema has no room for the rest);
``test_bench.py`` holds the two in step.  ``moves`` is the prediction
written down before measuring: which end-to-end metric a per-layer
metric should move, and on which workload — everywhere not named the
prediction is *no change*.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    definition: str
    #: end-to-end only: share of the parent's median by which the
    #: metric may get worse before a change counts as a regression
    bound: Optional[float] = None
    #: per-layer only (the owning src/repro layer is the name's prefix):
    #: the (end-to-end metric, workloads) it should move
    moves: str = ""


#: Timings are taken at the run's quiet decile (``run.quiet``): the
#: nearest-rank 10th percentile of the per-round samples pooled over the
#: run's streams — the minimum, below eleven samples.  "Steady rounds"
#: are rounds 1..R-2 of a stream (``Workload.rounds``).
END_TO_END: List[Metric] = [
    Metric(
        "setup_s", "s", "lower",
        "stream child spawned -> first message_fn call: interpreter start, "
        "imports, FleetController.up() (fleet workload), StreamEngine "
        "construction, group formation, DVSS, trustees; median over the "
        "run's streams and two set-up-only children",
        bound=0.25,
    ),
    Metric(
        "msgs_per_s", "msg/s", "higher",
        "users per round / (on_round_settled(r-1) -> on_round_settled(r)) "
        "over the steady rounds, at the quiet decile",
        bound=0.25,
    ),
    Metric(
        "round_latency_s", "s", "lower",
        "first message_fn call for round r -> on_round_settled(r) over the "
        "steady rounds, at the quiet decile (the tail is the per-layer "
        "core.pipeline.round_latency_tail_s)",
        bound=0.25,
    ),
    Metric(
        "cpu_s_per_msg", "CPU-s/msg", "lower",
        "user+sys CPU of the stream child and its reaped descendants (the "
        "serve processes) over the whole stream / messages delivered in "
        "all rounds; quiet decile over the run's streams",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mib", "MiB", "lower",
        "ru_maxrss of the stream child (coordinator side); median over "
        "streams",
        bound=0.10,
    ),
]

_TRAP = "trap_p256_inproc, trap_p256_fleet2"
_P256 = "trap_p256_inproc, nizk_p256_inproc, trap_p256_fleet2"
_INPROC = "trap_p256_inproc, nizk_p256_inproc"
_STACK = "ctl_toy_tcp_wal, trap_p256_fleet2"
_CTL = "ctl_toy_tcp_wal"


def _layer(layer: str, rows: Sequence[Tuple[str, str, str, str, str]]) -> List[Metric]:
    return [
        Metric(f"{layer}.{name}", unit, better, definition, moves=moves)
        for name, unit, better, definition, moves in rows
    ]


PER_LAYER: List[Metric] = [
    *_layer("crypto", [
        ("exp_count_per_msg", "1/msg", "lower",
         "outermost g_pow / pow_cached / element ** calls (exact count)",
         f"msgs_per_s, cpu_s_per_msg on {_P256}"),
        ("multiexp_count_per_msg", "1/msg", "lower",
         "GroupBackend.multiexp calls (exact count)",
         "msgs_per_s on nizk_p256_inproc"),
        ("exp_s_per_msg", "s/msg", "lower",
         "time inside those exponentiation and multiexp calls",
         f"msgs_per_s, cpu_s_per_msg on {_P256}"),
        ("reencrypt_s_per_msg", "s/msg", "lower",
         "reencrypt_vector",
         f"msgs_per_s, cpu_s_per_msg on {_TRAP}"),
        ("rerandomize_s_per_msg", "s/msg", "lower",
         "rerandomize_vector / shuffle_vectors",
         f"msgs_per_s, cpu_s_per_msg on {_TRAP}"),
        ("shuffle_prove_s_per_msg", "s/msg", "lower",
         "prove_vector_shuffle", "msgs_per_s on nizk_p256_inproc"),
        ("shuffle_verify_s_per_msg", "s/msg", "lower",
         "verify_vector_shuffle", "msgs_per_s on nizk_p256_inproc"),
        ("reenc_proof_s_per_msg", "s/msg", "lower",
         "prove_reencryption + verify_reencryption (also under "
         "ReEncryptor.reencrypt_and_prove / verify_batch)",
         "msgs_per_s on nizk_p256_inproc"),
        ("enc_proof_prove_s_per_msg", "s/msg", "lower",
         "prove_encryption (client side of intake)",
         f"round_latency_s on {_P256}"),
        ("enc_proof_verify_s_per_msg", "s/msg", "lower",
         "verify_encryption (entry-group side of intake)",
         f"round_latency_s on {_P256}"),
        ("table_builds", "count", "lower",
         "fixed-base comb tables built over the whole traced stream, "
         "warm-up round included", "setup_s, core.pipeline.first_round_s"),
        ("self_share", "ratio", "higher",
         "self time of all crypto spans / self time of all spans",
         "largest share on the P-256 workloads, small on ctl_toy_tcp_wal"),
    ]),
    *_layer("core.client", [
        ("submit_build_s_per_msg", "s/msg", "lower",
         "Client.prepare_trap_pair / prepare_plain",
         f"round_latency_s on {_P256}"),
    ]),
    *_layer("core.group", [
        ("mix_s_per_msg", "s/msg", "lower",
         "GroupContext.mix / mix_batch / mix_with_reenc_proofs",
         f"msgs_per_s on {_CTL}, {_INPROC}"),
        ("mix_self_s_per_msg", "s/msg", "lower",
         "the same minus child spans: divide, permutation, container churn",
         f"msgs_per_s on {_CTL}"),
    ]),
    *_layer("core.batch", [
        ("codec_s_per_msg", "s/msg", "lower",
         "CiphertextBatch.vector / append / extend / from_vectors",
         f"msgs_per_s, peak_rss_mib on {_CTL}"),
        ("bytes_per_msg", "B/msg", "lower",
         "record bytes those calls appended to batch buffers",
         f"peak_rss_mib on {_CTL}"),
    ]),
    *_layer("core.protocol", [
        ("round_setup_s_per_round", "s/round", "lower",
         "AtomDeployment.start_round", f"msgs_per_s on {_CTL}"),
        ("pad_dummies_per_round", "1/round", "lower",
         "RoundStats.dummies; must be 0", "none: a sizing check"),
    ]),
    *_layer("core.pipeline", [
        ("intake_s_per_round", "s/round", "lower",
         "RoundStats.intake_s", "round_latency_s everywhere"),
        ("mix_s_per_round", "s/round", "lower",
         "RoundStats.pure_mix_s", "round_latency_s everywhere"),
        ("overlap_share", "ratio", "higher",
         "RoundStats.overlap_s / intake_s", "round_latency_s everywhere"),
        ("first_round_s", "s", "lower",
         "first message_fn call -> on_round_settled(0): the warm-up cost",
         "setup_s (work moved between the two shows here)"),
        ("round_latency_tail_s", "s", "lower",
         "round latency of the untraced reference streams at the highest "
         "percentile with >= 10 samples beyond it",
         f"round_latency_s on {_CTL}"),
        ("round_latency_tail_pct", "%", "higher",
         "which percentile that was (50 when no higher one qualifies)", "none"),
        ("self_share", "ratio", "lower",
         "self time of all core.* spans / self time of all spans",
         f"msgs_per_s on {_CTL}"),
    ]),
    *_layer("net.envelopes", [
        ("encode_s_per_msg", "s/msg", "lower", "Envelope.to_bytes",
         f"msgs_per_s on {_STACK}; zero calls on the inproc workloads"),
        ("decode_s_per_msg", "s/msg", "lower", "Envelope.from_bytes",
         f"msgs_per_s on {_STACK}; zero calls on the inproc workloads"),
        ("wire_bytes_per_msg", "B/msg", "lower",
         "bytes Envelope.to_bytes produced", f"msgs_per_s on {_STACK}"),
        ("count_per_round", "1/round", "lower",
         "Envelope.to_bytes calls", f"msgs_per_s on {_STACK}"),
    ]),
    *_layer("net.transport", [
        ("requests_per_round", "1/round", "lower",
         "outermost Transport.request calls in the coordinator process",
         f"msgs_per_s, round_latency_s on {_STACK}"),
        ("wait_s_per_round", "s/round", "lower",
         "time inside Transport.request not covered by a local handler, "
         "encode or decode span",
         f"msgs_per_s, round_latency_s on {_STACK}"),
        ("retries", "count", "lower",
         "inner requests beyond one per ResilientTransport.request; must "
         "be 0", "none: a health check"),
    ]),
    *_layer("net.coordinator", [
        ("layer_s_p50", "s", "lower", "median Coordinator.run_layer",
         f"msgs_per_s on {_STACK}"),
        ("exit_s_per_round", "s/round", "lower", "Coordinator.finish",
         f"msgs_per_s on {_STACK}"),
        ("self_s_per_round", "s/round", "lower",
         "Coordinator.run_layer / finish / submit minus child spans",
         f"msgs_per_s on {_STACK}"),
        ("busy_share", "ratio", "lower",
         "1 - share of the measured window the coordinator spent blocked "
         "in Transport.request; a busy coordinator caps scale-out",
         "msgs_per_s on trap_p256_fleet2"),
    ]),
    *_layer("net.nodes", [
        ("handle_self_s_per_msg", "s/msg", "lower",
         "ServerNode.handle / TrusteeNode.handle minus child spans",
         f"msgs_per_s on {_CTL}"),
        ("self_share", "ratio", "lower",
         "self time of all net.* spans / self time of all spans (waiting "
         "on another process is not work and is left out of both)",
         f"msgs_per_s on {_STACK}"),
    ]),
    *_layer("store", [
        ("appends_per_round", "1/round", "lower", "LogDir.append calls",
         f"msgs_per_s on {_STACK}; zero on the inproc workloads"),
        ("append_bytes_per_round", "B/round", "lower",
         "payload bytes passed to LogDir.append", f"msgs_per_s on {_STACK}"),
        ("fsyncs_per_round", "1/round", "lower", "WriteAheadLog.sync calls",
         f"msgs_per_s, round_latency_s on {_CTL}"),
        ("append_s_per_round", "s/round", "lower",
         "LogDir.append minus the fsyncs it triggers",
         f"msgs_per_s on {_CTL}"),
        ("sync_s_per_round", "s/round", "lower", "WriteAheadLog.sync",
         f"msgs_per_s, round_latency_s on {_CTL}"),
        ("checkpoint_s_per_round", "s/round", "lower",
         "DurableStore.layer_commit", f"msgs_per_s on {_CTL}"),
        ("compactions", "count", "lower",
         "Compactor.compact calls that rewrote segments", "none"),
        ("disk_bytes_end", "B", "lower",
         "bytes under the state dirs when the stream ends",
         "none: a footprint check"),
        ("self_share", "ratio", "lower",
         "self time of all store spans / self time of all spans",
         f"msgs_per_s on {_CTL}"),
    ]),
    *_layer("fleet", [
        ("up_s", "s", "lower", "FleetController.up() until ready",
         "setup_s on trap_p256_fleet2"),
        ("proc_cpu_s_per_msg", "CPU-s/msg", "lower",
         "user+sys CPU of the serve processes / messages in all rounds",
         "cpu_s_per_msg on trap_p256_fleet2"),
        ("proc_cpu_imbalance", "ratio", "lower",
         "max / mean CPU across serve processes",
         "msgs_per_s on trap_p256_fleet2"),
        ("proc_peak_rss_mib", "MiB", "lower",
         "largest ru_maxrss among the serve processes", "none"),
        ("relay_bytes_per_msg", "B/msg", "lower",
         "MIX_BATCH bytes the coordinator encodes, i.e. relays between "
         "processes", "msgs_per_s on trap_p256_fleet2"),
        ("scaleout_ratio", "ratio", "higher",
         "msgs_per_s(trap_p256_fleet2) / msgs_per_s(trap_p256_inproc), "
         "both untraced, same seed; 2.0 is the 2-core ceiling",
         "is msgs_per_s on trap_p256_fleet2 by definition"),
    ]),
    *_layer("trace", [
        ("overhead_ratio", "ratio", "higher",
         "msgs_per_s of the traced streams / msgs_per_s of the untraced "
         "reference streams of the same invocation", "none"),
        ("coverage", "ratio", "higher",
         "share of the measured window covered by the coordinator "
         "process's top-level spans", "none"),
        ("control_path_share", "ratio", "lower",
         "net.* + store.* + core.protocol.round_setup self time / self "
         "time of all spans", f"msgs_per_s on {_CTL}"),
    ]),
]


# -- statistics --------------------------------------------------------

def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it;
    the median only below 20 samples."""
    for pct, beyond_per_mille in ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)):
        if samples * beyond_per_mille >= 10 * 1000:
            return pct
    return 50.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported latency
    is one that a round really had)."""
    ordered = sorted(values)
    rank = math.ceil(round(len(ordered) * pct / 100.0, 6))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the rule the driver applies to ten seeded runs."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
