"""Which public functions of ``src/repro`` a traced run wraps, layer by
layer, and how their spans become the per-layer metrics.

Span names start with the owning layer (``crypto.``, ``core.``,
``net.``, ``store.``, ``fleet.``), so a layer's share is a prefix sum.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Set, Tuple

from bench.trace import (
    END, NAME, PARENT, ROUND, START, VALUE, Span, Tracer, covered, outermost,
    self_times,
)

#: self time spent blocked, not working — on another OS process, or (a
#: serve process answering MIX_COLLECT) on its own mix pool thread, whose
#: work is a span of its own: reported as waiting, left out of shares
POOL_WAIT = "net.nodes.handle:MIX_COLLECT"
NET_WAIT = ("net.transport.request:FleetTransport", POOL_WAIT)
WAIT = NET_WAIT + ("fleet.",)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary; ``tracer.uninstall()`` undoes it."""
    from repro.core import batch, client, group, protocol
    from repro.crypto import ec, fastexp, groups, nizk, vector
    from repro.fleet import transport as fleet_transport
    from repro.net import coordinator, envelopes, nodes, resilience, transport
    from repro.store import compact, segments, store, wal

    def env_round(args, kwargs):  # (self, env, ...)
        return args[1].round_id

    def self_round(args, kwargs):  # coordinators, envelopes
        return args[0].round_id

    def rnd_round(args, kwargs):  # (deployment, rnd, ...)
        return args[1].round_id

    def int_round(args, kwargs):  # (self, round_id, ...)
        return kwargs.get("round_id", args[1] if len(args) > 1 else 0)

    method, function = tracer.patch_method, tracer.patch_function

    # crypto: primitives, then the vector and proof operations over them
    method(groups.GroupBackend, "g_pow", "crypto.exp")
    method(groups.GroupBackend, "pow_cached", "crypto.exp")
    method(groups.GroupElement, "__pow__", "crypto.exp")
    method(ec.EcPoint, "__pow__", "crypto.exp")
    method(groups.Group, "multiexp", "crypto.multiexp")
    method(ec.EcGroup, "multiexp", "crypto.multiexp")
    method(fastexp.FixedBaseComb, "__init__", "crypto.table_build")
    function(vector, "reencrypt_vector", "crypto.reencrypt")
    function(vector, "rerandomize_vector", "crypto.rerandomize")
    function(vector, "shuffle_vectors", "crypto.rerandomize")
    function(vector, "prove_vector_shuffle", "crypto.shuffle_prove")
    function(vector, "verify_vector_shuffle", "crypto.shuffle_verify")
    function(nizk, "prove_reencryption", "crypto.reenc_proof")
    function(nizk, "verify_reencryption", "crypto.reenc_proof")
    method(nizk.ReEncryptor, "reencrypt_and_prove", "crypto.reenc_proof")
    method(nizk.ReEncryptor, "verify_batch", "crypto.reenc_proof")
    function(nizk, "prove_encryption", "crypto.enc_proof_prove")
    function(nizk, "verify_encryption", "crypto.enc_proof_verify")

    # core
    method(client.Client, "prepare_trap_pair", "core.client.submit_build")
    method(client.Client, "prepare_plain", "core.client.submit_build")
    for attr in ("mix", "mix_batch", "mix_with_reenc_proofs"):
        method(group.GroupContext, attr, "core.group.mix")
    method(batch.CiphertextBatch, "vector", "core.batch.codec")
    method(batch.CiphertextBatch, "append", "core.batch.codec",
           value_of=lambda args, result: args[1].size_bytes)
    method(batch.CiphertextBatch, "extend", "core.batch.codec",
           value_of=lambda args, result: getattr(args[1], "nbytes", 0))
    method(batch.CiphertextBatch, "from_vectors", "core.batch.codec")
    method(protocol.AtomDeployment, "start_round", "core.protocol.round_setup",
           round_of=int_round)
    method(protocol.AtomDeployment, "submit_trap", "core.protocol.submit",
           round_of=rnd_round)
    method(protocol.AtomDeployment, "submit_plain", "core.protocol.submit",
           round_of=rnd_round)
    method(protocol.AtomDeployment, "pad_round", "core.protocol.pad",
           round_of=rnd_round)

    # net
    method(envelopes.Envelope, "to_bytes", "net.envelopes.encode",
           round_of=self_round, value_of=lambda args, result: len(result),
           label_of=lambda args: ":" + args[0].kind.name)
    method(envelopes.Envelope, "from_bytes", "net.envelopes.decode",
           value_of=lambda args, result: len(args[1]))
    for cls in (
        transport.InProcessTransport, transport.TcpTransport,
        resilience.ResilientTransport, fleet_transport.FleetTransport,
    ):
        method(cls, "request", "net.transport.request", round_of=env_round,
               label_of=lambda args: ":" + type(args[0]).__name__,
               is_request=True)
    method(coordinator.Coordinator, "run_layer", "net.coordinator.layer",
           round_of=self_round)
    method(coordinator.Coordinator, "finish", "net.coordinator.exit",
           round_of=self_round)
    method(coordinator.Coordinator, "submit", "net.coordinator.submit",
           round_of=self_round)
    method(coordinator.Coordinator, "release", "net.coordinator.release",
           round_of=self_round)
    for cls in (nodes.ServerNode, nodes.TrusteeNode):
        method(cls, "handle", "net.nodes.handle", round_of=env_round,
               label_of=lambda args: ":" + args[1].kind.name)

    # store
    method(segments.LogDir, "append", "store.append",
           value_of=lambda args, result: len(args[2]))
    method(segments.LogDir, "rotate", "store.rotate")
    method(wal.WriteAheadLog, "sync", "store.sync")
    method(store.DurableStore, "layer_commit", "store.checkpoint",
           round_of=int_round)
    method(store.DurableStore, "round_settled", "store.round_settled",
           round_of=rnd_round)
    method(compact.Compactor, "compact", "store.compact",
           value_of=lambda args, result: int(result.ran))

    # fleet: the coordinator's per-round control RPCs to the processes
    method(fleet_transport.FleetTransport, "open_round", "fleet.open_round",
           round_of=int_round)
    method(fleet_transport.FleetTransport, "unregister_round",
           "fleet.close_round", round_of=int_round)


def span_metrics(
    procs: Dict[str, List[Span]],
    measured: Set[int],
    msgs: int,
    window: Tuple[float, float],
) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced stream.

    ``procs`` maps a process name to its spans (``"coord"`` is the
    stream child; serve processes go by their plan names); ``measured``
    is the set of measured round ids (1..R-1) and ``msgs`` the messages
    they delivered; ``window`` is on_round_settled(0) -> (R-1).
    """
    everything = [span for spans in procs.values() for span in spans]
    selfs = self_times(everything)
    in_rounds = [s for s in everything if s[ROUND] in measured]
    coord = [s for s in procs["coord"] if s[ROUND] in measured]
    rounds = len(measured)

    def self_sum(prefixes, spans=in_rounds) -> float:
        return sum(selfs[id(s)] for s in spans if s[NAME].startswith(prefixes))

    def inclusive(prefixes, spans=in_rounds) -> float:
        return sum(s[END] - s[START] for s in outermost(spans, prefixes))

    def count(prefixes, spans=in_rounds) -> int:
        return len(outermost(spans, prefixes))

    def value(prefixes, spans=in_rounds) -> float:
        return sum(s[VALUE] for s in spans if s[NAME].startswith(prefixes))

    work = sum(selfs[id(s)] for s in in_rounds) - self_sum(WAIT)
    net_self = self_sum(("net.",)) - self_sum(NET_WAIT)
    store_self = self_sum(("store.",))

    resilient = "net.transport.request:ResilientTransport"
    attempts = sum(
        1 for s in everything
        if s[PARENT] is not None and s[PARENT][NAME] == resilient
        and s[NAME].startswith("net.transport.request")
    )
    retries = attempts - sum(1 for s in everything if s[NAME] == resilient)

    lo, hi = window
    blocked = sum(
        selfs[id(s)] for s in procs["coord"]
        if s[NAME].startswith("net.transport.request") and lo <= s[START] <= hi
    )
    top_level = [
        (s[START], s[END]) for s in procs["coord"] if s[PARENT] is None
    ]
    layers = [s[END] - s[START] for s in coord if s[NAME] == "net.coordinator.layer"]

    return {
        "crypto.exp_count_per_msg": count(("crypto.exp",)) / msgs,
        "crypto.multiexp_count_per_msg": count(("crypto.multiexp",)) / msgs,
        "crypto.exp_s_per_msg":
            self_sum(("crypto.exp", "crypto.multiexp")) / msgs,
        "crypto.reencrypt_s_per_msg": inclusive(("crypto.reencrypt",)) / msgs,
        "crypto.rerandomize_s_per_msg":
            inclusive(("crypto.rerandomize",)) / msgs,
        "crypto.shuffle_prove_s_per_msg":
            inclusive(("crypto.shuffle_prove",)) / msgs,
        "crypto.shuffle_verify_s_per_msg":
            inclusive(("crypto.shuffle_verify",)) / msgs,
        "crypto.reenc_proof_s_per_msg":
            inclusive(("crypto.reenc_proof",)) / msgs,
        "crypto.enc_proof_prove_s_per_msg":
            inclusive(("crypto.enc_proof_prove",)) / msgs,
        "crypto.enc_proof_verify_s_per_msg":
            inclusive(("crypto.enc_proof_verify",)) / msgs,
        "crypto.table_builds":
            sum(1 for s in everything if s[NAME] == "crypto.table_build"),
        "crypto.self_share": self_sum(("crypto.",)) / work,
        "core.client.submit_build_s_per_msg":
            inclusive(("core.client.submit_build",)) / msgs,
        "core.group.mix_s_per_msg": inclusive(("core.group.mix",)) / msgs,
        "core.group.mix_self_s_per_msg": self_sum(("core.group.mix",)) / msgs,
        "core.batch.codec_s_per_msg": inclusive(("core.batch.codec",)) / msgs,
        "core.batch.bytes_per_msg": value(("core.batch.codec",)) / msgs,
        "core.protocol.round_setup_s_per_round":
            inclusive(("core.protocol.round_setup",)) / rounds,
        "core.pipeline.self_share": self_sum(("core.",)) / work,
        "net.envelopes.encode_s_per_msg":
            inclusive(("net.envelopes.encode",)) / msgs,
        "net.envelopes.decode_s_per_msg":
            inclusive(("net.envelopes.decode",)) / msgs,
        "net.envelopes.wire_bytes_per_msg":
            value(("net.envelopes.encode",)) / msgs,
        "net.envelopes.count_per_round":
            count(("net.envelopes.encode",)) / rounds,
        "net.transport.requests_per_round":
            count(("net.transport.request",), coord) / rounds,
        "net.transport.wait_s_per_round":
            self_sum(("net.transport.request",), coord) / rounds,
        "net.transport.retries": retries,
        "net.coordinator.layer_s_p50":
            statistics.median(layers) if layers else 0.0,
        "net.coordinator.exit_s_per_round":
            inclusive(("net.coordinator.exit",)) / rounds,
        "net.coordinator.self_s_per_round":
            self_sum(("net.coordinator.",)) / rounds,
        "net.coordinator.busy_share": 1.0 - blocked / (hi - lo),
        "net.nodes.handle_self_s_per_msg": (
            self_sum(("net.nodes.handle",)) - self_sum((POOL_WAIT,))
        ) / msgs,
        "net.nodes.self_share": net_self / work,
        "store.appends_per_round": count(("store.append",)) / rounds,
        "store.append_bytes_per_round": value(("store.append",)) / rounds,
        "store.fsyncs_per_round": count(("store.sync",)) / rounds,
        "store.append_s_per_round": self_sum(("store.append",)) / rounds,
        "store.sync_s_per_round": inclusive(("store.sync",)) / rounds,
        "store.checkpoint_s_per_round":
            inclusive(("store.checkpoint",)) / rounds,
        "store.compactions": value(("store.compact",), everything),
        "store.self_share": store_self / work,
        "fleet.relay_bytes_per_msg":
            value(("net.envelopes.encode:MIX_BATCH",), coord) / msgs,
        "trace.coverage": covered(top_level, lo, hi) / (hi - lo),
        "trace.control_path_share": (
            net_self + store_self + self_sum(("core.protocol.round_setup",))
        ) / work,
    }
