"""Behavior tests for the node services, transports, and coordinator."""

import logging
from unittest import mock

import pytest

from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.core.batch import CiphertextBatch
from repro.core.group import GroupStalled, ProtocolAbort
from repro.core.server import Behavior
from repro.crypto.groups import DeterministicRng, get_group
from repro.net import coordinator
from repro.net import envelopes as ev
from repro.net.envelopes import Envelope, Kind, wrap
from repro.net.nodes import raise_fault
from repro.net.transport import (
    InProcessTransport,
    TcpTransport,
    TransportError,
    make_transport,
)


def small_config(**overrides):
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant="basic",
        iterations=3,
        message_size=8,
        crypto_group="TOY",
        nizk_rounds=4,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


class TestFaultTranslation:
    def test_abort_round_trips(self):
        with pytest.raises(ProtocolAbort) as excinfo:
            raise_fault(ev.Fault(code="abort", gid=3, culprit=7, stage="shuffle"))
        assert (excinfo.value.gid, excinfo.value.culprit) == (3, 7)

    def test_stalled_round_trips(self):
        with pytest.raises(GroupStalled) as excinfo:
            raise_fault(ev.Fault(code="stalled", gid=1, alive=1, needed=2))
        assert (excinfo.value.alive, excinfo.value.needed) == (1, 2)

    def test_error_becomes_runtime_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            raise_fault(ev.Fault(code="error", message="boom"))


class TestNodeIntake:
    def _deployment(self):
        dep = AtomDeployment(small_config())
        rnd = dep.start_round(0, rng=DeterministicRng(b"node-intake"))
        return dep, rnd

    def test_wrong_gid_rejected(self):
        dep, rnd = self._deployment()
        client = Client(dep.group)
        sub = client.prepare_plain(
            b"x", rnd.contexts[0].public_key, 0, dep.spec.payload_size
        )
        # Route a submission built for group 0 to node 1: the EncProof
        # is bound to gid 0 and the envelope says gid 0 — node 1 must
        # refuse it rather than accept foreign traffic.
        replies = rnd.coordinator.transport.request(
            wrap(ev.SubmitPlain(gid=0, submission=sub), 0, ev.COORDINATOR, 1)
        )
        assert isinstance(replies[0].payload, ev.SubmitErr)
        assert "wrong group" in replies[0].payload.reason

    def test_duplicate_rejected_at_node(self):
        dep, rnd = self._deployment()
        client = Client(dep.group)
        sub = client.prepare_plain(
            b"dup", rnd.contexts[0].public_key, 0, dep.spec.payload_size
        )
        env = wrap(ev.SubmitPlain(gid=0, submission=sub), 0, ev.COORDINATOR, 0)
        first = rnd.coordinator.transport.request(env)[0].payload
        assert isinstance(first, ev.SubmitOk)
        # Re-sending the *same request* (the resilience layer stamped
        # its req_id on the first send) is a retry/duplicate delivery:
        # the node replays the cached SubmitOk instead of re-executing.
        replayed = rnd.coordinator.transport.request(env)[0].payload
        assert isinstance(replayed, ev.SubmitOk)
        # A *fresh* request carrying the same ciphertext is a true
        # §2.3 replay attempt and is rejected at the node.
        second_env = wrap(
            ev.SubmitPlain(gid=0, submission=sub), 0, ev.COORDINATOR, 0
        )
        second = rnd.coordinator.transport.request(second_env)[0].payload
        assert isinstance(second, ev.SubmitErr)
        assert "duplicate" in second.reason

    def test_unknown_kind_raises(self):
        dep, rnd = self._deployment()
        with pytest.raises(ValueError, match="cannot handle"):
            rnd.coordinator.transport.request(
                wrap(ev.ReportOk(), 0, ev.COORDINATOR, 0)
            )


class TestLayerAtomicity:
    def test_stalled_layer_leaves_node_holdings_untouched(self):
        dep = AtomDeployment(small_config())
        rnd = dep.start_round(0, rng=DeterministicRng(b"atomic"))
        for i in range(4):
            dep.submit_plain(rnd, b"m%d" % i, i % 2)
        node0 = rnd.coordinator.nodes[0]
        node1 = rnd.coordinator.nodes[1]
        before = (list(node0.holdings), list(node1.holdings))
        # Group 1 stalls; group 0 mixed first within the layer.
        rnd.contexts[1].servers[0].fail()
        run = dep.begin_mixing(rnd, DeterministicRng(b"atomic-mix"))
        with pytest.raises(GroupStalled):
            run.run_layer()
        assert (node0.holdings, node1.holdings) == (before[0], before[1])
        # Recovery path: un-fail and retry the same layer successfully.
        rnd.contexts[1].servers[0].recover()
        run.run_layer()
        assert run.layer == 1

    def test_commit_advances_holdings(self):
        dep = AtomDeployment(small_config())
        rnd = dep.start_round(0, rng=DeterministicRng(b"advance"))
        for i in range(4):
            dep.submit_plain(rnd, b"m%d" % i, i % 2)
        node0 = rnd.coordinator.nodes[0]
        before = list(node0.holdings)
        run = dep.begin_mixing(rnd, DeterministicRng(b"advance-mix"))
        run.run_layer()
        assert node0.holdings and node0.holdings != before


class TestTransports:
    def test_inproc_routing_miss(self):
        transport = InProcessTransport()
        with pytest.raises(TransportError, match="no node"):
            transport.request(wrap(ev.ReportOk(), 5, ev.COORDINATOR, 0))

    def test_tcp_round_trip_and_unregister(self):
        group = get_group("TOY")

        class Echo:
            def handle(self, env):
                return [wrap(ev.SubmitOk(accepted=7), env.round_id, 0, env.sender)]

        transport = TcpTransport(group)
        try:
            transport.register(0, 0, Echo())
            replies = transport.request(
                wrap(ev.SubmitErr("ping"), 0, ev.COORDINATOR, 0)
            )
            assert replies[0].payload == ev.SubmitOk(accepted=7)
            transport.unregister_round(0)
            with pytest.raises(TransportError):
                transport.request(wrap(ev.SubmitErr("x"), 0, ev.COORDINATOR, 0))
        finally:
            transport.close()

    def test_tcp_surfaces_handler_exceptions(self):
        group = get_group("TOY")

        class Exploder:
            def handle(self, env):
                raise KeyError("kaboom")

        transport = TcpTransport(group)
        try:
            transport.register(0, 0, Exploder())
            with pytest.raises(TransportError, match="kaboom"):
                transport.request(wrap(ev.ReportOk(), 0, ev.COORDINATOR, 0))
        finally:
            transport.close()

    def test_node_swap_behind_live_endpoint(self):
        """Stream rekeys re-register the same (round, node) key; the
        endpoint must dispatch to the new node without rebinding."""
        group = get_group("TOY")

        class Const:
            def __init__(self, n):
                self.n = n

            def handle(self, env):
                return [wrap(ev.SubmitOk(self.n), env.round_id, 0, env.sender)]

        transport = TcpTransport(group)
        try:
            transport.register(0, 0, Const(1))
            assert transport.request(
                wrap(ev.ReportOk(), 0, ev.COORDINATOR, 0)
            )[0].payload.accepted == 1
            transport.register(0, 0, Const(2))
            assert transport.request(
                wrap(ev.ReportOk(), 0, ev.COORDINATOR, 0)
            )[0].payload.accepted == 2
        finally:
            transport.close()

    def test_make_transport_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown transport"):
            make_transport("pigeon", get_group("TOY"))

    def test_config_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            small_config(transport="carrier")


class TestCoordinatorLifecycle:
    def test_release_is_idempotent(self):
        dep = AtomDeployment(small_config())
        rnd = dep.start_round(0, rng=DeterministicRng(b"release"))
        rnd.coordinator.release()
        rnd.coordinator.release()
        with pytest.raises(TransportError):
            rnd.coordinator.submit(
                ev.SubmitErr("after release"), 0
            )

    def test_tamper_audit_travels_in_summary(self):
        """A trap-variant tampering is recorded node-side and must
        reach the coordinator's RoundResult through MIX_SUMMARY."""
        config = small_config(variant="trap")
        with AtomDeployment(config) as dep:
            rnd = dep.start_round(0, rng=DeterministicRng(b"audit"))
            rnd.contexts[0].servers[0].behavior = Behavior.REPLACE_ONE
            for i in range(4):
                dep.submit_trap(rnd, b"m%d" % i, i % 2)
            result = dep.run_round(rnd, DeterministicRng(b"audit-mix"))
        tamperings = [t for audit in result.audits for t in audit.tamperings]
        assert tamperings, "the tampering must surface in the audits"

    def test_nizk_summary_carries_shuffle_proof(self):
        """Verified variants attach the final shuffle-proof NIZK to the
        mix-layer hand-off evidence."""
        config = small_config(variant="nizk")
        with AtomDeployment(config) as dep:
            rnd = dep.start_round(0, rng=DeterministicRng(b"proofs"))
            for i in range(4):
                dep.submit_plain(rnd, b"m%d" % i, i % 2)
            result = dep.run_round(rnd, DeterministicRng(b"proofs-mix"))
        assert result.ok
        assert all(a.final_shuffle_proof is not None for a in result.audits)


class TestLoudFailures:
    """The coordinator's handlers catch only what they can act on."""

    def test_a_programming_error_at_the_trap_exit_propagates(self):
        # Regression: a broad ``except`` reported any exception from
        # the inner decryption as "inner ciphertext failed
        # authentication" and blamed a group.
        def broken(group, secret, ciphertext):
            raise TypeError("not a decryption failure")

        with AtomDeployment(small_config(variant="trap")) as dep:
            rnd = dep.start_round(0, rng=DeterministicRng(b"loud-exit"))
            for i in range(4):
                dep.submit_trap(rnd, b"m%d" % i, i % 2)
            with mock.patch.object(coordinator, "cca2_decrypt", broken):
                with pytest.raises(TypeError, match="not a decryption"):
                    dep.run_round(rnd, DeterministicRng(b"loud-exit-mix"))

    def test_abort_layer_logs_an_unreachable_group_and_goes_on(self, caplog):
        dep = AtomDeployment(small_config())
        rnd = dep.start_round(0, rng=DeterministicRng(b"loud-abort"))
        sent = []

        def send(payload, gid, req_id=0):
            if gid == 0:
                raise TransportError("group 0 is gone")
            sent.append(gid)
            return []

        with mock.patch.object(rnd.coordinator, "_send", send):
            with caplog.at_level(logging.WARNING, logger=coordinator.__name__):
                rnd.coordinator._abort_layer(1)
        assert sent == [1]
        assert "round 0 layer 1: ABORT_LAYER to group 0 failed" in caplog.text

        def broken(payload, gid, req_id=0):
            raise KeyError(gid)

        with mock.patch.object(rnd.coordinator, "_send", broken):
            with pytest.raises(KeyError):
                rnd.coordinator._abort_layer(1)


def _trap_intake(dep):
    """A seeded, padded trap-round intake: 5 users over 2 groups."""
    rng = DeterministicRng(b"one-copy")
    rnd = dep.start_round(0, rng=rng)
    client = Client(dep.group, rng)
    for i in range(5):
        dep.submit_trap(rnd, b"one-%d" % i, i % 2, client)
    dep.pad_round(rnd, rng)
    return rnd


def _intake_config():
    return DeploymentConfig(
        num_servers=6, num_groups=2, group_size=2, variant="trap",
        iterations=2, message_size=8, crypto_group="TOY",
    )


class TestIntakeKeepsOneCopy:
    """An in-process round holds each accepted vector once: in its
    entry node."""

    def test_one_append_per_accepted_vector(self, monkeypatch):
        appended = []
        append = CiphertextBatch.append

        def counted(self, vec):
            appended.append(vec)
            return append(self, vec)

        monkeypatch.setattr(CiphertextBatch, "append", counted)
        with AtomDeployment(_intake_config()) as dep:
            rnd = _trap_intake(dep)
            held = [
                len(node.holdings) for node in rnd.coordinator.nodes.values()
            ]
        assert held == [6, 6]
        assert len(appended) == sum(held)
