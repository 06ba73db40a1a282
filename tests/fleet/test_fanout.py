"""A mixing layer's fan-out over the fleet transport.

``FleetTransport.request_many`` writes every ``MIX`` frame of a layer
before it reads the first reply, so the processes mix at once; these
tests pin what that must not cost: each process still sees its groups
in gid order, a FAULT leaves no reply unread, a connection dropped
mid-layer falls back to re-sending under the same request ids without
mixing anything twice, and serve processes mix on the batch data plane
like in-process nodes do.

The serve processes run as threads of the test process — stock
:class:`~repro.fleet.server.FleetServer` dispatch behind the stock
:func:`~repro.net.framing.serve` loop, one listener each — so the
coordinator talks real sockets while the test can reach every node
object.  Nothing here asserts on wall-clock time.
"""

import socket
import threading

import pytest

from repro.core import AtomDeployment, Client
from repro.core.group import GroupContext, ProtocolAbort
from repro.crypto.groups import DeterministicRng, get_group
from repro.fleet.plan import DeploymentPlan
from repro.fleet.server import FleetServer
from repro.net import envelopes as ev
from repro.net import framing
from repro.net.envelopes import Kind
from repro.net.framing import FramedConnection, RetryableTransportError

from tests.net.test_transport_parity import _canonical, _config


class _ThreadFleet:
    """The plan's serve processes as threads of this process."""

    def __init__(self, config, tmp_path, num_processes=2):
        listeners = [
            socket.create_server(("127.0.0.1", 0))
            for _ in range(num_processes)
        ]
        self.plan = DeploymentPlan.build(
            config, num_processes,
            ports=[lsn.getsockname()[1] for lsn in listeners],
        ).save(tmp_path / "plan.json")
        self.servers = [
            FleetServer(self.plan, spec.name) for spec in self.plan.processes
        ]
        self._loops = []
        for server, listener in zip(self.servers, listeners):
            server._listener = listener
            thread = threading.Thread(
                target=framing.serve,
                args=(listener, server.group, server._dispatch,
                      server.draining),
                daemon=True,
            )
            thread.start()
            self._loops.append(thread)

    def nodes(self):
        return [
            node for server in self.servers for node in server.nodes.values()
        ]

    def close(self):
        for server in self.servers:
            framing.stop_serving(server._listener, server.draining)
        for thread in self._loops:
            thread.join(timeout=30)
            assert not thread.is_alive(), "serve loop did not drain"


@pytest.fixture()
def thread_fleet(tmp_path):
    fleets = []

    def start(config):
        fleets.append(_ThreadFleet(config, tmp_path))
        return fleets[-1]

    yield start
    for fleet in fleets:
        fleet.close()


def _config4(variant="trap"):
    """Four groups over two processes: each process owns two groups
    of every layer (p0: gids 0 and 2, p1: gids 1 and 3)."""
    return _config(
        "inproc", "TOY", variant, num_servers=8, num_groups=4,
    )


def _start(dep, messages=8):
    """A seeded round with ``messages`` submissions, ready to mix."""
    rng = DeterministicRng(b"fanout-setup")
    rnd = dep.start_round(0, rng=rng)
    client = Client(dep.group, rng)
    for i in range(messages):
        gid = i % dep.config.num_groups
        if dep.config.variant == "trap":
            dep.submit_trap(rnd, b"fan-%d" % i, gid, client)
        else:
            dep.submit_plain(rnd, b"fan-%d" % i, gid, client)
    dep.pad_round(rnd, rng)
    return rnd


def _run(config):
    with AtomDeployment(config) as dep:
        rnd = _start(dep)
        return dep.run_round(rnd, DeterministicRng(b"fanout-round"))


def _count_mixes(monkeypatch):
    """Count every object-plane and batch-plane mix, by gid."""
    calls = {"mix": [], "mix_batch": []}
    for name in calls:
        original = getattr(GroupContext, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(self.gid)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(GroupContext, name, counted)
    return calls


def _mix_layer(env):
    return env.payload.layer if env.kind is Kind.MIX else None


def test_every_mix_frame_is_written_before_the_first_reply_is_read(
    thread_fleet, monkeypatch
):
    config = _config4()
    inproc = _run(config)
    fleet = thread_fleet(config)
    log = []  # (op, peer, layer, dest) per MIX frame
    send, receive = FramedConnection.send, FramedConnection.receive

    def logged_send(self, env, timeout=None):
        send(self, env, timeout)
        if env.kind is Kind.MIX:
            log.append(("send", self.peer, _mix_layer(env), env.dest))

    def logged_receive(self, env, timeout=None):
        if env.kind is Kind.MIX:
            log.append(("recv", self.peer, _mix_layer(env), env.dest))
        return receive(self, env, timeout)

    monkeypatch.setattr(FramedConnection, "send", logged_send)
    monkeypatch.setattr(FramedConnection, "receive", logged_receive)
    result = _run(fleet.plan.engine_config())

    assert result.ok
    assert _canonical(get_group("TOY"), result) == _canonical(
        get_group("TOY"), inproc
    )
    for layer in range(config.iterations):
        ops = [entry for entry in log if entry[2] == layer]
        sends = [entry for entry in ops if entry[0] == "send"]
        assert [op for op, *_ in ops] == ["send"] * 4 + ["recv"] * 4
        # replies are read in send order, which is gid order
        assert [dest for *_, dest in ops[4:]] == [0, 1, 2, 3]
        by_peer = {}
        for _, peer, _, dest in sends:
            by_peer.setdefault(peer, []).append(dest)
        assert sorted(by_peer.values()) == [[0, 2], [1, 3]]


def test_a_fault_leaves_every_connection_clean(thread_fleet, monkeypatch):
    """Groups 1 and 2 (one on each process) fault in the first layer:
    the round raises group 1's abort only after every other reply is
    read, so the next request on each connection gets its own reply."""
    config = _config4(variant="basic")
    fleet = thread_fleet(config)
    calls = _count_mixes(monkeypatch)
    mix_batch = GroupContext.mix_batch

    def faulty(self, *args, **kwargs):
        if self.gid in (1, 2):
            raise ProtocolAbort(self.gid, 0, "shuffle")
        return mix_batch(self, *args, **kwargs)

    monkeypatch.setattr(GroupContext, "mix_batch", faulty)
    with AtomDeployment(fleet.plan.engine_config()) as dep:
        rnd = _start(dep)
        run = dep.begin_mixing(rnd, DeterministicRng(b"fanout-round"))
        with pytest.raises(ProtocolAbort) as caught:
            run.run_layer()
        assert caught.value.gid == 1
        assert sorted(calls["mix_batch"]) == [0, 3]  # both others mixed
        for gid in range(4):
            replies = run.transport.request(
                ev.wrap(ev.Ping(), rnd.round_id, ev.COORDINATOR, gid)
            )
            assert [r.kind for r in replies] == [Kind.PONG]
            assert replies[0].payload.gid == gid


def test_dropped_connection_resends_under_the_same_req_id(
    thread_fleet, monkeypatch
):
    """p1's connection drops after every frame of layer 1 is written:
    every connection is dropped, the layer is re-sent envelope by
    envelope under the same request ids, a mix that already ran is
    replayed from its node's cache, no group mixes twice, and the
    round is byte identical to the fault-free one."""
    config = _config4()
    inproc = _run(config)
    fleet = thread_fleet(config)
    calls = _count_mixes(monkeypatch)
    receive = FramedConnection.receive
    dropped, held = [], []

    def dropping(self, env, timeout=None):
        if (
            env.kind is Kind.MIX
            and env.payload.layer == 1
            and env.dest == 1
        ):
            dropped.append(env.req_id)
            if len(dropped) == 1:
                held.extend(fleet.nodes())  # ROUND_CLOSE drops them later
                self.drop()
                raise RetryableTransportError("injected drop")
        return receive(self, env, timeout)

    monkeypatch.setattr(FramedConnection, "receive", dropping)
    with AtomDeployment(fleet.plan.engine_config()) as dep:
        rnd = _start(dep)
        result = dep.run_round(rnd, DeterministicRng(b"fanout-round"))
        retries = dep.transport().retries

    assert result.ok
    assert len(dropped) == 2 and dropped[0] == dropped[1]  # same req_id
    assert _canonical(get_group("TOY"), result) == _canonical(
        get_group("TOY"), inproc
    )
    assert retries == 4  # the layer's four MIX envelopes, once each
    # every group mixed exactly once per layer, on the batch plane
    assert calls["mix"] == []
    assert sorted(calls["mix_batch"]) == sorted(
        list(range(4)) * config.iterations
    )
    # group 0's reply had been read before the drop: its re-send is
    # replayed from the cache (the others may or may not have run)
    assert [node._dedup.hits for node in held if node.gid == 0] == [1]


@pytest.mark.parametrize("variant", ["basic", "trap"])
def test_serve_processes_mix_on_the_batch_plane(
    variant, thread_fleet, monkeypatch
):
    config = _config4(variant)
    inproc = _run(config)
    fleet = thread_fleet(config)
    calls = _count_mixes(monkeypatch)
    result = _run(fleet.plan.engine_config())
    assert result.ok
    assert _canonical(get_group("TOY"), result) == _canonical(
        get_group("TOY"), inproc
    )
    assert calls["mix"] == []
    assert sorted(calls["mix_batch"]) == sorted(
        list(range(4)) * config.iterations
    )


def test_rehome_after_two_layers_adopts_the_committed_state(thread_fleet):
    """A fleet-homed group re-homed after two committed layers resumes
    from exactly its serve-side node's committed state: holdings,
    trap commitments and the intake duplicate filter."""
    config = _config4()
    inproc = _run(config)
    fleet = thread_fleet(config)
    with AtomDeployment(fleet.plan.engine_config()) as dep:
        rnd = _start(dep)
        run = dep.begin_mixing(rnd, DeterministicRng(b"fanout-round"))
        run.run_layer()
        run.run_layer()
        gid = 1
        served = next(
            node for server in fleet.servers
            for key, node in server.nodes.items()
            if key == (rnd.round_id, gid)
        )
        run.rehome_group(gid)
        local = run.nodes[gid]
        assert local is not served
        assert served.holdings and served.commitments
        assert local.holdings == served.holdings
        assert local.commitments == served.commitments
        assert local._seen == served._seen
        while not run.done:
            run.run_layer()
        result = run.finish()
    assert result.ok
    assert sorted(result.messages) == sorted(inproc.messages)
