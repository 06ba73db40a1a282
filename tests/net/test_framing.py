"""The framed-RPC link (:mod:`repro.net.framing`), seen through both of
its in-process users: a :class:`TcpTransport` and a bare
``framing.serve`` loop with its own :class:`FramedConnection`.

Every case runs against both, so the size caps, the error taxonomy and
the drop-and-redial rule are pinned once for the transport, the fleet
and the controller, which all call the same two halves.
"""

import logging
import socket
import struct
import threading
import time

import pytest

from repro.net import framing
from repro.net.envelopes import COORDINATOR, SubmitOk, wrap
from repro.net.transport import (
    RetryableTransportError,
    RpcTimeout,
    TcpTransport,
)


class _Endpoint:
    """A served node whose behaviour the test scripts: ``handler`` is
    called with each request envelope and returns its replies."""

    def __init__(self):
        self.handler = lambda env: [_ok(env, 1)]
        self.conn = None  # the FramedConnection requests go through
        self.request = None  # request(env, timeout=None) -> replies
        self.swap = None  # swap(node): put another node behind the key

    def handle(self, env):
        return self.handler(env)


def _ok(env, n):
    return wrap(SubmitOk(accepted=n), env.round_id, env.dest, COORDINATOR)


def _ask():
    return wrap(SubmitOk(accepted=0), 0, COORDINATOR, 0)


def _rpc_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("atom-rpc-")
    ]


@pytest.fixture(params=["tcp-transport", "bare-serve"])
def endpoint(request, toy_group):
    ep = _Endpoint()
    if request.param == "tcp-transport":
        transport = TcpTransport(toy_group)
        transport.register(0, 0, ep)
        ep.conn, ep.request = transport._conn, transport.request
        ep.swap = lambda node: transport.register(0, 0, node)
        yield ep
        transport.close()
    else:
        listener = socket.create_server(("127.0.0.1", 0))
        stopping = threading.Event()
        thread = threading.Thread(
            target=framing.serve,
            args=(listener, toy_group, ep.handle, stopping),
            name="atom-rpc-accept",
            daemon=True,
        )
        thread.start()
        ep.conn = framing.FramedConnection(
            listener.getsockname(), toy_group, "test server"
        )
        ep.request = ep.conn.request
        ep.swap = lambda node: setattr(ep, "handler", node.handle)
        yield ep
        ep.conn.drop()
        framing.stop_serving(listener, stopping)
        thread.join(timeout=10)
    # closed or drained: no accept thread, no connection thread
    assert _rpc_threads() == []


def _recv_eof(sock, timeout=5.0):
    sock.settimeout(timeout)
    return sock.recv(1) == b""


@pytest.mark.parametrize(
    "bad_bytes, complaint",
    [
        (struct.pack(">I", framing.MAX_FRAME_BYTES + 1), "frame length"),
        (struct.pack(">I", 8) + b"\xffgarbage", "closing connection"),
    ],
    ids=["oversize-length-prefix", "garbled-frame"],
)
def test_bad_inbound_frame_closes_that_connection_only(
    endpoint, caplog, bad_bytes, complaint
):
    with caplog.at_level(logging.WARNING, "repro.net.framing"):
        with socket.create_connection(endpoint.conn.address) as raw:
            raw.sendall(bad_bytes)
            # hung up on without buffering the promised 256 MiB
            assert _recv_eof(raw)
            peer = raw.getsockname()
    warnings = [r.getMessage() for r in caplog.records]
    assert any(complaint in w and str(peer[1]) in w for w in warnings), warnings
    # ... and the server is still there for everybody else
    assert endpoint.request(_ask())[0].payload.accepted == 1


def test_reply_count_over_the_cap_is_retryable(endpoint, monkeypatch):
    monkeypatch.setattr(framing, "MAX_REPLY_FRAMES", 3)
    endpoint.handler = lambda env: [_ok(env, n) for n in range(4)]
    with pytest.raises(RetryableTransportError, match="reply count 4"):
        endpoint.request(_ask())
    assert endpoint.conn._sock is None  # dropped, not left half-read
    endpoint.handler = lambda env: [_ok(env, n) for n in range(3)]
    assert len(endpoint.request(_ask())) == 3


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
def test_hangup_is_retryable_and_the_next_call_dials_fresh(endpoint):
    assert endpoint.request(_ask())[0].payload.accepted == 1
    first = endpoint.conn._sock

    def die(env):
        raise SystemExit  # the connection thread ends without replying

    endpoint.handler = die
    with pytest.raises(RetryableTransportError, match="closed mid-frame") as err:
        endpoint.request(_ask())
    assert not isinstance(err.value, RpcTimeout)
    assert endpoint.conn._sock is None
    endpoint.handler = lambda env: [_ok(env, 2)]
    assert endpoint.request(_ask())[0].payload.accepted == 2
    assert endpoint.conn._sock is not first


def test_timeout_never_leaves_a_stale_reply_for_the_next_request(endpoint):
    calls = []

    def slow_then_fast(env):
        calls.append(env)
        if len(calls) == 1:
            time.sleep(0.3)
        return [_ok(env, len(calls))]

    endpoint.handler = slow_then_fast
    with pytest.raises(RpcTimeout, match="timed out after 0.05s"):
        endpoint.request(_ask(), timeout=0.05)
    assert endpoint.conn._sock is None
    # the late answer to request 1 went to the dropped connection
    assert endpoint.request(_ask(), timeout=5.0)[0].payload.accepted == 2


def test_swapped_node_is_reached_without_a_rebind(endpoint):
    assert endpoint.request(_ask())[0].payload.accepted == 1
    sock = endpoint.conn._sock
    rekeyed = _Endpoint()
    rekeyed.handler = lambda env: [_ok(env, 2)]
    endpoint.swap(rekeyed)  # what a stream rekey does
    assert endpoint.request(_ask())[0].payload.accepted == 2
    assert endpoint.conn._sock is sock  # same listener, same connection
