"""TcpTransport lifecycle: close() must not leak threads or sockets.

The transport owns one accept thread and one connection thread (see
:mod:`repro.net.framing`); ``close()`` joins both and releases the
listening port, repeatably.
"""

import gc
import socket
import threading
import warnings

from repro.net.envelopes import COORDINATOR, SubmitOk, wrap
from repro.net.transport import TcpTransport


class _EchoNode:
    def handle(self, env):
        return [wrap(SubmitOk(accepted=1), env.round_id, env.dest, COORDINATOR)]


def _rpc_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("atom-rpc-")
    ]


def _round_trip(transport, round_id=0):
    transport.register(round_id, 0, _EchoNode())
    env = wrap(SubmitOk(accepted=1), round_id, COORDINATOR, 0)
    assert transport.request(env)[0].payload.accepted == 1


class TestClose:
    def test_close_joins_its_threads(self, toy_group):
        transport = TcpTransport(toy_group)
        _round_trip(transport)
        assert sorted(t.name for t in _rpc_threads()) == [
            "atom-rpc-accept", "atom-rpc-conn",
        ]
        transport.close()
        assert _rpc_threads() == []

    def test_close_is_idempotent(self, toy_group):
        transport = TcpTransport(toy_group)
        transport.register(0, 0, _EchoNode())
        transport.close()
        transport.close()

    def test_repeated_open_close_leaks_nothing(self, toy_group):
        baseline = threading.active_count()
        for i in range(5):
            transport = TcpTransport(toy_group)
            _round_trip(transport, round_id=i)
            address = transport._listener.getsockname()
            transport.close()
            # the port is released: nobody is listening any more
            probe = socket.socket()
            try:
                assert probe.connect_ex(address) != 0
            finally:
                probe.close()
        assert _rpc_threads() == []
        assert threading.active_count() <= baseline

    def test_close_emits_no_runtime_warnings(self, toy_group):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("error", ResourceWarning)
            transport = TcpTransport(toy_group)
            _round_trip(transport)
            transport.close()
            del transport
            gc.collect()
