"""Unit coverage of the RPC resilience layer.

A flaky fake transport (fails N times, then succeeds) pins the retry
loop's observable contract: how many attempts, what timeout reaches
the wire, what surfaces when the budget runs out — and that retries
never consume protocol randomness (determinism is checked end-to-end
by the idempotency suite; here we check the jitter rng is private).
"""

import pytest

from repro.crypto.groups import DeterministicRng
from repro.net.envelopes import COORDINATOR, Kind, wrap
from repro.net.nodes import ev
from repro.net.resilience import (
    DedupCache,
    ResilientTransport,
    RpcExhausted,
    RpcPolicy,
    SuspicionTracker,
)
from repro.net.transport import (
    RetryableTransportError,
    RpcTimeout,
    Transport,
    TransportError,
)


def _fast_policy(**kw):
    return RpcPolicy.default(**kw)


class _FlakyTransport(Transport):
    """Raises ``failures`` retryable errors, then echoes success."""

    name = "flaky"

    def __init__(self, failures, exc=RpcTimeout):
        self.failures = failures
        self.exc = exc
        self.calls = []  # (req_id, timeout)

    def register(self, round_id, node_id, node):
        pass

    def unregister_round(self, round_id):
        pass

    def request(self, env, timeout=None):
        self.calls.append((env.req_id, timeout))
        if len(self.calls) <= self.failures:
            raise self.exc("injected")
        return []


def _resilient(inner, **policy_kw):
    return ResilientTransport(
        inner, _fast_policy(**policy_kw), seed=b"rpc-test"
    )


def _env(payload=None, dest=0):
    return wrap(payload or ev.CommitLayer(layer=0), 0, COORDINATOR, dest)


class TestRetries:
    def test_retry_until_success(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        inner = _FlakyTransport(failures=2)
        transport = _resilient(inner)
        assert transport.request(_env()) == []
        assert len(inner.calls) == 3
        assert transport.retries == 2

    def test_exhaustion_raises_with_context(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        inner = _FlakyTransport(failures=99)
        transport = _resilient(inner, max_attempts=3)
        with pytest.raises(RpcExhausted) as excinfo:
            transport.request(_env(dest=5))
        exc = excinfo.value
        assert (exc.dest, exc.kind, exc.attempts) == (5, Kind.COMMIT_LAYER, 3)
        assert isinstance(exc.last_error, RpcTimeout)
        assert len(inner.calls) == 3

    def test_non_retryable_error_propagates_immediately(self):
        inner = _FlakyTransport(failures=99, exc=TransportError)
        transport = _resilient(inner)
        with pytest.raises(TransportError):
            transport.request(_env())
        assert len(inner.calls) == 1

    def test_retries_reuse_the_same_req_id(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        inner = _FlakyTransport(failures=2)
        transport = _resilient(inner)
        transport.request(_env())
        ids = {req_id for req_id, _ in inner.calls}
        assert len(ids) == 1 and 0 not in ids

    def test_distinct_requests_get_distinct_req_ids(self):
        inner = _FlakyTransport(failures=0)
        transport = _resilient(inner)
        transport.request(_env())
        transport.request(_env())
        (a, _), (b, _) = inner.calls
        assert a != b

    def test_prestamped_req_id_is_preserved(self):
        inner = _FlakyTransport(failures=0)
        transport = _resilient(inner)
        env = _env()
        env.req_id = 0xDEAD
        transport.request(env)
        assert inner.calls[0][0] == 0xDEAD

    def test_ping_gets_single_attempt_and_tight_deadline(self):
        inner = _FlakyTransport(failures=99)
        transport = _resilient(inner, ping_timeout=0.125)
        with pytest.raises(RpcExhausted):
            transport.request(_env(ev.Ping()))
        assert inner.calls == [(inner.calls[0][0], 0.125)]

    def test_kind_timeouts_reach_the_wire(self):
        inner = _FlakyTransport(failures=0)
        transport = _resilient(inner, base_timeout=2.0)
        transport.request(_env(ev.Mix(
            layer=0, successors=(), next_keys=(), seed=None,
        )))
        transport.request(_env())
        assert [t for _, t in inner.calls] == [8.0, 2.0]

    def test_explicit_timeout_overrides_policy(self):
        inner = _FlakyTransport(failures=0)
        transport = _resilient(inner)
        transport.request(_env(), timeout=0.5)
        assert inner.calls[0][1] == 0.5


class TestBackoff:
    def test_deterministic_per_seed(self):
        policy = _fast_policy()
        a = [policy.backoff(i, DeterministicRng(b"s")) for i in range(1, 5)]
        b = [policy.backoff(i, DeterministicRng(b"s")) for i in range(1, 5)]
        assert a == b

    def test_exponential_envelope_with_jitter(self):
        policy = _fast_policy()
        rng = DeterministicRng(b"jitter")
        for attempt in range(1, 12):
            base = min(2.0, 0.02 * 2**attempt)
            sleep = policy.backoff(attempt, rng)
            assert base * 0.5 <= sleep < base * 1.5

    def test_jitter_rng_is_not_the_protocol_rng(self, monkeypatch):
        """The retry path draws only from the transport's private rng:
        a caller-held rng sees identical output with retries on or off."""
        monkeypatch.setattr("time.sleep", lambda s: None)
        protocol_rng = DeterministicRng(b"protocol")
        before = protocol_rng.randbytes(16)
        transport = _resilient(_FlakyTransport(failures=3))
        transport.request(_env())
        assert DeterministicRng(b"protocol").randbytes(16) == before


class TestDedupCache:
    def test_miss_returns_none_but_empty_list_is_a_hit(self):
        cache = DedupCache()
        assert cache.get(7) is None
        cache.put(7, [])
        got = cache.get(7)
        assert got == [] and got is not None
        assert cache.hits == 1

    def test_req_id_zero_opts_out(self):
        cache = DedupCache()
        cache.put(0, ["x"])
        assert cache.get(0) is None
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = DedupCache(capacity=2)
        cache.put(1, ["a"])
        cache.put(2, ["b"])
        assert cache.get(1) == ["a"]  # refresh 1: now 2 is oldest
        cache.put(3, ["c"])
        assert cache.get(2) is None
        assert cache.get(1) == ["a"] and cache.get(3) == ["c"]


class TestSuspicionTracker:
    def test_declares_after_threshold_consecutive_misses(self):
        tracker = SuspicionTracker(miss_threshold=3)
        assert tracker.record_miss(1) == 1
        assert tracker.record_miss(1) == 2
        assert not tracker.suspected(1)
        assert tracker.record_miss(1) == 3
        assert tracker.suspected(1)
        tracker.declare(1)
        assert tracker.declared == [1]
        assert not tracker.suspected(1)  # counter reset with the verdict

    def test_pong_clears_suspicion(self):
        tracker = SuspicionTracker(miss_threshold=2)
        tracker.record_miss(0)
        tracker.record_pong(0)
        tracker.record_miss(0)
        assert not tracker.suspected(0)  # misses were not consecutive

    def test_groups_tracked_independently(self):
        tracker = SuspicionTracker(miss_threshold=1)
        tracker.record_miss(0)
        assert tracker.suspected(0) and not tracker.suspected(1)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            SuspicionTracker(miss_threshold=0)


class TestRequestMany:
    def _mixes(self, n):
        return [
            _env(ev.Mix(layer=0, successors=(), next_keys=(), seed=None),
                 dest=gid)
            for gid in range(n)
        ]

    def test_base_transport_requests_in_order_with_the_mix_deadline(self):
        inner = _FlakyTransport(failures=0)
        transport = _resilient(inner, base_timeout=2.0)
        envs = self._mixes(3)
        assert transport.request_many(envs) == [[], [], []]
        assert inner.calls == [(env.req_id, 8.0) for env in envs]
        assert len({env.req_id for env in envs}) == 3

    def test_delivery_failure_resends_each_under_its_req_id(
        self, monkeypatch
    ):
        monkeypatch.setattr("time.sleep", lambda s: None)
        inner = _FlakyTransport(failures=2)
        transport = _resilient(inner)
        first, second = envs = self._mixes(2)
        assert transport.request_many(envs) == [[], []]
        # the fan-out's attempt, then request()'s own retry loop
        assert [rid for rid, _ in inner.calls] == [
            first.req_id, first.req_id, first.req_id, second.req_id,
        ]
        assert transport.retries == 2 + 1

    def test_exhaustion_names_the_destination(self, monkeypatch):
        monkeypatch.setattr("time.sleep", lambda s: None)
        inner = _FlakyTransport(failures=99)
        transport = _resilient(inner, max_attempts=2)
        with pytest.raises(RpcExhausted) as excinfo:
            transport.request_many(self._mixes(2))
        assert excinfo.value.dest == 0
