"""NetFaultPlan grammar and ChaosTransport unit behavior.

Mirrors the FaultSchedule parser suite: every accepted spec must
round-trip exactly through ``parse -> describe -> parse``, and every
malformed spec must fail with a message naming the offending chunk.
The transport-level tests drive a ChaosTransport over a recording fake
so each fault's observable behavior (delivered? raised? held?) is
pinned without any crypto.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.batch import CiphertextBatch
from repro.crypto.groups import get_group
from repro.net.chaos import (
    ChaosTransport,
    NetFaultPlan,
    NetFaultPlanError,
    NetRule,
    REORDERABLE,
)
from repro.net.envelopes import COORDINATOR, Kind, wrap
from repro.net.nodes import ev
from repro.net.transport import (
    RetryableTransportError,
    RpcTimeout,
    Transport,
)


class TestParsing:
    def test_round_trip(self):
        spec = (
            "*:drop:0.02;"
            "r1-3:delay:20.0:0.1;"
            "c>1:dup;"
            "r2-/mix_batch:reorder:0.5;"
            "0>*/submit_plain:garble:0.25;"
            "*:reset:0.01;"
            "r1/c>1/ping:kill:1;"
            "*:drop-reply:0.05"
        )
        plan = NetFaultPlan.parse(spec)
        assert plan.describe() == spec
        assert NetFaultPlan.parse(plan.describe()).describe() == spec

    def test_percent_rates(self):
        plan = NetFaultPlan.parse("*:drop:2%")
        assert plan.rules[0].rate == pytest.approx(0.02)

    def test_round_scopes(self):
        single = NetFaultPlan.parse("r3:drop").rules[0]
        assert (single.round_start, single.round_end) == (3, 3)
        onward = NetFaultPlan.parse("r3-:drop").rules[0]
        assert (onward.round_start, onward.round_end) == (3, None)
        ranged = NetFaultPlan.parse("r3-5:drop").rules[0]
        assert (ranged.round_start, ranged.round_end) == (3, 5)

    def test_endpoint_scopes(self):
        rule = NetFaultPlan.parse("c>1:drop").rules[0]
        assert (rule.src, rule.dst) == (COORDINATOR, 1)
        rule = NetFaultPlan.parse("*>t:drop").rules[0]
        assert (rule.src, rule.dst) == (None, ev.TRUSTEE)

    def test_kind_scope_is_case_insensitive(self):
        assert NetFaultPlan.parse("MIX_BATCH:drop").rules[0].kind is (
            Kind.MIX_BATCH
        )

    def test_empty_chunks_skipped(self):
        assert len(NetFaultPlan.parse(";;*:drop;;").rules) == 1

    @pytest.mark.parametrize(
        "bad,needle",
        [
            ("drop", "scope:action"),
            ("*:nope", "unknown action"),
            ("*:drop:2", "out of range"),
            ("*:drop:banana", "expected a float"),
            ("*:delay", "delay takes"),
            ("*:delay:-5", "delay must be >= 0"),
            ("*:kill", "kill takes"),
            ("*:kill:c", "expected a gid"),
            ("*:kill:-1", "gid >= 0"),
            ("*:drop:1:2", "at most one arg"),
            ("x>:drop", "bad endpoint"),
            ("r3-1:drop", "empty round range"),
            ("bogus:drop", "bad scope term"),
            ("r1/r2:drop", "duplicate round"),
            ("c>1/0>2:drop", "duplicate endpoint"),
            ("ping/mix:drop", "duplicate kind"),
        ],
    )
    def test_rejects_malformed_specs(self, bad, needle):
        with pytest.raises(NetFaultPlanError, match="bad net fault rule"):
            try:
                NetFaultPlan.parse(bad)
            except NetFaultPlanError as exc:
                assert needle in str(exc), str(exc)
                raise

    def test_overlapping_scopes_both_apply_in_order(self):
        plan = NetFaultPlan.parse("*:delay:1;r1:delay:2")
        env = wrap(ev.CommitLayer(layer=0), 1, COORDINATOR, 0)
        assert [r.matches(env) for r in plan.rules] == [True, True]
        env0 = wrap(ev.CommitLayer(layer=0), 0, COORDINATOR, 0)
        assert [r.matches(env0) for r in plan.rules] == [True, False]


rate_st = st.one_of(
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
round_st = st.one_of(
    st.just((None, None)),
    st.integers(min_value=0, max_value=99).map(lambda n: (n, n)),
    st.integers(min_value=0, max_value=99).map(lambda n: (n, None)),
    st.tuples(
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=99),
    ).map(lambda p: (min(p), max(p))),
)
endpoint_st = st.one_of(
    st.none(),
    st.sampled_from([COORDINATOR, ev.TRUSTEE]),
    st.integers(min_value=0, max_value=63),
)
kind_st = st.one_of(st.none(), st.sampled_from(sorted(Kind, key=int)))


@st.composite
def rule_st(draw):
    action = draw(st.sampled_from(
        ["drop", "drop-reply", "delay", "dup", "reorder", "garble", "reset"]
    ))
    start, end = draw(round_st)
    return NetRule(
        action=action,
        rate=draw(rate_st),
        delay_ms=draw(
            st.floats(min_value=0, max_value=5000, allow_nan=False)
        ) if action == "delay" else 0.0,
        round_start=start,
        round_end=end,
        src=draw(endpoint_st),
        dst=draw(endpoint_st),
        kind=draw(kind_st),
    )


class TestDescribeRoundTrip:
    @given(rules=st.lists(rule_st(), min_size=1, max_size=6))
    def test_parse_describe_identity(self, rules):
        """describe() is a canonical spelling: parsing it reproduces
        the rules exactly (the Hypothesis analogue of the FaultSchedule
        suite's round-trip test)."""
        plan = NetFaultPlan(rules)
        reparsed = NetFaultPlan.parse(plan.describe())
        assert reparsed.rules == rules
        assert reparsed.describe() == plan.describe()


class _RecordingTransport(Transport):
    """Counts deliveries; optionally replies per kind."""

    name = "fake"

    def __init__(self):
        self.delivered = []

    def register(self, round_id, node_id, node):
        pass

    def unregister_round(self, round_id):
        pass

    def request(self, env, timeout=None):
        self.delivered.append(env)
        return []


def _env(kind_payload, round_id=0, dest=0):
    return wrap(kind_payload, round_id, COORDINATOR, dest)


class TestChaosTransport:
    def _chaos(self, spec, seed=b"chaos-test"):
        inner = _RecordingTransport()
        return ChaosTransport(inner, NetFaultPlan.parse(spec), seed), inner

    def test_drop_never_delivers(self):
        chaos, inner = self._chaos("*:drop")
        with pytest.raises(RpcTimeout):
            chaos.request(_env(ev.CommitLayer(layer=0)))
        assert inner.delivered == []
        assert chaos.stats["drop"] == 1

    def test_drop_reply_delivers_then_times_out(self):
        chaos, inner = self._chaos("*:drop-reply")
        with pytest.raises(RpcTimeout):
            chaos.request(_env(ev.CommitLayer(layer=0)))
        assert len(inner.delivered) == 1

    def test_dup_delivers_twice(self):
        chaos, inner = self._chaos("*:dup")
        chaos.request(_env(ev.CommitLayer(layer=0)))
        assert len(inner.delivered) == 2

    def test_garble_and_reset_are_retryable(self):
        for spec, processed in [("*:garble", 1), ("*:reset", 0)]:
            chaos, inner = self._chaos(spec)
            with pytest.raises(RetryableTransportError):
                chaos.request(_env(ev.CommitLayer(layer=0)))
            assert len(inner.delivered) == processed

    def test_rates_are_seed_deterministic(self):
        def drops(seed):
            chaos, _ = self._chaos("*:drop:50%", seed=seed)
            out = []
            for i in range(32):
                try:
                    chaos.request(_env(ev.CommitLayer(layer=0)))
                    out.append(False)
                except RpcTimeout:
                    out.append(True)
            return out

        a, b = drops(b"seed-a"), drops(b"seed-a")
        assert a == b and any(a) and not all(a)
        assert drops(b"seed-b") != a

    def test_reorder_only_applies_to_reorderable_kinds(self):
        assert REORDERABLE == frozenset({Kind.MIX_BATCH})
        chaos, inner = self._chaos("*:reorder")
        chaos.request(_env(ev.CommitLayer(layer=0)))  # not reorderable
        assert len(inner.delivered) == 1
        assert chaos.stats["reorder"] == 0

    def test_reorder_swaps_batches_and_barriers_before_commit(self):
        chaos, inner = self._chaos("0>2:reorder")
        batch = ev.MixBatch(layer=0, batch=CiphertextBatch(get_group("TOY")))
        first = wrap(batch, 0, 0, 2)   # held (matches 0>2)
        second = wrap(batch, 0, 1, 2)  # delivered, then flushes `first`
        chaos.request(first)
        assert inner.delivered == []
        chaos.request(second)
        assert [e.sender for e in inner.delivered] == [1, 0]  # swapped
        # An ordered RPC is a barrier: anything still held lands first.
        chaos.request(wrap(batch, 0, 0, 2))  # held again
        chaos.request(_env(ev.CommitLayer(layer=0), dest=2))
        kinds = [e.kind for e in inner.delivered[2:]]
        assert kinds == [Kind.MIX_BATCH, Kind.COMMIT_LAYER]

    def test_kill_is_one_shot_and_revivable(self):
        chaos, inner = self._chaos("ping:kill:1")
        # Non-matching traffic flows.
        chaos.request(_env(ev.CommitLayer(layer=0), dest=1))
        assert len(inner.delivered) == 1
        # The first matching envelope arms the partition...
        with pytest.raises(RpcTimeout, match="dark"):
            chaos.request(_env(ev.Ping(), dest=1))
        # ...which now black-holes *everything* to that endpoint.
        with pytest.raises(RpcTimeout, match="dark"):
            chaos.request(_env(ev.CommitLayer(layer=1), dest=1))
        # Other endpoints are unaffected.
        chaos.request(_env(ev.CommitLayer(layer=1), dest=0))
        # Recovery revives the endpoint; the kill stays spent.
        chaos.revive(1)
        chaos.request(_env(ev.Ping(), dest=1))
        assert [(e.kind, e.dest) for e in inner.delivered] == [
            (Kind.COMMIT_LAYER, 1),
            (Kind.COMMIT_LAYER, 0),
            (Kind.PING, 1),
        ]
