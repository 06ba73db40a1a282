"""Idempotent delivery: duplicates and retries change nothing.

The acceptance bar for the resilience layer: a seeded round whose
SUBMIT and COMMIT_LAYER envelopes are duplicated (chaos ``dup``) or
retried (chaos ``drop-reply``/``reset`` exercising the rpc retry loop
against a node that already processed the request) must produce a
**byte-identical** RoundResult to the fault-free run — same messages in
the same order, same audits, same byte counts — on both transports.
Convention per ``tests/net/test_transport_parity.py``: seeds are
pinned; if a draw-order change breaks identity, re-pick seeds, don't
loosen the comparison.
"""

import pytest

from repro.crypto.groups import get_group
from repro.net import resilience

from tests.net.test_transport_parity import (
    _canonical,
    _config,
    _run_seeded_round,
)

#: every intake and commit envelope delivered twice
DUP_PLAN = "submit_plain:dup;submit_trap:dup;commit_layer:dup"
#: lost replies and connection resets force the rpc layer to retry
#: requests the node already executed (dedup must replay, not re-run)
RETRY_PLAN = (
    "submit_plain:drop-reply:40%;submit_trap:drop-reply:40%;"
    "commit_layer:drop-reply:40%;commit_layer:reset:20%"
)


@pytest.fixture(autouse=True)
def _deep_retry_budget(monkeypatch):
    """RETRY_PLAN drops 40 % of replies: give every RPC 8 attempts so
    no request exhausts its budget."""
    monkeypatch.setattr(resilience, "RPC_ATTEMPTS", 8)


def _run(transport, variant, net_faults):
    config = _config(transport, "TOY", variant, net_faults=net_faults)
    return _run_seeded_round(config)


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
@pytest.mark.parametrize("variant", ["basic", "trap"])
def test_duplicated_envelopes_apply_exactly_once(transport, variant):
    group = get_group("TOY")
    messages, clean = _run(transport, variant, None)
    _, duped = _run(transport, variant, DUP_PLAN)
    assert clean.ok and duped.ok
    assert sorted(duped.messages) == sorted(messages)
    assert _canonical(group, duped) == _canonical(group, clean)


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_retried_envelopes_apply_exactly_once(transport):
    group = get_group("TOY")
    _, clean = _run(transport, "trap", None)
    _, retried = _run(transport, "trap", RETRY_PLAN)
    assert clean.ok and retried.ok
    assert _canonical(group, retried) == _canonical(group, clean)


def test_dedup_survives_cross_transport_parity():
    """Duplicated traffic on tcp still matches *clean inproc* bytes —
    the wrappers are invisible to the protocol, not merely
    self-consistent."""
    group = get_group("TOY")
    _, inproc_clean = _run("inproc", "trap", None)
    _, tcp_duped = _run("tcp", "trap", DUP_PLAN)
    assert _canonical(group, tcp_duped) == _canonical(group, inproc_clean)
