"""Cross-transport parity: inproc and tcp must be the same protocol.

The transport moves envelopes; it must not influence the crypto.  Under
identical :class:`~repro.crypto.groups.DeterministicRng` seeds the
coordinator draws identical per-(layer, group) sub-seeds in both modes,
so a round driven over loopback TCP sockets must produce a
**byte-identical** :class:`~repro.core.protocol.RoundResult` — same
delivered messages in the same order, same audits, same byte counts —
as the zero-copy in-process round.  (Convention per
``tests/core/test_pipeline.py``: seeds are pinned; if a draw-order
change breaks parity, re-pick seeds, don't loosen the comparison.)
"""

import pytest

from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.crypto.groups import DeterministicRng, get_group
from repro.net.envelopes import encode_audit


def _config(transport, crypto_group, variant="trap", **overrides):
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant=variant,
        iterations=3,
        message_size=8,
        crypto_group=crypto_group,
        nizk_rounds=4,
        transport=transport,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


def _run_seeded_round(config, num_users=4):
    """One fully deterministic round: seeded setup, client, padding,
    and mixing."""
    with AtomDeployment(config) as dep:
        rng = DeterministicRng(b"parity-setup")
        rnd = dep.start_round(0, rng=rng)
        client = Client(dep.group, rng)
        messages = [b"parity-%d" % i for i in range(num_users)]
        for i, message in enumerate(messages):
            gid = i % config.num_groups
            if config.variant == "trap":
                dep.submit_trap(rnd, message, gid, client)
            else:
                dep.submit_plain(rnd, message, gid, client)
        dep.pad_round(rnd, rng)
        result = dep.run_round(rnd, DeterministicRng(b"parity-round"))
    return messages, result


def _canonical(group, result) -> bytes:
    """Serialize every RoundResult field to comparable bytes."""
    parts = [
        b"round:%d" % result.round_id,
        b"aborted:%d" % result.aborted,
        b"reason:" + result.abort_reason.encode(),
        b"offending:" + ",".join(map(str, result.offending_groups)).encode(),
        b"bytes:%d" % result.bytes_sent_total,
        b"traps:%d" % result.num_traps_checked,
    ]
    for message in result.messages:
        parts.append(b"msg:" + message)
    for audit in result.audits:
        parts.append(encode_audit(group, audit))
    return b"\x00".join(parts)


@pytest.mark.parametrize("variant", ["basic", "nizk", "trap"])
def test_round_results_byte_identical_toy(variant):
    group = get_group("TOY")
    messages, inproc = _run_seeded_round(_config("inproc", "TOY", variant))
    _, tcp = _run_seeded_round(_config("tcp", "TOY", variant))
    assert inproc.ok and tcp.ok
    assert sorted(inproc.messages) == sorted(messages)
    assert _canonical(group, inproc) == _canonical(group, tcp)


@pytest.mark.slow
@pytest.mark.parametrize("crypto_group", ["P256"])
def test_round_results_byte_identical_real_groups(crypto_group):
    """A full trap round on the paper's P-256 curve delivers the
    identical message set — byte-identical results — either transport.
    """
    group = get_group(crypto_group)
    messages, inproc = _run_seeded_round(
        _config("inproc", crypto_group, iterations=2), num_users=2
    )
    _, tcp = _run_seeded_round(
        _config("tcp", crypto_group, iterations=2), num_users=2
    )
    assert inproc.ok and tcp.ok
    assert sorted(inproc.messages) == sorted(messages)
    assert sorted(tcp.messages) == sorted(messages)
    assert _canonical(group, inproc) == _canonical(group, tcp)


def test_transport_does_not_change_message_multiset_across_seeds():
    """Different seeds give different permutations, but each seed's
    delivered multiset is transport-independent (and complete)."""
    for seed_suffix in (b"a", b"b"):
        results = {}
        for transport in ("inproc", "tcp"):
            config = _config(transport, "TOY", "basic")
            with AtomDeployment(config) as dep:
                rng = DeterministicRng(b"multi-" + seed_suffix)
                rnd = dep.start_round(0, rng=rng)
                client = Client(dep.group, rng)
                for i in range(4):
                    dep.submit_plain(rnd, b"m%d" % i, i % 2, client)
                results[transport] = dep.run_round(
                    rnd, DeterministicRng(b"mix-" + seed_suffix)
                )
        assert results["inproc"].messages == results["tcp"].messages
