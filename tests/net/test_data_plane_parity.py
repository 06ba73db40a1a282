"""Data-plane parity: every production mix runs on batch buffers.

The batch data plane moves serialized record buffers instead of vector
object lists, but it replicates the object path's rng draw order
exactly, so a seeded round produces a **byte-identical**
:class:`~repro.core.protocol.RoundResult` over either transport.  The
object plane itself is gone;
the digests below are what it produced for the same seeded rounds,
recorded before it was removed.  (Seed convention per
``tests/net/test_transport_parity.py``: pinned seeds, strict
comparison.)
"""

import hashlib
from unittest import mock

import pytest

from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.core.group import GroupContext
from repro.core.server import Behavior
from repro.crypto.groups import DeterministicRng, get_group
from repro.net.envelopes import encode_audit

#: sha256 of ``_canonical`` for the object plane's seeded rounds
OBJECT_PLANE = {
    "basic": "e499ea2ab4fc54b41eb66b4c7ca4bc940c38d4cd90b6b5efcbe9131d14102b36",
    "nizk": "bd23ab535a78629d8a1e8ce2917be0e9fb7252500ff3bb5592f6b81acc526e22",
    "trap": "2b10d9d2e0ca985efdc2ee877fc087d031dd43d7dd6a62d7170c77e26a185722",
    "P256": "fca45f95169711d73b0cec41b9b6380b3ebe0817524dce8784c20bbae5818d66",
}

#: the deterministic tamperings (they draw no randomness), recorded on
#: the object path they used to fall back to: (ok, digest)
TAMPERED = {
    ("basic", "BAD_SHUFFLE"): (
        True, "d349901f0539c0ec02d552c4b984384d24c08f7a0bc95da2fa51854207ad64b2"
    ),
    ("basic", "DUPLICATE_ONE"): (
        True, "b8d73f92e7e0da88f20c2e6334377f67a97fb0b5662e6898b1bc465ec77034a2"
    ),
    ("trap", "BAD_SHUFFLE"): (
        True, "00a8923ecfd96a47c06e1f82cf69ef6bc21e1b3360c089af9d13207153cb1912"
    ),
    ("trap", "DUPLICATE_ONE"): (
        False, "5d8f76158ee7e8047629d5a52da9d791d4a88b6c5c39362887848e69d355b2f1"
    ),
}


def _config(crypto_group="TOY", variant="trap", **overrides):
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant=variant,
        iterations=3,
        message_size=8,
        crypto_group=crypto_group,
        nizk_rounds=4,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


def _run_seeded_round(config, num_users=4, behavior=None, seed=b"plane"):
    """One seeded round; ``behavior`` is given to the first member of
    group 0 once the round's groups are formed."""
    with AtomDeployment(config) as dep:
        rng = DeterministicRng(seed + b"-setup")
        rnd = dep.start_round(0, rng=rng)
        if behavior is not None:
            rnd.contexts[0].servers[0].behavior = behavior
        client = Client(dep.group, rng)
        messages = [b"plane-%d" % i for i in range(num_users)]
        for i, message in enumerate(messages):
            gid = i % config.num_groups
            if config.variant == "trap":
                dep.submit_trap(rnd, message, gid, client)
            else:
                dep.submit_plain(rnd, message, gid, client)
        dep.pad_round(rnd, rng)
        result = dep.run_round(rnd, DeterministicRng(seed + b"-round"))
    return messages, result


def _canonical(group, result) -> bytes:
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


def _digest(result, crypto_group="TOY") -> str:
    return hashlib.sha256(_canonical(get_group(crypto_group), result)).hexdigest()


@pytest.mark.parametrize("variant", ["basic", "nizk", "trap"])
def test_batch_plane_byte_identical_to_object_plane(variant):
    messages, batch = _run_seeded_round(_config(variant=variant))
    assert batch.ok
    assert sorted(batch.messages) == sorted(messages)
    assert _digest(batch) == OBJECT_PLANE[variant]


@pytest.mark.slow
@pytest.mark.parametrize("crypto_group", ["P256"])
def test_data_plane_parity_real_groups(crypto_group):
    messages, batch = _run_seeded_round(
        _config(crypto_group, iterations=2), num_users=2
    )
    assert batch.ok
    assert sorted(batch.messages) == sorted(messages)
    assert _digest(batch, crypto_group) == OBJECT_PLANE[crypto_group]


def test_tampering_round_still_catches():
    """A malicious member mixes on the batch plane like everyone else;
    the trap catch keeps working end to end."""
    config = _config()
    with AtomDeployment(config) as dep:
        rng = DeterministicRng(b"tamper-setup")
        dep.servers[0].behavior = Behavior.REPLACE_ONE
        rnd = dep.start_round(0, rng=rng)
        client = Client(dep.group, rng)
        for i in range(4):
            dep.submit_trap(rnd, b"t%d" % i, i % 2, client)
        dep.pad_round(rnd, rng)
        result = dep.run_round(rnd, DeterministicRng(b"tamper-mix"))
    # The seeded coin may land either way per group; the round either
    # catches the substitution (abort) or the attacker got lucky — but
    # it must never crash or lose honest messages silently.
    if result.ok:
        assert len(result.messages) >= 4
    else:
        assert result.offending_groups


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
@pytest.mark.parametrize("variant, behavior", sorted(TAMPERED))
def test_deterministic_tamperings_keep_their_digests(variant, behavior, transport):
    ok, digest = TAMPERED[(variant, behavior)]
    _, result = _run_seeded_round(
        _config(variant=variant, transport=transport),
        # basic rounds send one ciphertext per user: 8 users give the
        # duplicator two records per outgoing batch
        num_users=8 if variant == "basic" else 4,
        behavior=Behavior[behavior],
        seed=b"tamper",
    )
    assert result.ok == ok
    assert [t for a in result.audits for t in a.tamperings] == [
        (2, behavior.lower() if behavior == "BAD_SHUFFLE" else "duplicate")
    ]
    assert _digest(result) == digest


def test_replacement_over_tcp_is_caught_and_names_the_member():
    """A seeded REPLACE_ONE round whose victim is a trap: the trustees
    withhold the key, the entry group is named, and the audit names
    the tampering member."""
    config = _config(transport="tcp")
    with AtomDeployment(config) as dep:
        rng = DeterministicRng(b"replace-6-setup")
        rnd = dep.start_round(0, rng=rng)
        tamperer = rnd.contexts[0].servers[0]
        tamperer.behavior = Behavior.REPLACE_ONE
        client = Client(dep.group, rng)
        for i in range(4):
            dep.submit_trap(rnd, b"plane-%d" % i, i % 2, client)
        dep.pad_round(rnd, rng)
        result = dep.run_round(rnd, DeterministicRng(b"replace-6-round"))
    assert result.aborted and not result.messages
    assert "trustees withheld key" in result.abort_reason
    assert result.offending_groups == [0]
    assert [t for a in result.audits for t in a.tamperings] == [
        (tamperer.server_id, "replace")
    ]


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_production_rounds_never_call_the_object_mix(transport):
    """``GroupContext.mix`` is only the tests' Algorithm-1 oracle:
    trap rounds with every behavior (``HONEST``, the servers' default,
    included) and a NIZK round all mix through the batch kernels."""
    runs = [(_config(transport=transport), b) for b in Behavior]
    runs.append((_config(variant="nizk", transport=transport), None))
    with mock.patch.object(
        GroupContext, "mix", autospec=True, side_effect=GroupContext.mix
    ) as spy:
        for config, behavior in runs:
            _, result = _run_seeded_round(config, behavior=behavior)
            assert result.audits  # the round mixed
    assert spy.call_count == 0
