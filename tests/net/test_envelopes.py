"""Round-trip property tests for every envelope type (both backends).

Every payload in the catalogue must survive
``Envelope.from_bytes(env.to_bytes(group), group)`` exactly — on a
Schnorr group and on the P-256 curve backend, whose element encodings
differ (fixed-width residues vs SEC1 compressed points).  Hypothesis
drives the payload contents; the generators build structurally valid
crypto objects (real group elements via ``g^k``) without paying for
real proofs, since the codec is agnostic to proof validity.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.batch import CiphertextBatch
from repro.core.client import Submission, TrapSubmission
from repro.core.group import MixAudit
from repro.core.trustees import GroupReport
from repro.crypto.elgamal import AtomCiphertext
from repro.crypto.groups import get_group
from repro.crypto.nizk import EncProof
from repro.crypto.sigma import SigmaProof
from repro.crypto.vector import (
    CiphertextVector,
    VectorShuffleProof,
    VectorShuffleRound,
)
from repro.net import envelopes as ev
from repro.net.envelopes import Envelope, Kind, WireFormatError, wrap

BACKENDS = ["TOY", "P256"]

#: element cache per backend so strategies don't re-derive g^k
_ELEMENTS = {}


def _elements(backend):
    if backend not in _ELEMENTS:
        group = get_group(backend)
        _ELEMENTS[backend] = [group.g_pow(k) for k in range(1, 17)]
    return _ELEMENTS[backend]


def element_st(backend):
    return st.sampled_from(_elements(backend))


def scalar_st(backend):
    group = get_group(backend)
    return st.integers(min_value=0, max_value=group.q - 1)


def ciphertext_st(backend):
    return st.builds(
        AtomCiphertext,
        R=element_st(backend),
        c=element_st(backend),
        Y=st.one_of(st.none(), element_st(backend)),
    )


def vector_st(backend):
    return st.builds(
        CiphertextVector,
        parts=st.lists(ciphertext_st(backend), min_size=1, max_size=3).map(tuple),
    )


def sigma_st(backend):
    element_values = st.sampled_from([el.value for el in _elements(backend)])
    return st.builds(
        SigmaProof,
        commitments=st.lists(element_values, min_size=1, max_size=3).map(tuple),
        challenge=scalar_st(backend),
        responses=st.lists(scalar_st(backend), min_size=1, max_size=3).map(tuple),
    )


def submission_st(backend):
    def build(vector, proofs):
        return Submission(
            vector=vector,
            proofs=tuple(EncProof(p) for p in proofs[: len(vector.parts)])
            or (EncProof(proofs[0]),),
        )

    return st.builds(
        build,
        vector_st(backend),
        st.lists(sigma_st(backend), min_size=3, max_size=3),
    )


def trap_submission_st(backend):
    return st.builds(
        TrapSubmission,
        pair=st.tuples(submission_st(backend), submission_st(backend)),
        trap_commitment=st.binary(min_size=32, max_size=32),
        gid=st.integers(min_value=0, max_value=63),
    )


def shuffle_proof_st(backend):
    def build(intermediates, perm_sizes, bits):
        rounds = tuple(
            VectorShuffleRound(
                intermediate=(vec,),
                opened_perm=(0,),
                opened_rands=((rand,),),
            )
            for vec, rand in intermediates
        )
        return VectorShuffleProof(
            rounds=rounds, challenge_bits=tuple(bits[: len(rounds)])
        )

    return st.builds(
        build,
        st.lists(
            st.tuples(vector_st(backend), scalar_st(backend)),
            min_size=1,
            max_size=2,
        ),
        st.just(None),
        st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=2),
    )


def audit_st(backend):
    return st.builds(
        MixAudit,
        gid=st.integers(min_value=0, max_value=63),
        shuffles_proved=st.integers(min_value=0, max_value=9),
        shuffles_verified=st.integers(min_value=0, max_value=9),
        reencs_proved=st.integers(min_value=0, max_value=9),
        reencs_verified=st.integers(min_value=0, max_value=9),
        tamperings=st.lists(
            st.tuples(st.integers(min_value=-1, max_value=99), st.text(max_size=12)),
            max_size=2,
        ),
        bytes_sent=st.integers(min_value=0, max_value=2**48),
        final_shuffle_proof=st.one_of(st.none(), shuffle_proof_st(backend)),
    )


def payload_bytes_st():
    return st.lists(st.binary(max_size=64), max_size=4).map(tuple)


def payload_st(backend):
    """A strategy producing one payload of every kind in the catalogue."""
    gid = st.integers(min_value=0, max_value=63)
    return st.one_of(
        st.builds(ev.SubmitPlain, gid=gid, submission=submission_st(backend)),
        st.builds(ev.SubmitTrap, submission=trap_submission_st(backend)),
        st.builds(ev.SubmitOk, accepted=st.integers(min_value=0, max_value=9)),
        st.builds(ev.SubmitErr, reason=st.text(max_size=40)),
        st.builds(
            ev.Mix,
            layer=st.integers(min_value=0, max_value=31),
            successors=st.lists(gid, max_size=3).map(tuple),
            next_keys=st.lists(
                st.one_of(st.none(), element_st(backend)), max_size=3
            ).map(tuple),
            seed=st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
        ),
        st.builds(
            ev.MixBatch,
            layer=st.integers(min_value=0, max_value=31),
            batch=st.lists(vector_st(backend), max_size=3).map(
                lambda vectors: CiphertextBatch.from_vectors(
                    get_group(backend), vectors
                )
            ),
        ),
        st.builds(
            ev.MixSummary,
            layer=st.integers(min_value=0, max_value=31),
            audit=audit_st(backend),
        ),
        st.builds(ev.CommitLayer, layer=st.integers(min_value=0, max_value=31)),
        st.builds(ev.AbortLayer, layer=st.integers(min_value=0, max_value=31)),
        st.builds(
            ev.Fault,
            code=st.sampled_from(["abort", "stalled", "error"]),
            gid=st.integers(min_value=-1, max_value=63),
            culprit=st.integers(min_value=-1, max_value=99),
            stage=st.text(max_size=12),
            alive=st.integers(min_value=0, max_value=9),
            needed=st.integers(min_value=0, max_value=9),
            message=st.text(max_size=40),
        ),
        st.builds(ev.Exit),
        st.builds(ev.ExitPayloads, payloads=payload_bytes_st()),
        st.builds(
            ev.TrapCheck,
            traps=payload_bytes_st(),
            inner_ok=st.booleans(),
            num_inner=st.integers(min_value=0, max_value=99),
        ),
        st.builds(
            ev.GroupReportMsg,
            report=st.builds(
                GroupReport,
                gid=gid,
                traps_ok=st.booleans(),
                inner_ok=st.booleans(),
                num_traps=st.integers(min_value=0, max_value=99),
                num_inner=st.integers(min_value=0, max_value=99),
            ),
        ),
        st.builds(ev.ReportOk),
        st.builds(
            ev.KeyRequest, expected_groups=st.integers(min_value=0, max_value=99)
        ),
        st.builds(
            ev.KeyRelease,
            secret=scalar_st(backend),
            shares=st.lists(scalar_st(backend), max_size=4).map(tuple),
        ),
        st.builds(
            ev.KeyWithheldMsg,
            reason=st.text(max_size=40),
            offending_gids=st.lists(gid, max_size=4).map(tuple),
        ),
        st.builds(ev.Ping),
        st.builds(
            ev.Pong,
            gid=gid,
            alive=st.integers(min_value=0, max_value=9),
            needed=st.integers(min_value=0, max_value=9),
        ),
        st.builds(
            ev.RoundOpen,
            fresh=st.booleans(),
            epoch_round=st.integers(min_value=0, max_value=999),
            seed=st.binary(min_size=1, max_size=48),
            counter=st.integers(min_value=0, max_value=2**64 - 1),
        ),
        st.builds(ev.RoundClose),
        st.builds(ev.FleetStatus),
        st.builds(
            ev.FleetStatusReply,
            name=st.text(max_size=16),
            ready=st.booleans(),
            pid=st.integers(min_value=0, max_value=2**32),
            gids=st.lists(gid, max_size=4).map(tuple),
            open_rounds=st.lists(
                st.integers(min_value=0, max_value=999), max_size=4
            ).map(tuple),
        ),
        st.builds(ev.FleetShutdown),
        st.builds(ev.BundleInstall, data=st.binary(max_size=128)),
        st.builds(ev.BundleFetch),
        st.builds(
            ev.BundleData,
            data=st.binary(max_size=128),
            records=st.integers(min_value=0, max_value=2**32 - 1),
        ),
        st.builds(ev.ControlOk),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_envelope_round_trip(backend, data):
    """decode(encode(env)) == env for every envelope kind."""
    group = get_group(backend)
    payload = data.draw(payload_st(backend))
    env = wrap(
        payload,
        round_id=data.draw(st.integers(min_value=0, max_value=2**31 - 1)),
        sender=data.draw(st.integers(min_value=-3, max_value=63)),
        dest=data.draw(st.integers(min_value=-3, max_value=63)),
        req_id=data.draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )
    decoded = Envelope.from_bytes(env.to_bytes(group), group)
    assert decoded == env


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_kind_is_covered(backend):
    """The strategy above must exercise the whole catalogue: build one
    example of each registered payload type explicitly and round-trip
    it, so adding a Kind without a codec (or test) fails loudly."""
    group = get_group(backend)
    el = _elements(backend)[0]
    sub = Submission(
        vector=CiphertextVector((AtomCiphertext(R=el, c=el, Y=None),)),
        proofs=(EncProof(SigmaProof((el.value,), 5, (7,))),),
    )
    examples = {
        Kind.SUBMIT_PLAIN: ev.SubmitPlain(gid=0, submission=sub),
        Kind.SUBMIT_TRAP: ev.SubmitTrap(
            TrapSubmission(pair=(sub, sub), trap_commitment=b"\x01" * 32, gid=1)
        ),
        Kind.SUBMIT_OK: ev.SubmitOk(accepted=2),
        Kind.SUBMIT_ERR: ev.SubmitErr(reason="nope"),
        Kind.MIX: ev.Mix(
            layer=1, successors=(0, 1), next_keys=(el, None),
            seed=b"\x02" * 32,
        ),
        Kind.MIX_BATCH: ev.MixBatch(
            layer=1,
            batch=CiphertextBatch.from_vectors(
                group, [CiphertextVector((AtomCiphertext(el, el, el),))]
            ),
        ),
        Kind.MIX_SUMMARY: ev.MixSummary(layer=1, audit=MixAudit(gid=3)),
        Kind.COMMIT_LAYER: ev.CommitLayer(layer=1),
        Kind.ABORT_LAYER: ev.AbortLayer(layer=1),
        Kind.FAULT: ev.Fault(code="stalled", gid=2, alive=1, needed=3),
        Kind.EXIT: ev.Exit(),
        Kind.EXIT_PAYLOADS: ev.ExitPayloads(payloads=(b"p1", b"p2")),
        Kind.TRAP_CHECK: ev.TrapCheck(traps=(b"t",), inner_ok=True, num_inner=1),
        Kind.GROUP_REPORT: ev.GroupReportMsg(
            GroupReport(gid=0, traps_ok=True, inner_ok=False, num_traps=2, num_inner=3)
        ),
        Kind.REPORT_OK: ev.ReportOk(),
        Kind.KEY_REQUEST: ev.KeyRequest(expected_groups=2),
        Kind.KEY_RELEASE: ev.KeyRelease(secret=42, shares=(1, 2, 3)),
        Kind.KEY_WITHHELD: ev.KeyWithheldMsg(
            reason="count mismatch", offending_gids=(0, 1)
        ),
        Kind.PING: ev.Ping(),
        Kind.PONG: ev.Pong(gid=1, alive=2, needed=2),
        Kind.ROUND_OPEN: ev.RoundOpen(
            fresh=True, epoch_round=2, seed=b"\x03" * 32, counter=17
        ),
        Kind.ROUND_CLOSE: ev.RoundClose(),
        Kind.FLEET_STATUS: ev.FleetStatus(),
        Kind.FLEET_STATUS_REPLY: ev.FleetStatusReply(
            name="p0", ready=True, pid=4242, gids=(0, 2), open_rounds=(1,)
        ),
        Kind.FLEET_SHUTDOWN: ev.FleetShutdown(),
        Kind.BUNDLE_INSTALL: ev.BundleInstall(data=b"\x04" * 24),
        Kind.BUNDLE_FETCH: ev.BundleFetch(),
        Kind.BUNDLE_DATA: ev.BundleData(data=b"\x05" * 24, records=3),
        Kind.CONTROL_OK: ev.ControlOk(),
    }
    assert set(examples) == set(ev.all_payload_types()), (
        "catalogue drifted: update the examples (and the strategies)"
    )
    for kind, payload in examples.items():
        env = wrap(payload, round_id=7, sender=ev.COORDINATOR, dest=0)
        decoded = Envelope.from_bytes(env.to_bytes(group), group)
        assert decoded == env, kind
        assert decoded.kind is kind


class TestWireErrors:
    def test_bad_magic_rejected(self, toy_group):
        env = wrap(ev.SubmitOk(1), 0, ev.COORDINATOR, 0)
        raw = bytearray(env.to_bytes(toy_group))
        raw[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            Envelope.from_bytes(bytes(raw), toy_group)

    def test_wrong_version_rejected(self, toy_group):
        env = wrap(ev.SubmitOk(1), 0, ev.COORDINATOR, 0)
        env.version = 99
        raw = env.to_bytes(toy_group)
        with pytest.raises(WireFormatError, match="version"):
            Envelope.from_bytes(raw, toy_group)

    def test_header_pins_wire_version_4(self, toy_group):
        # v4: MIX carries no pool flag and the pooled mix's two-step
        # reply kinds are retired — DESIGN.md.
        assert ev.WIRE_VERSION == 4
        raw = wrap(ev.SubmitOk(1), 7, ev.COORDINATOR, 0).to_bytes(toy_group)
        assert raw[:4] == b"AT\x04" + bytes([int(Kind.SUBMIT_OK)])
        assert {11, 12}.isdisjoint(int(kind) for kind in Kind)

    def test_version_2_envelope_rejected_not_adopted(self, toy_group):
        """Payload bytes are opaque to the codec, so a peer still on an
        older payload layout would otherwise only fail at exit-time
        parsing; the header version refuses it at the door."""
        env = wrap(ev.ExitPayloads(payloads=(b"old-layout payload",)), 0, 0, ev.COORDINATOR)
        for old in (2, 3):
            env.version = old
            with pytest.raises(
                WireFormatError, match=f"version {old} .speaking 4."
            ):
                Envelope.from_bytes(env.to_bytes(toy_group), toy_group)

    def test_truncated_body_rejected(self, toy_group):
        env = wrap(ev.ExitPayloads(payloads=(b"payload",)), 0, 0, ev.COORDINATOR)
        raw = env.to_bytes(toy_group)
        with pytest.raises(WireFormatError):
            Envelope.from_bytes(raw[:-3], toy_group)

    def test_trailing_bytes_rejected(self, toy_group):
        env = wrap(ev.SubmitOk(1), 0, ev.COORDINATOR, 0)
        raw = bytearray(env.to_bytes(toy_group))
        raw += b"\x00"
        # fix up the declared body length so only the codec overrun trips
        import struct

        body_len = struct.unpack(">I", raw[24:28])[0]
        raw[24:28] = struct.pack(">I", body_len + 1)
        with pytest.raises(WireFormatError, match="trailing"):
            Envelope.from_bytes(bytes(raw), toy_group)

    def test_invalid_element_rejected_lazily(self):
        """MIX_BATCH decode is a structural scan; element validation
        runs on first ``.vectors`` access (bounded-memory data plane),
        and still surfaces as WireFormatError — and the mix that would
        read the adopted batch rejects it too."""
        from repro.core.batch import BatchFormatError
        from repro.core.group import GroupContext
        from repro.core.server import AtomServer

        group = get_group("P256")
        el = group.g_pow(3)
        env = wrap(
            ev.MixBatch(
                layer=0,
                batch=CiphertextBatch.from_vectors(
                    group, [CiphertextVector((AtomCiphertext(el, el, None),))]
                ),
            ),
            0, 0, 1,
        )
        raw = bytearray(env.to_bytes(group))
        # First element byte after the header (28) + layer (4) +
        # vector count (4) + part count (4) is R's SEC1 prefix byte;
        # 0xFF is never a valid compressed-point prefix.
        raw[40] = 0xFF
        decoded = Envelope.from_bytes(bytes(raw), group)
        with pytest.raises(WireFormatError, match="invalid element"):
            decoded.payload.vectors
        ctx = GroupContext(
            0, [AtomServer(server_id=0, group=group)], group, nizk_rounds=8
        )
        with pytest.raises(BatchFormatError, match="invalid element"):
            ctx.mix_batch(decoded.payload.batch, [None])

    def test_invalid_element_rejected_eagerly_elsewhere(self):
        """Non-batch payloads still validate elements at decode time."""
        group = get_group("P256")
        el = group.g_pow(3)
        env = wrap(
            ev.Mix(layer=0, successors=(0,), next_keys=(el,), seed=None),
            0, ev.COORDINATOR, 0,
        )
        raw = bytearray(env.to_bytes(group))
        # next_keys[0]'s SEC1 prefix byte: header 28 + layer 4 +
        # successor count 4 + successor 4 + key count 4 + present flag 1
        raw[49] = 0xFF
        with pytest.raises(WireFormatError, match="element"):
            Envelope.from_bytes(bytes(raw), group)

    def test_mix_batch_structural_garbage_rejected(self):
        """Hostile counts/flags are rejected at decode, before any
        element math or allocation."""
        group = get_group("P256")
        env = wrap(ev.MixBatch(layer=0, batch=CiphertextBatch(group)), 0, 0, 1)
        raw = bytearray(env.to_bytes(group))
        import struct as _struct

        raw[32:36] = _struct.pack(">I", 0xFFFFFFFF)  # absurd record count
        with pytest.raises(WireFormatError, match="malformed MIX_BATCH"):
            Envelope.from_bytes(bytes(raw), group)

    def test_unknown_kind_rejected(self, toy_group):
        env = wrap(ev.SubmitOk(1), 0, ev.COORDINATOR, 0)
        raw = bytearray(env.to_bytes(toy_group))
        raw[3] = 250  # kind byte
        with pytest.raises(WireFormatError, match="kind"):
            Envelope.from_bytes(bytes(raw), toy_group)
