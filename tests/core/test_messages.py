"""Tests for wire formats: padding, traps, inner ciphertexts."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.core import messages as fmt
from repro.core.client import TrapSubmission
from repro.core.messages import PayloadSpec
from repro.crypto.commit import commit
from repro.crypto.elgamal import AtomElGamal
from repro.crypto.groups import DeterministicRng, get_group
from repro.crypto.kem import Cca2Ciphertext, cca2_decrypt, cca2_encrypt

GROUPS = ("TOY", "P256")
#: message sizes around every threshold of the sizing rules: empty, the
#: dummy-nonce floor (12 | 13), one P-256 element of plain payload
#: (26 | 27), and the paper's 32 / 80 / 160-byte applications
BOUNDARY_SIZES = (0, 1, 12, 13, 26, 27, 32, 80, 160)

#: (group, message bytes, trap variant) -> (payload bytes, elements);
#: the table of ISSUE 17 / DESIGN.md "Payload layout and ciphertext
#: expansion".  Before wire version 3 the rows read 122/5, 170/6,
#: 250/9, 29/1, 21/4 and 97/17.
EXPANSION_TABLE = [
    ("P256", 32, True, 86, 3),
    ("P256", 80, True, 134, 5),
    ("P256", 160, True, 214, 8),
    ("P256", 24, False, 27, 1),
    ("TOY", 16, False, 19, 4),
    ("TOY", 32, True, 61, 11),
]

derandomized = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def group():
    return get_group("TOY")


@pytest.fixture(scope="module")
def keypair(group):
    return AtomElGamal(group).keygen(DeterministicRng(b"test-messages"))


class TestPadding:
    def test_roundtrip(self):
        assert PayloadSpec.unpad(PayloadSpec.sized(32).pad(b"hi")) == b"hi"

    def test_empty(self):
        assert PayloadSpec.unpad(PayloadSpec.sized(16).pad(b"")) == b""

    def test_exact_fit(self):
        msg = b"x" * 14
        assert PayloadSpec.unpad(PayloadSpec.sized(16).pad(msg)) == msg

    def test_too_large_rejected(self):
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.sized(16).pad(b"x" * 15)

    def test_padded_size_exact(self):
        assert len(PayloadSpec.sized(64).pad(b"ab")) == 64

    def test_length_prefix_is_a_big_endian_u16(self):
        assert PayloadSpec.sized(8).pad(b"abc") == b"\x00\x03abc\x00\x00\x00"

    def test_explicit_size_overrides_the_spec(self):
        spec = PayloadSpec.sized(64)
        assert len(spec.pad(b"ab", 10)) == 10
        assert spec.pad_message(b"ab", 32) == spec.pad(b"ab", 2 + 32)

    def test_truncated_rejected(self):
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.unpad(b"\x00")

    def test_declared_length_past_the_payload_rejected(self):
        for bad in (b"\xff\xff" + b"\x00" * 14, b"\x00\x0f" + b"\x00" * 14):
            with pytest.raises(fmt.MessageFormatError):
                PayloadSpec.unpad(bad)
        assert PayloadSpec.unpad(b"\x00\x0e" + b"\x00" * 14) == b"\x00" * 14

    def test_size_past_the_u16_rejected(self):
        assert len(PayloadSpec.sized(0xFFFF).pad(b"x" * 0xFFFD)) == 0xFFFF
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.sized(0x10000).pad(b"x")

    @given(st.data())
    @derandomized
    def test_roundtrip_property(self, data):
        size = data.draw(st.integers(2, 300))
        payload = data.draw(st.binary(max_size=size - 2))
        padded = PayloadSpec.sized(size).pad(payload)
        assert len(padded) == size
        assert PayloadSpec.unpad(padded) == payload


class TestPlainPayload:
    def test_roundtrip(self):
        payload = PayloadSpec.sized(64).build_plain(b"tweet")
        assert PayloadSpec.parse_plain(payload) == b"tweet"

    def test_wrong_tag_rejected(self):
        trap = PayloadSpec.sized(64).build_trap(1, b"n" * 16)
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.parse_plain(trap)


class TestTrapPayload:
    def test_roundtrip(self):
        payload = PayloadSpec.sized(64).build_trap(7, b"n" * 16)
        gid, nonce = PayloadSpec.parse_trap(payload)
        assert gid == 7 and nonce == b"n" * 16

    def test_is_trap(self):
        spec = PayloadSpec.sized(64)
        assert PayloadSpec.is_trap(spec.build_trap(0, b"0" * 16))
        assert not PayloadSpec.is_trap(spec.build_plain(b"x"))

    def test_bad_nonce_length(self):
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.sized(64).build_trap(0, b"short")

    def test_traps_same_size_as_plain(self):
        """Indistinguishability requires equal sizes."""
        spec = PayloadSpec.sized(80)
        assert len(spec.build_trap(3, b"n" * 16)) == len(spec.build_plain(b"msg"))


class TestInnerPayload:
    def test_roundtrip(self, group, keypair):
        inner = cca2_encrypt(group, keypair.public, b"hello inner")
        spec = PayloadSpec.sized(fmt.inner_payload_size(group, 32))
        assert PayloadSpec.parse_inner(group, spec.build_inner(group, inner)) == inner

    def test_is_inner(self, group, keypair):
        inner = cca2_encrypt(group, keypair.public, b"x")
        spec = PayloadSpec.sized(fmt.inner_payload_size(group, 32))
        assert PayloadSpec.is_inner(spec.build_inner(group, inner))
        assert not PayloadSpec.is_inner(spec.build_trap(0, b"0" * 16))

    def test_garbage_not_inner_or_trap(self):
        assert not PayloadSpec.is_inner(b"junk" + b"\x00" * 24)  # malformed framing
        assert not PayloadSpec.is_trap(b"\xff" * 32)

    def test_cca2_from_bytes_too_short(self, group):
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.cca2_from_bytes(group, b"\x01" * 4)

    def test_inner_size_is_the_kem_size_plus_framing(self, group):
        # u16 + kind byte around (R, 16-byte tag, u16 + message)
        assert fmt.inner_payload_size(group, 32) == 2 + 1 + (
            group.element_bytes + 16 + 2 + 32
        )


class TestPayloadSpec:
    def test_trap_spec_fits_inner(self, group):
        spec = PayloadSpec.for_deployment(group, 32, trap_variant=True)
        assert spec.payload_size >= fmt.inner_payload_size(group, 32)
        assert spec.elements_per_message == group.elements_for_size(spec.payload_size)

    def test_plain_spec_smaller(self, group):
        trap = PayloadSpec.for_deployment(group, 32, trap_variant=True)
        plain = PayloadSpec.for_deployment(group, 32, trap_variant=False)
        assert plain.payload_size < trap.payload_size

    def test_message_size_scales_payload(self, group):
        small = PayloadSpec.for_deployment(group, 16, trap_variant=True)
        large = PayloadSpec.for_deployment(group, 160, trap_variant=True)
        assert large.payload_size > small.payload_size

    @pytest.mark.parametrize("name,size,trap,payload,elements", EXPANSION_TABLE)
    def test_expansion_table(self, name, size, trap, payload, elements):
        spec = PayloadSpec.for_deployment(get_group(name), size, trap_variant=trap)
        assert (spec.payload_size, spec.elements_per_message) == (payload, elements)

    def test_payload_past_the_u16_rejected(self, group):
        plain_limit = 0xFFFF - 3
        assert PayloadSpec.for_deployment(group, plain_limit, False).payload_size == 0xFFFF
        with pytest.raises(fmt.MessageFormatError, match="65535"):
            PayloadSpec.for_deployment(group, plain_limit + 1, False)
        trap_limit = 0xFFFF - fmt.inner_payload_size(group, 0)
        assert PayloadSpec.for_deployment(group, trap_limit, True).payload_size == 0xFFFF
        with pytest.raises(fmt.MessageFormatError, match="65535"):
            PayloadSpec.for_deployment(group, trap_limit + 1, True)


class TestPayloadSpecCodec:
    def test_round_trip_through_methods(self, group, keypair):
        spec = PayloadSpec.for_deployment(group, 32, trap_variant=True)
        assert spec.parse_plain(spec.build_plain(b"hi")) == b"hi"
        assert spec.parse_trap(spec.build_trap(7, b"y" * 16)) == (7, b"y" * 16)
        assert spec.is_dummy(spec.build_dummy(b"z" * 8))
        assert spec.is_trap(spec.build_trap(0, b"0" * 16))
        assert not spec.is_inner(spec.build_trap(0, b"0" * 16))
        inner = cca2_encrypt(group, keypair.public, b"deep")
        assert spec.parse_inner(group, spec.build_inner(group, inner)) == inner

    def test_sized_spec_pads_to_its_size(self):
        spec = PayloadSpec.sized(40)
        assert len(spec.pad(b"abc")) == 40
        assert spec.unpad(spec.pad(b"abc")) == b"abc"
        assert spec.elements_per_message == 0

    def test_pad_overflow_raises(self):
        spec = PayloadSpec.sized(8)
        with pytest.raises(fmt.MessageFormatError):
            spec.pad(b"much too long for eight bytes")


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("message_size", BOUNDARY_SIZES)
class TestBuildersAtBoundarySizes:
    """Every builder fills the deployment's payload exactly and parses
    back, for full-length and empty messages, on every backend."""

    @given(data=st.data())
    @settings(
        max_examples=4, deadline=None, derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    def test_trap_deployment(self, name, message_size, data):
        group = get_group(name)
        spec = PayloadSpec.for_deployment(group, message_size, trap_variant=True)
        message = data.draw(st.binary(max_size=message_size))
        rng = DeterministicRng(b"boundary|" + name.encode() + message)
        keypair = AtomElGamal(group).keygen(rng)

        inner = cca2_encrypt(
            group, keypair.public, spec.pad_message(message, message_size), rng
        )
        payload = spec.build_inner(group, inner)
        assert len(payload) == spec.payload_size
        assert spec.is_inner(payload) and not spec.is_trap(payload)
        parsed = spec.parse_inner(group, payload)
        assert parsed == inner
        assert spec.unpad(cca2_decrypt(group, keypair.secret, parsed)) == message

        nonce = data.draw(st.binary(min_size=16, max_size=16))
        trap = spec.build_trap(3, nonce)
        assert len(trap) == spec.payload_size
        assert spec.parse_trap(trap) == (3, nonce)
        assert not spec.is_inner(trap) and not spec.is_dummy(trap)

        dummy = spec.build_dummy(nonce[: fmt.DUMMY_NONCE_BYTES])
        assert len(dummy) == spec.payload_size and spec.is_dummy(dummy)

    @given(data=st.data())
    @settings(
        max_examples=8, deadline=None, derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    def test_plain_deployment(self, name, message_size, data):
        spec = PayloadSpec.for_deployment(
            get_group(name), message_size, trap_variant=False
        )
        message = data.draw(st.binary(max_size=message_size))
        payload = spec.build_plain(message)
        assert len(payload) == spec.payload_size
        assert spec.parse_plain(payload) == message
        assert not spec.is_dummy(payload)
        dummy = spec.build_dummy(b"n" * fmt.DUMMY_NONCE_BYTES)
        assert len(dummy) == spec.payload_size and spec.is_dummy(dummy)
        with pytest.raises(fmt.MessageFormatError):
            spec.parse_plain(dummy)
        if message_size >= fmt.DUMMY_NONCE_BYTES:
            with pytest.raises(fmt.MessageFormatError):
                spec.build_plain(b"x" * (message_size + 1))


class TestTrapRoundAtThePapersConstants:
    """One seeded P-256 trap round with 32-byte messages: the shape the
    paper's evaluation and ``sim/runner.py`` assume."""

    MESSAGES = [bytes([65 + i]) * 32 for i in range(4)]

    def _round(self, seed):
        config = DeploymentConfig(
            num_servers=6, num_groups=2, group_size=2, variant="trap",
            iterations=2, message_size=32, crypto_group="P256",
        )
        rng = DeterministicRng(seed)
        dep = AtomDeployment(config)
        rnd = dep.start_round(0, rng)
        return dep, rnd, rng, Client(dep.group, rng)

    def test_three_parts_six_proofs_and_every_message_recovered(self):
        dep, rnd, rng, client = self._round(b"issue17-honest")
        assert (dep.spec.payload_size, dep.spec.elements_per_message) == (86, 3)
        for i, message in enumerate(self.MESSAGES):
            dep.submit_trap(rnd, message, entry_gid=i % 2, client=client)
        assert len(rnd.trap_submissions) == 4
        for _, sub in rnd.trap_submissions.values():
            assert [len(s.vector.parts) for s in sub.pair] == [3, 3]
            assert sum(len(s.proofs) for s in sub.pair) == 6
        result = dep.run_round(rnd, rng)
        assert result.ok and result.num_traps_checked == 4
        assert sorted(result.messages) == sorted(self.MESSAGES)

    def test_tampered_inner_ciphertext_is_caught_at_the_exit(self):
        """The trustees release the key (traps and counts are fine);
        the 128-bit tag then refuses the mauled inner ciphertext."""
        dep, rnd, rng, client = self._round(b"issue17-mauled")
        for i, message in enumerate(self.MESSAGES[:3]):
            dep.submit_trap(rnd, message, entry_gid=i % 2, client=client)
        spec, group, ctx = dep.spec, dep.group, rnd.contexts[1]
        inner = cca2_encrypt(
            group, rnd.trustees.public_key, spec.pad_message(b"evil", 32), rng
        )
        mauled = Cca2Ciphertext(
            inner.R, inner.tag, bytes([inner.body[0] ^ 1]) + inner.body[1:]
        )
        trap = spec.build_trap(1, rng.randbytes(fmt.TRAP_NONCE_BYTES))
        pair = (
            client._submit_payload(spec.build_inner(group, mauled), ctx.public_key, 1),
            client._submit_payload(trap, ctx.public_key, 1),
        )
        dep.inject_trap_submission(
            rnd, 1, TrapSubmission(pair=pair, trap_commitment=commit(trap), gid=1)
        )
        result = dep.run_round(rnd, rng)
        assert result.aborted
        assert result.abort_reason == "inner ciphertext failed authentication"
        assert sorted(result.messages) == sorted(self.MESSAGES[:3])
