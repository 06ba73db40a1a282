"""Unit tests for the Schnorr group abstraction and message encoding."""

import pytest

from repro.crypto.groups import (
    DeterministicRng,
    EncodingError,
    Group,
    GroupElement,
    GroupParams,
    available_groups,
    get_group,
)


class TestGroupStructure:
    def test_safe_prime_relationship(self, toy_group):
        assert toy_group.p == 2 * toy_group.q + 1

    def test_generator_has_subgroup_order(self, toy_group):
        assert (toy_group.g ** toy_group.q).is_identity()
        assert not (toy_group.g ** 1).is_identity()

    def test_generator_is_quadratic_residue(self, toy_group):
        assert pow(toy_group.params.g, toy_group.q, toy_group.p) == 1

    @pytest.mark.parametrize("name", ["TOY"])
    def test_all_parameter_sets_valid(self, name):
        group = get_group(name)
        assert group.p == 2 * group.q + 1
        assert (group.g ** group.q).is_identity()

    def test_unknown_group_raises(self):
        with pytest.raises(KeyError):
            get_group("NOPE")

    @pytest.mark.parametrize("name", ["TEST", "P256ISH", "MODP2048"])
    def test_retired_groups_are_refused(self, name):
        """P-256 is the deployment group and TOY the unit-test group;
        the other Schnorr parameter sets are gone."""
        assert available_groups() == ["P256", "TOY"]
        with pytest.raises(KeyError, match=r"choose from \['P256', 'TOY'\]"):
            get_group(name)

    def test_groups_are_cached(self):
        assert get_group("TOY") is get_group("TOY")


class TestElementArithmetic:
    def test_mul_and_div_inverse(self, toy_group):
        a = toy_group.random_element()
        b = toy_group.random_element()
        assert (a * b) / b == a

    def test_pow_addition_law(self, toy_group):
        x, y = 12345, 67890
        g = toy_group.g
        assert (g ** x) * (g ** y) == g ** (x + y)

    def test_pow_mod_q_reduction(self, toy_group):
        g = toy_group.g
        assert g ** (toy_group.q + 5) == g ** 5

    def test_inverse(self, toy_group):
        a = toy_group.random_element()
        assert (a * a.inverse()).is_identity()

    def test_identity(self, toy_group):
        a = toy_group.random_element()
        assert a * toy_group.identity == a

    def test_element_outside_range_rejected(self, toy_group):
        with pytest.raises(ValueError):
            GroupElement(0, toy_group)
        with pytest.raises(ValueError):
            GroupElement(toy_group.p, toy_group)

    def test_equality_across_groups(self):
        toy = get_group("TOY")
        twin = Group(GroupParams("TWIN", toy.p, toy.params.g))
        assert toy.element(4) != twin.element(4)

    def test_hashable(self, toy_group):
        a = toy_group.random_element()
        assert a in {a}

    def test_to_bytes_fixed_width(self, toy_group):
        width = len(toy_group.identity.to_bytes())
        assert len(toy_group.random_element().to_bytes()) == width


class TestScalars:
    def test_random_scalar_in_range(self, toy_group):
        for _ in range(100):
            s = toy_group.random_scalar()
            assert 1 <= s < toy_group.q

    def test_deterministic_rng_reproducible(self, toy_group):
        a = toy_group.random_scalar(DeterministicRng(b"seed"))
        b = toy_group.random_scalar(DeterministicRng(b"seed"))
        assert a == b

    def test_hash_to_scalar_deterministic(self, toy_group):
        assert toy_group.hash_to_scalar(b"a", b"b") == toy_group.hash_to_scalar(b"a", b"b")

    def test_hash_to_scalar_length_prefixed(self, toy_group):
        # ("ab", "c") must differ from ("a", "bc"): parts are length-framed.
        assert toy_group.hash_to_scalar(b"ab", b"c") != toy_group.hash_to_scalar(b"a", b"bc")


class TestMessageEncoding:
    @pytest.mark.parametrize(
        "message", [b"", b"a", b"hello", b"\x00\x00lead", b"\xff" * 5]
    )
    def test_roundtrip(self, toy_group, message):
        if len(message) <= toy_group.params.message_bytes:
            assert toy_group.decode(toy_group.encode(message)) == message

    def test_roundtrip_max_capacity(self, test_group):
        message = b"\x01" * test_group.params.message_bytes
        assert test_group.decode(test_group.encode(message)) == message

    def test_oversized_message_rejected(self, toy_group):
        with pytest.raises(EncodingError):
            toy_group.encode(b"x" * (toy_group.params.message_bytes + 1))

    def test_encoded_element_is_in_subgroup(self, test_group):
        el = test_group.encode(b"group?")
        assert (el ** test_group.q).is_identity()

    def test_chunked_roundtrip(self, test_group):
        message = bytes(range(256)) * 2
        elements = test_group.encode_chunks(message)
        assert test_group.decode_chunks(elements) == message

    def test_chunked_empty(self, test_group):
        assert test_group.decode_chunks(test_group.encode_chunks(b"")) == b""

    def test_elements_for_size(self, test_group):
        cap = test_group.params.message_bytes
        assert test_group.elements_for_size(1) == 1
        assert test_group.elements_for_size(cap) == 1
        assert test_group.elements_for_size(cap + 1) == 2
        assert test_group.elements_for_size(160) == -(-160 // cap)

    def test_decode_garbage_raises(self, toy_group):
        # An element whose payload has an invalid length byte.
        bad = toy_group.element(toy_group.p - 2)
        try:
            toy_group.decode(bad)
        except EncodingError:
            pass  # acceptable: flagged as garbage


class TestDeterministicRng:
    def test_randint_bounds(self):
        rng = DeterministicRng(b"bounds")
        values = [rng.randint(3, 7) for _ in range(200)]
        assert min(values) == 3 and max(values) == 7

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(b"perm")
        items = list(range(50))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # overwhelmingly likely

    def test_randbytes_length(self):
        rng = DeterministicRng(b"len")
        assert len(rng.randbytes(100)) == 100

    def test_streams_differ_by_seed(self):
        assert DeterministicRng(b"a").randbytes(32) != DeterministicRng(b"b").randbytes(32)
