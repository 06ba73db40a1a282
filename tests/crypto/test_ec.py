"""Unit tests for the NIST P-256 backend (``repro.crypto.ec``).

Point arithmetic is checked against published P-256 multiples of the
generator and against an independent double-and-add reference written
directly from the curve equation, so a bug in the Jacobian formulas
cannot hide behind itself.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.ec import (
    _INF,
    B,
    GX,
    GY,
    JAC_OPS,
    LOCKSTEP_MIN_CHAINS,
    N,
    P,
    EcGroup,
    EcPoint,
    _batch_to_affine,
    _comb_lockstep,
    _jdbl,
    _jmul,
    _jneg,
    _scalar_mult_many,
    _to_affine,
)
from repro.crypto.fastexp import FixedBaseComb, ModIntOps
from repro.crypto.groups import DeterministicRng, EncodingError, get_group

GROUP = get_group("P256")

# Published multiples of the P-256 base point (affine x, y).
KNOWN_MULTIPLES = {
    1: (GX, GY),
    2: (
        0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978,
        0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1,
    ),
    3: (
        0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C,
        0x8734640C4998FF7E374B06CE1A64A2ECD82AB036384FB83D9A79B127A27D5032,
    ),
    5: (
        0x51590B7A515140D2D784C85608668FDFEF8C82FD1F5BE52421554A0DC3D033ED,
        0xE0C17DA8904A727D8AE1BF36BF8A79260D012F00D4D80888D1D0BB44FDA16DA4,
    ),
}


def _ref_add(p1, p2):
    """Affine addition straight from the curve equation (reference)."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1 - 3) * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return (x3, (lam * (x1 - x3) - y1) % P)


def _ref_mult(k, base=(GX, GY)):
    """Double-and-add reference scalar multiplication (of the generator
    unless another affine ``base`` — or ``None``, the identity — is given)."""
    acc, addend = None, base
    while k:
        if k & 1:
            acc = _ref_add(acc, addend)
        addend = _ref_add(addend, addend)
        k >>= 1
    return acc


class TestCurveConstants:
    def test_generator_on_curve(self):
        assert (GY * GY - (GX ** 3 - 3 * GX + B)) % P == 0

    def test_group_order(self):
        assert (GROUP.g ** N).is_identity()
        assert not (GROUP.g ** (N - 1)).is_identity()


class TestPointArithmetic:
    @pytest.mark.parametrize("k", sorted(KNOWN_MULTIPLES))
    def test_known_multiples(self, k):
        point = GROUP.g ** k
        assert (point.x, point.y) == KNOWN_MULTIPLES[k]

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 12345, N - 1, N - 2])
    def test_matches_reference_ladder(self, k):
        point = GROUP.g ** k
        assert (point.x, point.y) == _ref_mult(k)

    def test_jacobian_vs_affine_paths_agree(self):
        rng = DeterministicRng(b"ec-jacobian")
        a = GROUP.random_element(rng)
        b = GROUP.random_element(rng)
        via_affine = a * b
        via_jac = GROUP._wrap_raw(_jmul(a._jac(), b._jac()))
        assert via_affine == via_jac
        assert GROUP._wrap_raw(_jdbl(a._jac())) == a * a

    def test_identity_laws(self):
        e = GROUP.identity
        a = GROUP.random_element(DeterministicRng(b"ec-identity"))
        assert e * a == a and a * e == a
        assert a / a == e
        assert a * a.inverse() == e
        assert (e ** 12345).is_identity()
        assert e.inverse() == e

    def test_inverse_negates_y(self):
        a = GROUP.random_element(DeterministicRng(b"ec-neg"))
        assert a.inverse() == EcPoint(GROUP, a.x, P - a.y)

    def test_negative_exponents_reduce_mod_n(self):
        a = GROUP.random_element(DeterministicRng(b"ec-negexp"))
        assert a ** -1 == a ** (N - 1) == a.inverse()

    def test_batch_to_affine_matches_single(self):
        rng = DeterministicRng(b"ec-batch")
        jacs = [_jdbl(GROUP.random_element(rng)._jac()) for _ in range(5)]
        jacs.append(JAC_OPS.one)
        normalized = _batch_to_affine(jacs)
        for jac, norm in zip(jacs, normalized):
            assert _to_affine(jac) == _to_affine(norm)


EDGE_SCALARS = [0, 1, 2, 15, 16, 17, 31, 32, 33, N - 1, N, N + 1, 2 ** 256 - 1]
scalars = st.one_of(st.sampled_from(EDGE_SCALARS), st.integers(0, 2 ** 256 - 1))
kernel_settings = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: an affine point that is not the generator, plus its Jacobian form
_Q = _ref_mult(0xC0FFEE)
_QJ = (_Q[0], _Q[1], 1)
_Q_COMB = FixedBaseComb(JAC_OPS, N, _QJ)
_G_COMB = FixedBaseComb(JAC_OPS, N, (GX, GY, 1))


class TestSignedComb:
    """The signed-digit fixed-base comb against double-and-add."""

    def test_table_shape(self):
        # 256-bit order, w = 6: 256 // 6 + 1 rows of digits 1..32 (+ the
        # unused 0 slot), every entry affine after finish_tables.
        assert _G_COMB.window == 6
        assert len(_G_COMB._table) == 43
        assert all(len(row) == 33 for row in _G_COMB._table)
        assert all(pt[2] == 1 for row in _G_COMB._table for pt in row[1:])

    @given(scalars)
    @kernel_settings
    def test_matches_reference(self, k):
        assert _to_affine(_G_COMB.pow(k)) == _ref_mult(k % N)
        assert _to_affine(_Q_COMB.pow(k)) == _ref_mult(k % N, _Q)

    @given(scalars, st.integers(0, N - 1))
    @kernel_settings
    def test_accumulator_is_multiplied_in(self, k, a):
        acc = _ref_mult(a)
        start = _INF if acc is None else (acc[0], acc[1], 1)
        assert _to_affine(_G_COMB.pow(k, start)) == _ref_mult((a + k) % N)

    @pytest.mark.parametrize("block", [0, 1, 42])
    @pytest.mark.parametrize("digit", [1, 31, 32, 33, 63])
    def test_accumulator_equal_to_plus_or_minus_the_entry(self, block, digit):
        # The first addition hits acc == +-entry: the H == 0 branches of
        # the mixed addition (doubling, and cancellation to identity).
        k = (digit << (6 * block)) % N
        point = _ref_mult(k)
        jac = (point[0], point[1], 1)
        assert _to_affine(_G_COMB.pow(k, jac)) == _ref_mult(2 * k % N)
        assert _to_affine(_G_COMB.pow(k, _jneg(jac))) is None

    def test_known_multiples_through_the_comb(self):
        fresh = EcGroup()
        for k, xy in KNOWN_MULTIPLES.items():
            point = fresh.g_pow(k)
            assert (point.x, point.y) == xy

    @pytest.mark.parametrize("window", [3, 7, 9])
    def test_generic_signed_recoding_and_carry_row(self, window):
        # Any ops with a ``neg`` get signed digits.  TOY's order has 63
        # bits, so w in (3, 7, 9) divides it and the final borrow lands
        # in the extra row.
        toy = get_group("TOY")

        class SignedModOps(ModIntOps):
            def neg(self, a):
                return pow(a, -1, self.modulus)

        table = FixedBaseComb(SignedModOps(toy.p), toy.q, toy.params.g, window)
        assert len(table._table) == 63 // window + 1
        assert len(table._table[0]) == (1 << (window - 1)) + 1
        for e in (0, 1, toy.q - 1, toy.q, (1 << 63) - 1, 0x5A5A5A5A5A5A5A5A):
            assert table.pow(e) == pow(toy.params.g, e % toy.q, toy.p)
            assert table.pow(e, 5) == 5 * pow(toy.params.g, e % toy.q, toy.p) % toy.p


class TestVariableBase:
    """``_scalar_mult_many`` (width-5 wNAF, shared table normalization)
    in list and single form."""

    @given(scalars)
    @kernel_settings
    def test_single_matches_reference(self, k):
        (out,) = _scalar_mult_many([_QJ], k)
        assert _to_affine(out) == _ref_mult(k % N, _Q)

    @given(scalars)
    @kernel_settings
    def test_list_mixing_affine_identity_and_repeats(self, k):
        minus_q = _jneg(_QJ)
        points = [_QJ, _INF, (GX, GY, 1), _QJ, minus_q, _INF]
        expected = [_Q, None, (GX, GY), _Q, (_Q[0], P - _Q[1]), None]
        got = _scalar_mult_many(points, k)
        assert [_to_affine(pt) for pt in got] == [
            _ref_mult(k % N, base) for base in expected
        ]

    def test_empty_and_all_identity(self):
        assert _scalar_mult_many([], 5) == []
        assert _scalar_mult_many([_INF, _INF], 5) == [_INF, _INF]

    def test_known_multiples_through_wnaf(self):
        fresh = EcGroup()  # no table for g: ``**`` takes the wNAF path
        for k, xy in KNOWN_MULTIPLES.items():
            point = fresh.g ** k
            assert (point.x, point.y) == xy
        assert fresh._fixed_cache == {}

    @given(scalars)
    @kernel_settings
    def test_point_pow_matches_reference(self, k):
        point = EcPoint(GROUP, *_Q) ** k
        expected = _ref_mult(k % N, _Q)
        assert (point.x, point.y) == (expected or (None, None))


class TestLockstepComb:
    """``_comb_lockstep`` equals the Jacobian comb followed by
    ``_batch_to_affine``, point for point."""

    #: a promoted group key: a table the group cache built, beside g's
    KEY_COMB = GROUP.fixed_base(GROUP.g_pow(0xBADC0FFEE))
    #: the identity's table: every row is infinite, so nothing is added
    INF_COMB = FixedBaseComb(JAC_OPS, N, _INF)

    @staticmethod
    def _jacobian(tables, scalars_, accs):
        return _batch_to_affine(
            [table.pow(s, acc) for table, s, acc in zip(tables, scalars_, accs)]
        )

    def _check(self, tables, scalars_, accs):
        got = _comb_lockstep(tables, scalars_, accs)
        assert got == self._jacobian(tables, scalars_, accs)
        return got

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["g", "key", "inf"]),
                scalars,
                st.one_of(st.none(), st.integers(1, N - 1)),
            ),
            min_size=1,
            max_size=2 * LOCKSTEP_MIN_CHAINS,
        )
    )
    @kernel_settings
    def test_matches_the_jacobian_comb(self, chains):
        by_name = {"g": _G_COMB, "key": self.KEY_COMB, "inf": self.INF_COMB}
        self._check(
            [by_name[name] for name, _, _ in chains],
            [k for _, k, _ in chains],
            [_INF if a is None else GROUP.g_pow(a)._jac() for _, _, a in chains],
        )

    def test_identity_base_and_identity_accumulators(self):
        accs = [GROUP.g_pow(5)._jac(), _INF, _QJ]
        assert self._check([self.INF_COMB] * 3, [7, 7, N - 1], accs) == accs
        got = self._check([_G_COMB, self.KEY_COMB], [3, 3], [_INF, _INF])
        assert got[0] == GROUP.g_pow(3)._jac()

    def test_edge_scalars_on_both_tables_in_one_call(self):
        edge = [0, 1, N - 1, N, 2 ** 256 - 1]
        tables = [_G_COMB] * len(edge) + [self.KEY_COMB] * len(edge)
        accs = [_INF, _QJ] * len(edge)
        got = self._check(tables, edge * 2, accs)
        for k, acc, pt in zip(edge, accs, got):  # the chains on g
            expected = _ref_add(_to_affine(acc), _ref_mult(k % N))
            assert _to_affine(pt) == expected

    @pytest.mark.parametrize("block", [0, 1, 41])
    def test_accumulator_equal_to_plus_or_minus_the_entry(self, block):
        # Each chain's first addition meets acc == +entry (a doubling)
        # or acc == -entry (a cancellation to the identity), among
        # ordinary additions sharing the row's inversion.
        tables, scalars_, accs = [], [], []
        for digit in (1, 31, 32, 33, 63):
            signed = digit if digit <= 32 else digit - 64
            entry = _G_COMB._table[block][abs(signed)]
            if signed < 0:
                entry = _jneg(entry)
            for acc in (entry, _jneg(entry), _QJ):
                tables.append(_G_COMB)
                scalars_.append(digit << (6 * block))
                accs.append(acc)
        got = self._check(tables, scalars_, accs)
        assert _INF in got

    @pytest.mark.parametrize(
        "chains", [1, LOCKSTEP_MIN_CHAINS - 1, LOCKSTEP_MIN_CHAINS, 96]
    )
    def test_chain_counts(self, chains):
        rng = DeterministicRng(b"lockstep-%d" % chains)
        tables = [_G_COMB if i % 2 else self.KEY_COMB for i in range(chains)]
        scalars_ = [GROUP.random_scalar(rng) for _ in range(chains)]
        accs = [GROUP.random_element(rng)._jac() for _ in range(chains)]
        self._check(tables, scalars_, accs)

    def test_empty_call(self):
        assert _comb_lockstep([], [], []) == []

    def test_tables_of_different_windows_are_refused(self):
        narrow = FixedBaseComb(JAC_OPS, N, _QJ, window=4)
        with pytest.raises(ValueError, match="window"):
            _comb_lockstep([_G_COMB, narrow], [1, 2], [_INF, _INF])


class TestBatchKernels:
    """``EcGroup.pow_mul_many`` / ``div_pow_many`` equal the generic
    per-element defaults they override."""

    def _elements(self, seed):
        rng = DeterministicRng(seed)
        return [GROUP.random_element(rng) for _ in range(4)] + [GROUP.identity]

    def test_pow_mul_many(self):
        # One call mixes g, a key with a table, and a base used twice
        # (below the promotion count: per-element), on both sides of
        # the lockstep crossover.
        for count in (5, LOCKSTEP_MIN_CHAINS + 3):
            fresh = EcGroup()
            rng = DeterministicRng(b"ec-pow-mul")
            key, cold = fresh.g ** 11, fresh.g ** 13
            fresh.fixed_base(key)
            elements = (self._elements(b"ec-pow-mul-el") * count)[:count]
            scalars_ = [0, N - 1] + [fresh.random_scalar(rng) for _ in range(count - 2)]
            bases = [fresh.g if i % 2 else key for i in range(count)]
            bases[2] = bases[3] = cold
            got = fresh.pow_mul_many(bases, scalars_, elements)
            assert cold.value not in fresh._fixed_cache
            assert got == [b ** s * el for b, s, el in zip(bases, scalars_, elements)]

    def test_pow_mul_many_promotes_like_pow_cached(self):
        fresh = EcGroup()
        base = fresh.g ** 7
        few = [3, 4]
        assert fresh.pow_mul_many([base] * 2, few, [fresh.g, fresh.g]) == [
            base ** 3 * fresh.g, base ** 4 * fresh.g
        ]
        assert base.value not in fresh._fixed_cache  # 2 uses: counted, not built
        fresh.pow_mul_many([base] * 3, [5, 6, 7], [fresh.g] * 3)
        assert base.value in fresh._fixed_cache
        fresh.pow_mul_many([fresh.g], [1], [fresh.identity])
        assert fresh.g.value in fresh._fixed_cache  # g: always

    def test_div_pow_many(self):
        elements = self._elements(b"ec-div-el")
        bases = self._elements(b"ec-div-base")
        bases[1] = bases[0]  # repeated base
        for scalar in (0, 1, N - 1, 0xDEADBEEF << 200):
            got = GROUP.div_pow_many(elements, bases, scalar)
            assert got == [el / b ** scalar for el, b in zip(elements, bases)]

    def test_uncompressed_round_trip(self):
        for el in self._elements(b"ec-raw"):
            raw = GROUP.to_uncompressed(el)
            assert len(raw) == GROUP.uncompressed_bytes == 64
            assert GROUP.from_uncompressed(raw) == el


class TestSerialization:
    def test_compressed_roundtrip(self):
        rng = DeterministicRng(b"ec-serialize")
        for _ in range(8):
            el = GROUP.random_element(rng)
            assert GROUP.element(el.value) == el
            assert len(el.to_bytes()) == GROUP.element_bytes == 33

    def test_identity_serializes_as_zero(self):
        assert GROUP.identity.value == 0
        assert GROUP.element(0).is_identity()
        assert GROUP.identity.to_bytes() == b"\x00" * 33

    @pytest.mark.parametrize(
        "bad",
        [
            (0x04 << 256) | GX,  # uncompressed prefix
            (0x02 << 256) | P,  # x out of field
            (0x02 << 256) | 1,  # x not on the curve (1-3+B is a non-residue)
            1,
        ],
    )
    def test_invalid_encodings_rejected(self, bad):
        with pytest.raises(ValueError):
            GROUP.element(bad)

    def test_off_curve_affine_rejected(self):
        with pytest.raises(ValueError):
            GROUP.element_from_affine(GX, GY + 1)


class TestKoblitzEncoding:
    def test_roundtrip(self):
        for message in [b"", b"x", b"hello curve", b"a" * GROUP.params.message_bytes]:
            point = GROUP.encode(message)
            assert GROUP.decode(point) == message

    def test_deterministic_even_y(self):
        point = GROUP.encode(b"determinism")
        assert point == GROUP.encode(b"determinism")
        assert point.y % 2 == 0

    def test_capacity_enforced(self):
        with pytest.raises(EncodingError):
            GROUP.encode(b"a" * (GROUP.params.message_bytes + 1))

    def test_identity_not_decodable(self):
        with pytest.raises(EncodingError):
            GROUP.decode(GROUP.identity)

    def test_decode_ignores_y(self):
        # Rerandomization moves a ciphertext, not the embedded point;
        # decoding depends only on x, so the mirrored point decodes too.
        point = GROUP.encode(b"mirror")
        assert GROUP.decode(point.inverse()) == b"mirror"


class TestRegistry:
    def test_get_group_caches_singleton(self):
        assert get_group("P256") is GROUP
        assert get_group("p256") is GROUP

    def test_is_registered_backend(self):
        from repro.crypto.groups import available_groups

        assert "P256" in available_groups()

    def test_isolated_instance_does_not_share_cache(self):
        fresh = EcGroup()
        assert fresh._fixed_cache == {}

    def test_prime_order_is_structural(self):
        assert GROUP.is_prime_order(GROUP.g)
        assert GROUP.is_prime_order(GROUP.identity)
