"""NIST P-256 elliptic-curve group backend (name ``P256``).

The paper's evaluation runs the entire protocol over NIST P-256; this
backend implements that group in pure Python behind the
:class:`~repro.crypto.groups.GroupBackend` interface, so every layer —
ElGamal, the sigma protocols, the shuffle proof, DVSS, the stream
engine — runs unchanged on the curve via ``get_group("P256")`` (CLI:
``--group p256``).

Why it is fast enough: a P-256 scalar multiplication performs a few
hundred field operations on 256-bit integers, with 256-bit scalars —
an order of magnitude cheaper in pure Python than a Schnorr group of
comparable security, whose 2048-bit residues are multiplied ~2048
times per exponentiation.  The
fixed-base comb and Straus multi-exponentiation are the *same*
algorithms as the Schnorr backend, instantiated through the
ops-abstraction of :mod:`repro.crypto.fastexp` with Jacobian point
arithmetic:

- **Jacobian coordinates** ``(X, Y, Z)`` with ``x = X/Z^2``,
  ``y = Y/Z^3`` make doubling and addition inversion-free; one modular
  inversion is paid only when a result is normalized back to affine.
- **Mixed addition**: precomputation tables are batch-normalized to
  affine (one shared inversion via the Montgomery trick,
  ``JacobianOps.finish_tables``), so the hot comb/Straus loops use the
  cheaper Jacobian+affine formulas.
- ``a = -3`` doubling shortcut (standard for the NIST curves).
- **Free negation** (``JacobianOps.neg``) gives the fixed-base comb
  signed digits (43 mixed additions per exponentiation) and the Straus
  chain wNAF digits over 4-entry tables.
- **One variable-base routine**, :func:`_scalar_mult_many`: width-5
  wNAF recoded once per scalar, odd-multiple tables of all bases in a
  call normalized together.  ``EcPoint.__pow__`` is its list-of-one.
- **Batch kernels** (``EcGroup.pow_mul_many`` / ``div_pow_many``) keep
  whole lists Jacobian and pay one inversion per list, not per point.
- **Lockstep comb**, :func:`_comb_lockstep`: a ``pow_mul_many`` call
  of at least :data:`LOCKSTEP_MIN_CHAINS` chains advances them one
  comb row at a time with affine additions, one shared inversion per
  row.

Element serialization is SEC1 compressed: 33 bytes (``02``/``03`` ‖
x-coordinate); the integer ``value`` of a point is that byte string as
a big-endian integer (``0`` for the identity), which is what proof
transcripts carry and :meth:`EcGroup.element` parses back.

Messages are embedded as curve points by Koblitz's method: the padded
message integer ``m`` is shifted left one byte and the low byte scans
``i = 0, 1, ...`` until ``x = m*256 + i`` hits a valid x-coordinate
(each try succeeds with probability ~1/2, so 256 tries fail with
probability ~2^-256); decoding is just ``m = x >> 8``.  The curve has
prime order (cofactor 1), so every on-curve point is already in the
prime-order group and :meth:`EcGroup.is_prime_order` is structural.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.fastexp import (
    FixedBaseComb,
    jacobi,
    multiexp_ops,
    odd_multiples,
    wnaf,
)
from repro.crypto.groups import EncodingError, GroupBackend

# -- curve constants (SEC2 / FIPS 186-4, secp256r1) -------------------------

P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3  # a = -3 mod p
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5

_SQRT_EXP = (P + 1) // 4  # p = 3 mod 4: sqrt(a) = a^((p+1)/4)
_XMASK = (1 << 256) - 1

#: Jacobian point at infinity (Z = 0).  Kept as a singleton so the
#: generic loops' ``acc is one`` fast path works.
_INF: Tuple[int, int, int] = (1, 1, 0)


# -- Jacobian field/point arithmetic ----------------------------------------


def _jdbl(pt: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Point doubling for ``a = -3`` (``3x^2 + aZ^4`` factors)."""
    X1, Y1, Z1 = pt
    if not Z1:
        return _INF
    ZZ = Z1 * Z1 % P
    YY = Y1 * Y1 % P
    S = 4 * X1 * YY % P
    M = 3 * (X1 - ZZ) * (X1 + ZZ) % P
    X3 = (M * M - 2 * S) % P
    return (X3, (M * (S - X3) - 8 * YY * YY) % P, 2 * Y1 * Z1 % P)


def _jadd(p1: Tuple[int, int, int], p2: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """General Jacobian addition (add-2007-bl)."""
    X1, Y1, Z1 = p1
    X2, Y2, Z2 = p2
    Z1Z1 = Z1 * Z1 % P
    Z2Z2 = Z2 * Z2 % P
    U1 = X1 * Z2Z2 % P
    U2 = X2 * Z1Z1 % P
    S1 = Y1 * Z2 * Z2Z2 % P
    S2 = Y2 * Z1 * Z1Z1 % P
    H = (U2 - U1) % P
    if not H:
        if S1 == S2:
            return _jdbl(p1)
        return _INF
    I = 4 * H * H % P
    J = H * I % P
    r = 2 * (S2 - S1) % P
    V = U1 * I % P
    X3 = (r * r - J - 2 * V) % P
    Y3 = (r * (V - X3) - 2 * S1 * J) % P
    Z3 = ((Z1 + Z2) * (Z1 + Z2) - Z1Z1 - Z2Z2) * H % P
    return (X3, Y3, Z3)


def _madd(p1: Tuple[int, int, int], p2: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Mixed addition: ``p1`` Jacobian (not the identity) + ``p2``
    affine (Z2 = 1) — 4 field multiplications cheaper than
    :func:`_jadd`.  ``H`` and ``R`` stay unreduced (possibly negative):
    they only feed products that are reduced anyway."""
    X1, Y1, Z1 = p1
    X2, Y2, _ = p2
    ZZ = Z1 * Z1 % P
    H = X2 * ZZ % P - X1
    R = Y2 * Z1 * ZZ % P - Y1
    if not H:
        if not R:
            return _jdbl(p1)
        return _INF
    HH = H * H % P
    HHH = HH * H % P
    V = X1 * HH % P
    X3 = (R * R - HHH - 2 * V) % P
    return (X3, (R * (V - X3) - Y1 * HHH) % P, Z1 * H % P)


def _jmul(a: Tuple[int, int, int], b: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Dispatching group operation: identity short-circuits, mixed
    addition whenever one side is affine-normalized."""
    if not a[2]:
        return b
    if not b[2]:
        return a
    if b[2] == 1:
        return _madd(a, b)
    if a[2] == 1:
        return _madd(b, a)
    return _jadd(a, b)


def _jneg(pt: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """The inverse point: ``(X, -Y, Z)`` in any coordinates."""
    return (pt[0], P - pt[1], pt[2])


def _batch_to_affine(points: Sequence[Tuple[int, int, int]]) -> List[Tuple[int, int, int]]:
    """Normalize Jacobian points to ``Z = 1`` with ONE field inversion
    (Montgomery's trick); infinities pass through as :data:`_INF`."""
    zs = [pt[2] for pt in points if pt[2] not in (0, 1)]
    if not zs:
        return [pt if pt[2] else _INF for pt in points]
    prefix = [1] * (len(zs) + 1)
    for i, z in enumerate(zs):
        prefix[i + 1] = prefix[i] * z % P
    inv = pow(prefix[-1], -1, P)
    out: List[Tuple[int, int, int]] = []
    invs = [0] * len(zs)
    for i in range(len(zs) - 1, -1, -1):
        invs[i] = prefix[i] * inv % P
        inv = inv * zs[i] % P
    k = 0
    for pt in points:
        X, Y, Z = pt
        if Z == 0:
            out.append(_INF)
        elif Z == 1:
            out.append(pt)
        else:
            zi = invs[k]
            k += 1
            zi2 = zi * zi % P
            out.append((X * zi2 % P, Y * zi2 * zi % P, 1))
    return out


def _to_affine(pt: Tuple[int, int, int]) -> Optional[Tuple[int, int]]:
    """Jacobian -> affine ``(x, y)``; ``None`` for the identity."""
    X, Y, Z = pt
    if not Z:
        return None
    if Z == 1:
        return (X, Y)
    zi = pow(Z, -1, P)
    zi2 = zi * zi % P
    return (X * zi2 % P, Y * zi2 * zi % P)


class JacobianOps:
    """The :mod:`repro.crypto.fastexp` ops-object for P-256 points."""

    __slots__ = ()

    one = _INF
    mul = staticmethod(_jmul)
    sqr = staticmethod(_jdbl)
    #: free inverses: combs and Straus chains over these ops use signed
    #: digits
    neg = staticmethod(_jneg)

    @staticmethod
    def finish_tables(rows: List[list]) -> List[list]:
        """Batch-normalize freshly built precomputation rows to affine
        so the evaluation loops hit the mixed-addition fast path."""
        flat = [pt for row in rows for pt in row]
        flat = _batch_to_affine(flat)
        radix = len(rows[0]) if rows else 0
        return [flat[i: i + radix] for i in range(0, len(flat), radix)]


JAC_OPS = JacobianOps()


def _scalar_mult_many(
    points: Sequence[Tuple[int, int, int]], scalar: int
) -> List[Tuple[int, int, int]]:
    """``scalar * pt`` for every affine (or infinite) ``pt``, as Jacobian
    points: the variable-base routine.

    The scalar is recoded once (width-5
    :func:`~repro.crypto.fastexp.wnaf`: ~43 non-zero digits in 257);
    every point's odd multiples ``1P, 3P .. 15P`` are normalized to
    affine together with one shared inversion, so the main loop is
    doublings plus mixed additions."""
    e = scalar % N
    live = [pt for pt in points if pt[2]]
    if not e or not live:
        return [_INF] * len(points)
    terms = wnaf(e)
    odd = _batch_to_affine(
        [multiple for pt in live for multiple in odd_multiples(JAC_OPS, pt, 8)]
    )
    # Top digit first.  It is positive, and a running multiple m < N of
    # a point of prime order N is never the identity, so the chain can
    # use the bare mixed addition (which handles acc == +-entry itself).
    top_at, top = terms.pop()
    digits = [0] * top_at  # one doubling per position below the top
    for at, d in terms:
        digits[at] = d
    digits.reverse()
    top >>= 1
    out: List[Tuple[int, int, int]] = []
    row = 0
    for pt in points:
        if not pt[2]:
            out.append(_INF)
            continue
        acc = odd[row + top]
        for d in digits:
            acc = _jdbl(acc)
            if d > 0:
                acc = _madd(acc, odd[row + (d >> 1)])
            elif d:
                acc = _madd(acc, _jneg(odd[row + (-d >> 1)]))
        out.append(acc)
        row += 8
    return out


#: A :meth:`EcGroup.pow_mul_many` call with at least this many comb
#: chains walks them in lockstep (:func:`_comb_lockstep`); fewer run
#: one Jacobian chain at a time.  Measured: lockstep / Jacobian time is
#: 1.4x at 4 chains and ~0.9x at 12 (DESIGN.md, "Lockstep comb").
LOCKSTEP_MIN_CHAINS = 12


def _comb_lockstep(
    tables: Sequence[FixedBaseComb],
    scalars: Sequence[int],
    accs: Sequence[Tuple[int, int, int]],
) -> List[Tuple[int, int, int]]:
    """``accs[i] + scalars[i] * base_i`` for every chain ``i`` of
    ``tables[i]`` (affine or infinite ``accs``), as affine points.

    Every chain walks its own comb one row at a time, and a row's
    additions are affine, with all their slope denominators inverted
    together (Montgomery's trick): ~6 field multiplications per chain
    and row plus ONE inversion per row, instead of an 11-multiplication
    mixed addition per chain and row and one more inversion to
    normalize.  The digits are :meth:`FixedBaseComb.pow`'s signed
    ones, so every table must have the same window."""
    if len({table.window for table in tables}) > 1:
        raise ValueError("lockstep chains need tables of one window")
    if not tables:
        return []
    w = tables[0].window
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    rows = [table._table for table in tables]
    es = [s % N for s in scalars]
    out = list(accs)
    chains = range(len(out))
    row = 0
    while any(es):
        # this row's additions: chain, entry, slope numerator, and the
        # running product of the slope denominators up to it
        adds = []
        prod = 1
        for i in chains:
            e = es[i]
            if not e:
                continue
            digit = e & mask
            e >>= w
            if digit > half:  # borrow 2^w, add the negated entry
                es[i] = e + 1
                x2, y2, z2 = rows[i][row][mask + 1 - digit]
                y2 = P - y2
            else:
                es[i] = e
                if not digit:
                    continue
                x2, y2, z2 = rows[i][row][digit]
            if not z2:  # the identity base's table
                continue
            x1, y1, z1 = out[i]
            if not z1:
                out[i] = (x2, y2, 1)
                continue
            if x1 != x2:
                num, den = y2 - y1, x2 - x1
            elif y1 == y2:  # acc == entry: a doubling (a = -3)
                num, den = 3 * (x1 * x1 - 1), 2 * y1
            else:  # acc == -entry
                out[i] = _INF
                continue
            adds.append((i, x2, num, den, prod))
            prod = prod * den % P
        row += 1
        if not adds:
            continue
        inv = pow(prod, -1, P)
        for i, x2, num, den, before in reversed(adds):
            lam = num * before % P * inv % P
            inv = inv * den % P
            x1, y1, _ = out[i]
            x3 = (lam * lam - x1 - x2) % P
            out[i] = (x3, (lam * (x1 - x3) - y1) % P, 1)
    return out


# -- the element and group classes ------------------------------------------


@dataclass(frozen=True)
class EcParams:
    """P-256 parameters exposed alongside the Schnorr ``GroupParams``."""

    name: str
    p: int
    a: int
    b: int
    n: int
    gx: int
    gy: int

    @property
    def q(self) -> int:
        """Prime group order (the scalar field)."""
        return self.n

    @property
    def message_bytes(self) -> int:
        """Safely embeddable payload bytes per point: the Koblitz shift
        spends one byte of x-coordinate space, the padding scheme one
        length byte, and one byte of headroom keeps ``x < p``."""
        return (self.p.bit_length() - 9) // 8 - 1


P256_PARAMS = EcParams("P256", P, A, B, N, GX, GY)


class EcPoint:
    """A point on P-256 (multiplicative notation, like ``GroupElement``).

    ``x is None`` encodes the identity (point at infinity).  Points are
    immutable and hashable; ``*`` is point addition, ``**`` scalar
    multiplication, matching the paper's multiplicative notation so the
    proof code is backend-blind.
    """

    __slots__ = ("group", "x", "y")

    def __init__(self, group: "EcGroup", x: Optional[int], y: Optional[int]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("EcPoint is immutable")

    # -- serialization ------------------------------------------------

    @property
    def value(self) -> int:
        """SEC1-compressed encoding as a big-endian integer (0 = identity)."""
        if self.x is None:
            return 0
        return ((2 | (self.y & 1)) << 256) | self.x

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(33, "big")

    # -- group operations ---------------------------------------------

    def _jac(self) -> Tuple[int, int, int]:
        if self.x is None:
            return _INF
        return (self.x, self.y, 1)

    def __mul__(self, other: "EcPoint") -> "EcPoint":
        if self.x is None:
            return other
        if other.x is None:
            return self
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2:
            if (y1 + y2) % P == 0:
                return self.group.identity
            lam = 3 * (x1 * x1 - 1) * pow(2 * y1, -1, P) % P  # a = -3
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
        x3 = (lam * lam - x1 - x2) % P
        y3 = (lam * (x1 - x3) - y1) % P
        return EcPoint(self.group, x3, y3)

    def __truediv__(self, other: "EcPoint") -> "EcPoint":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "EcPoint":
        # Hot bases (g, group public keys) have a comb table on the
        # group; everything else takes the variable-base wNAF path.
        table = self.group._table_hit(self.value)
        if table is not None:
            return self.group._wrap_raw(table.pow(exponent))
        return self.group._wrap_raw(_scalar_mult_many([self._jac()], exponent)[0])

    def inverse(self) -> "EcPoint":
        if self.x is None:
            return self
        return EcPoint(self.group, self.x, P - self.y)

    def is_identity(self) -> bool:
        return self.x is None

    # -- protocol plumbing --------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EcPoint)
            and self.x == other.x
            and self.y == other.y
            and self.group.params.name == other.group.params.name
        )

    def __hash__(self) -> int:
        return hash((self.value, self.group.params.name))

    def __repr__(self) -> str:
        if self.x is None:
            return "EcPoint(identity)"
        return f"EcPoint(x={self.x:#x})"

    def __reduce__(self):
        # Same singleton-restoring scheme as Schnorr groups: the group
        # rides along as get_group("P256"), so a copy shares the
        # process's warm fixed-base caches.
        return (_point_from_value, (self.group, self.value))


def _point_from_value(group: "EcGroup", value: int) -> EcPoint:
    return group.element(value)


class EcGroup(GroupBackend):
    """P-256 as a :class:`~repro.crypto.groups.GroupBackend`."""

    def __init__(self, params: EcParams = P256_PARAMS):
        super().__init__()
        self.params = params
        self.q = params.n
        self.g = EcPoint(self, params.gx, params.gy)
        self.identity = EcPoint(self, None, None)

    def __reduce__(self):
        from repro.crypto.groups import get_group

        return (get_group, (self.params.name,))

    # -- fast exponentiation hooks ------------------------------------

    def _build_table(self, value: int) -> FixedBaseComb:
        point = self.element(value)
        return FixedBaseComb(JAC_OPS, N, point._jac())

    def _wrap_raw(self, raw: Tuple[int, int, int]) -> EcPoint:
        affine = _to_affine(raw)
        if affine is None:
            return self.identity
        return EcPoint(self, affine[0], affine[1])

    def _wrap_many(self, raws: Sequence[Tuple[int, int, int]]) -> List[EcPoint]:
        """:meth:`_wrap_raw` for a list, sharing one field inversion."""
        identity = self.identity
        return [
            EcPoint(self, pt[0], pt[1]) if pt[2] else identity
            for pt in _batch_to_affine(raws)
        ]

    def pow_mul_many(self, bases, scalars, elements) -> List[EcPoint]:
        """An element whose base has a comb table is a comb chain that
        starts from the element.  A call with at least
        :data:`LOCKSTEP_MIN_CHAINS` chains walks them in lockstep
        (:func:`_comb_lockstep`, affine throughout); fewer stay Jacobian
        and are normalized with one inversion.  A base enters the table
        cache exactly when the per-element path would have promoted it:
        ``g`` always, any other base once one call alone uses it more
        than ``FIXED_PROMOTE_AFTER`` times; the other elements take the
        per-element path."""
        uses = Counter(base.value for base in bases)
        tables = {}
        for value, count in uses.items():
            table = self._table_hit(value)
            if table is None and (
                value == self.g.value or count > self.FIXED_PROMOTE_AFTER
            ):
                table = self.fixed_base(value)
            tables[value] = table
        out: list = [None] * len(elements)
        chains, comb = [], []
        for i, (base, s, el) in enumerate(zip(bases, scalars, elements)):
            table = tables[base.value]
            if table is None:
                out[i] = self.pow_cached(base, s) * el
            else:
                chains.append(i)
                comb.append((table, s, el._jac()))
        if len(comb) >= LOCKSTEP_MIN_CHAINS:
            points = _comb_lockstep(*zip(*comb))
        else:
            points = _batch_to_affine([table.pow(s, acc) for table, s, acc in comb])
        identity = self.identity
        for i, pt in zip(chains, points):
            out[i] = EcPoint(self, pt[0], pt[1]) if pt[2] else identity
        return out

    def div_pow_many(self, elements, bases, scalar: int) -> List[EcPoint]:
        """One wNAF recoding and one shared table normalization for all
        bases, one more inversion for all results."""
        powers = _scalar_mult_many([b._jac() for b in bases], scalar)
        return self._wrap_many(
            [_jmul(_jneg(pw), el._jac()) for pw, el in zip(powers, elements)]
        )

    def multiexp(self, bases, exponents, window: int = 0) -> EcPoint:
        """Straus multi-exponentiation in Jacobian coordinates."""
        jbases = [
            b._jac() if isinstance(b, EcPoint) else self.element(b)._jac()
            for b in bases
        ]
        return self._wrap_raw(multiexp_ops(JAC_OPS, N, jbases, exponents, window))

    # -- construction -------------------------------------------------

    @property
    def element_bytes(self) -> int:
        return 33

    def element(self, value: int) -> EcPoint:
        """Decompress an integer-serialized point (validates on-curve)."""
        if value == 0:
            return self.identity
        prefix = value >> 256
        x = value & _XMASK
        if prefix not in (2, 3) or not 0 <= x < P:
            raise ValueError(f"invalid compressed point {value:#x}")
        rhs = (x * x * x - 3 * x + B) % P
        y = pow(rhs, _SQRT_EXP, P)
        if y * y % P != rhs:
            raise ValueError("x is not on the curve")
        if (y & 1) != (prefix & 1):
            y = P - y
        return EcPoint(self, x, y)

    @property
    def uncompressed_bytes(self) -> int:
        return 64

    def to_uncompressed(self, element: EcPoint) -> bytes:
        """``x || y``, 32 bytes each; all zero (not a curve point) for
        the identity."""
        if element.x is None:
            return bytes(64)
        return ((element.x << 256) | element.y).to_bytes(64, "big")

    def from_uncompressed(self, data) -> EcPoint:
        """Invert :meth:`to_uncompressed` — no curve check, no square
        root: only for bytes this process wrote itself."""
        xy = int.from_bytes(data, "big")
        if not xy:
            return self.identity
        return EcPoint(self, xy >> 256, xy & _XMASK)

    def element_from_affine(self, x: int, y: int) -> EcPoint:
        """Wrap affine coordinates, validating the curve equation."""
        if not (0 <= x < P and 0 < y < P):
            raise ValueError("coordinates outside the field")
        if (y * y - (x * x * x - 3 * x + B)) % P != 0:
            raise ValueError("point is not on the curve")
        return EcPoint(self, x, y)

    # -- message encoding (Koblitz embedding) -------------------------

    def encode(self, message: bytes) -> EcPoint:
        """Embed up to ``message_bytes`` bytes into an x-coordinate.

        Uses the backends' shared fixed-width layout
        (``GroupBackend._payload_to_int``), then scans the low byte for
        a valid x; the even-y root is chosen so encoding is
        deterministic.
        """
        base = self._payload_to_int(message) << 8
        for i in range(256):
            x = base + i
            if x >= P:
                break
            rhs = (x * x * x - 3 * x + B) % P
            if jacobi(rhs, P) != 1:
                continue
            y = pow(rhs, _SQRT_EXP, P)
            if y & 1:
                y = P - y
            return EcPoint(self, x, y)
        raise EncodingError("no curve point found for message")  # ~2^-256

    def decode(self, element: EcPoint) -> bytes:
        """Invert :meth:`encode` (the y-coordinate carries no data)."""
        if element.x is None:
            raise EncodingError("identity does not carry an encoded message")
        return self._int_to_payload(element.x >> 8)

    # -- membership ----------------------------------------------------

    def is_prime_order(self, element: EcPoint) -> bool:
        """Curve-equation check (4 field multiplications).

        P-256 has prime order (cofactor 1), so on-curve membership IS
        prime-order membership — but an ``EcPoint`` built directly from
        raw coordinates (tamper instrumentation does this on the
        Schnorr backend) could lie on the *twist*, whose small-order
        subgroups are exactly what the proof verifiers' subgroup
        gates exist to reject.  Deserialization paths
        (``element`` / ``element_from_affine``) already validate."""
        if not isinstance(element, EcPoint):
            return False
        if element.x is None:
            return True
        x, y = element.x, element.y
        return (y * y - (x * x * x - 3 * x + B)) % P == 0

    def __repr__(self) -> str:
        return f"EcGroup({self.params.name})"


def make_p256_group() -> EcGroup:
    """Factory used by the lazy registry entry in ``repro.crypto.groups``."""
    return EcGroup()
