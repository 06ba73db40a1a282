"""Fast exponentiation: fixed-base combs and multi-exponentiation.

Atom's cost profile is dominated by group exponentiation (paper §6,
Tables 3-4): every encrypt / rerandomize / re-encrypt performs two
exponentiations, and the cut-and-choose shuffle proof multiplies that
by ``rounds x n`` for the prover and every verifying group member.  The
overwhelming majority of those exponentiations use one of two *fixed*
bases — the group generator ``g`` or a group public key — which is the
textbook setting for fixed-base windowed precomputation, and the batch
verifier reduces many same-base checks to a handful of Straus
multi-exponentiations.

The algorithms are *backend-generic*: they only ever combine elements
with an associative operation, so one implementation serves both group
backends (see ``repro.crypto.groups``).  A backend supplies a tiny
"ops" object:

- ``ops.one`` — the neutral element of the representation,
- ``ops.mul(a, b)`` — the group operation,
- ``ops.sqr(a)`` (optional) — ``mul(a, a)``, for backends with a
  cheaper doubling (elliptic-curve points),
- ``ops.finish_tables(rows)`` (optional) — post-process freshly built
  precomputation rows (the curve backend batch-normalizes Jacobian
  entries to affine here so the hot loops use cheap mixed additions),
- ``ops.neg(a)`` (optional) — a *cheap* inverse (free on a curve:
  ``(x, -y)``); its presence switches :class:`FixedBaseComb` to signed
  digits.

The Schnorr-group backend works on plain integers mod p
(:class:`ModIntOps`); the P-256 backend works on Jacobian-coordinate
points (``repro.crypto.ec.JacobianOps``).  This module stays free of
any dependency on :mod:`repro.crypto.groups`, so both backends can
build on it without an import cycle, and the algorithms are directly
property-testable against ``pow``.

Algorithms (see DESIGN.md, "Fast-exponentiation layer"):

- :class:`FixedBaseComb` — radix-``2^w`` fixed-base precomputation.
  For a ``b``-bit exponent split into ``ceil(b/w)`` windows, table row
  ``j`` stores ``base^(d * 2^(w*j))`` for every digit ``d``; an
  exponentiation is then at most ``ceil(b/w)`` group operations and
  **zero** squarings, roughly a ``5-15x`` win over generic ``pow``
  once the table is amortized.  Where inverses are free the digits are
  signed, which halves each row and buys a two-bit wider window for
  about the same table.  :class:`FixedBaseExp` is its integer
  specialization with the modular multiply inlined.
- :func:`multiexp_ops` — Straus/Shamir interleaved multi-exponentiation
  ``prod_i base_i^{e_i}``: one shared squaring chain for all bases plus
  per-base digit tables.  With the short (128-bit) weights used by
  batch proof verification the shared chain is only 128 squarings no
  matter how many bases are combined.  :func:`multiexp_ints` is the
  integer wrapper, :func:`multiexp` the group-element front end.
"""

from __future__ import annotations

from typing import List, Sequence


def auto_window(exponent_bits: int) -> int:
    """Window width minimizing table-build plus per-exp multiply cost."""
    if exponent_bits <= 96:
        return 3
    if exponent_bits <= 512:
        return 4
    return 5


class ModIntOps:
    """Group operations on integer residues mod an odd prime."""

    __slots__ = ("modulus",)

    one = 1

    def __init__(self, modulus: int):
        self.modulus = modulus

    def mul(self, a: int, b: int) -> int:
        return a * b % self.modulus


class FixedBaseComb:
    """Windowed fixed-base exponentiation table over abstract group ops.

    Exponents are reduced modulo ``order`` (the group order ``q``),
    matching ``GroupElement.__pow__``.  Without ``ops.neg`` the table
    holds ``ceil(bits/w)`` rows of digits ``1 .. 2^w - 1``.  With it
    the digits are recoded to ``-2^(w-1) < d <= 2^(w-1)``: a row keeps
    only ``1 .. 2^(w-1)``, a digit above that borrows ``2^w`` from the
    next window and uses the negated entry, and the window is two bits
    wider (``floor(bits/w) + 1`` rows — the extra row takes the final
    borrow when ``w`` divides ``bits``).  Building either table costs
    about as much as six generic exponentiations, so it pays for itself
    almost immediately on a hot base.
    """

    __slots__ = ("ops", "order", "base", "window", "_table", "_neg")

    def __init__(self, ops, order: int, base, window: int = 0):
        self.ops = ops
        self.order = order
        self.base = base
        self._neg = neg = getattr(ops, "neg", None)
        bits = order.bit_length()
        self.window = w = window or auto_window(bits) + (2 if neg else 0)
        if neg is None:
            top, blocks = (1 << w) - 1, (bits + w - 1) // w
        else:
            top, blocks = 1 << (w - 1), bits // w + 1
        mul = ops.mul
        one = ops.one
        table: List[list] = []
        b = base
        for _ in range(blocks):
            row = [one, b]
            for _ in range(top - 1):
                row.append(mul(row[-1], b))
            table.append(row)
            # b^(2^w), the next window's base: one past the last digit,
            # or twice the largest signed one
            b = mul(row[top], b if neg is None else row[top])
        finish = getattr(ops, "finish_tables", None)
        if finish is not None:
            table = finish(table)
        self._table = table

    def pow(self, exponent: int, acc=None):
        """``acc * base^exponent`` (``acc`` defaults to the identity) in
        the ops' raw representation, exponent reduced mod ``order``."""
        e = exponent % self.order
        mul = self.ops.mul
        neg = self._neg
        if acc is None:
            acc = self.ops.one
        w = self.window
        mask = (1 << w) - 1
        half = mask if neg is None else 1 << (w - 1)
        table = self._table
        block = 0
        while e:
            digit = e & mask
            e >>= w
            if digit > half:  # signed tables only: borrow 2^w
                e += 1
                acc = mul(acc, neg(table[block][mask + 1 - digit]))
            elif digit:
                acc = mul(acc, table[block][digit])
            block += 1
        return acc


class FixedBaseExp(FixedBaseComb):
    """Integer specialization of :class:`FixedBaseComb` for ``mod p``.

    Keeps the historical ``(modulus, order, base)`` constructor and
    inlines the modular multiply in :meth:`pow` — the per-operation
    dispatch through ``ops.mul`` is measurable on the very hot
    ``g^r`` path of protocol rounds.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: int, order: int, base: int, window: int = 0):
        if not 0 < base < modulus:
            raise ValueError("base outside Z_p^*")
        self.modulus = modulus
        super().__init__(ModIntOps(modulus), order, base, window)

    def pow(self, exponent: int, acc: int = 1) -> int:
        """``acc * base^exponent mod modulus``, exponent reduced mod order."""
        e = exponent % self.order
        w = self.window
        mask = (1 << w) - 1
        modulus = self.modulus
        table = self._table
        block = 0
        while e:
            digit = e & mask
            if digit:
                acc = acc * table[block][digit] % modulus
            e >>= w
            block += 1
        return acc


def multiexp_ops(
    ops,
    order: int,
    bases: Sequence,
    exponents: Sequence[int],
    window: int = 0,
):
    """Straus interleaved multi-exponentiation over abstract group ops.

    Computes ``prod_i bases[i]^(exponents[i] % order)`` with one shared
    squaring chain (``max-bits`` squarings total) and a small digit
    table per base.
    """
    if len(bases) != len(exponents):
        raise ValueError("bases and exponents length mismatch")
    exps = [e % order for e in exponents]
    one = ops.one
    if not bases:
        return one
    maxbits = max(e.bit_length() for e in exps)
    if maxbits == 0:
        return one
    w = window or (4 if maxbits <= 512 else 5)
    radix = 1 << w
    mask = radix - 1
    mul = ops.mul
    sqr = getattr(ops, "sqr", None) or (lambda a: mul(a, a))
    tables: List[list] = []
    for base in bases:
        row = [one] * radix
        row[1] = base
        for d in range(2, radix):
            row[d] = mul(row[d - 1], base)
        tables.append(row)
    finish = getattr(ops, "finish_tables", None)
    if finish is not None:
        tables = finish(tables)
    blocks = (maxbits + w - 1) // w
    acc = one
    for block in range(blocks - 1, -1, -1):
        if acc is not one:
            for _ in range(w):
                acc = sqr(acc)
        shift = block * w
        for row, e in zip(tables, exps):
            digit = (e >> shift) & mask
            if digit:
                acc = mul(acc, row[digit])
    return acc


def multiexp_ints(
    modulus: int,
    order: int,
    bases: Sequence[int],
    exponents: Sequence[int],
    window: int = 0,
) -> int:
    """Straus multi-exponentiation over plain integers mod ``modulus``."""
    for base in bases:
        if not 0 < base < modulus:
            raise ValueError("base outside Z_p^*")
    return multiexp_ops(ModIntOps(modulus), order, bases, exponents, window)


def multiexp(group, bases: Sequence, exponents: Sequence[int], window: int = 0):
    """``prod_i bases[i]^exponents[i]`` as a group element.

    Dispatches to ``group.multiexp`` so each backend runs the Straus
    chain in its native representation (integers mod p, Jacobian
    points); kept as a module-level helper because the proof code reads
    better calling a function on the group *argument*.
    """
    return group.multiexp(bases, exponents, window)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0`` (O(log^2) bit ops).

    For prime ``n`` this equals the Legendre symbol, so it replaces the
    Euler-criterion quadratic-residue test (a full modular
    exponentiation) in ``Group.encode``, and serves as the curve
    backend's pre-check that ``x^3 - 3x + b`` has a square root.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires odd n > 0")
    a %= n
    result = 1
    while a:
        # Strip all factors of two at once: (2/n) = -1 iff n = ±3 mod 8,
        # applied tz times, flips the sign only when tz is odd.
        tz = (a & -a).bit_length() - 1
        if tz:
            a >>= tz
            if tz & 1 and n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
