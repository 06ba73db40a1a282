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
  ``(x, -y)``); its presence switches :class:`FixedBaseComb` and
  :func:`multiexp_ops` to signed digits.

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
  matter how many bases are combined.  Where inverses are free the
  digits are width-``w`` wNAF (:func:`wnaf`) over odd-multiple tables
  (:func:`odd_multiples`) a quarter the size.  :func:`multiexp_ints`
  is the integer wrapper; each backend's ``multiexp`` method is the
  group-element front end.
- :func:`batch_weights` — the verifier's weights for folding many
  equations into one random-linear-combination identity (the batched
  ReEnc-proof check in :mod:`repro.crypto.nizk`).
"""

from __future__ import annotations

import secrets
from typing import List, Sequence, Tuple

#: Bit length of the random weights in batched verification; a false
#: equation survives a random-linear-combination identity with
#: probability at most 2^-(WEIGHT_BITS-1).
WEIGHT_BITS = 128


def auto_window(exponent_bits: int) -> int:
    """Window width minimizing table-build plus per-exp multiply cost."""
    return 3 if exponent_bits <= 96 else 4


def batch_weights(count: int, order: int, rng=None) -> List[int]:
    """``count`` verifier-chosen non-zero weights of ``WEIGHT_BITS``
    bits (fewer on a group whose order is shorter than that, so a
    weight is never ``0 mod order``).  Fresh ``secrets`` randomness
    unless a ``DeterministicRng`` is passed for reproducible tests;
    never derived from the transcript, so a prover cannot grind them.
    """
    bits = min(WEIGHT_BITS, order.bit_length() - 1)
    if rng is not None:
        return [rng.randint(1, (1 << bits) - 1) for _ in range(count)]
    return [secrets.randbits(bits) | 1 for _ in range(count)]


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


def wnaf(e: int, width: int = 5) -> List[Tuple[int, int]]:
    """Width-``width`` non-adjacent form of ``e >= 0`` as ``(bit
    position, digit)`` pairs, lowest first: odd digits below
    ``2^(width-1)`` in magnitude, at least ``width`` positions apart,
    so about one position in ``width + 1`` carries one."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    terms = []
    at = 0
    while e:
        zeros = (e & -e).bit_length() - 1
        at += zeros
        e >>= zeros
        d = e & mask
        if d > half:
            d -= mask + 1
        terms.append((at, d))
        e -= d  # now a multiple of 2^width: the next digit is that far up
    return terms


def odd_multiples(ops, base, count: int) -> list:
    """``[base, base^3, .. base^(2*count-1)]``: the table a wNAF digit
    ``d`` indexes at ``|d| >> 1`` (one squaring, ``count - 1``
    multiplications)."""
    mul = ops.mul
    sqr = getattr(ops, "sqr", None)
    twice = sqr(base) if sqr is not None else mul(base, base)
    row = [base]
    for _ in range(count - 1):
        row.append(mul(row[-1], twice))
    return row


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
    table per base: all ``2^w - 1`` digits, or — with ``ops.neg`` —
    the ``2^(w-2)`` odd multiples a width-``w`` wNAF needs (for
    ``w = 4``: 4 operations per table instead of 14, one addition per
    5 exponent bits instead of one per 4.3).
    """
    if len(bases) != len(exponents):
        raise ValueError("bases and exponents length mismatch")
    exps = [e % order for e in exponents]
    one = ops.one
    maxbits = max((e.bit_length() for e in exps), default=0)
    if maxbits == 0:
        return one
    w = window or 4
    mul = ops.mul
    sqr = getattr(ops, "sqr", None) or (lambda a: mul(a, a))
    neg = getattr(ops, "neg", None)
    if neg is None:
        radix = 1 << w
        tables: List[list] = []
        for base in bases:
            row = [one] * radix
            row[1] = base
            for d in range(2, radix):
                row[d] = mul(row[d - 1], base)
            tables.append(row)
    else:
        tables = [odd_multiples(ops, base, 1 << (w - 2)) for base in bases]
    finish = getattr(ops, "finish_tables", None)
    if finish is not None:
        tables = finish(tables)
    # chain[k]: the table entries to multiply in once the accumulator
    # has been squared down to bit k (a wNAF can be one digit longer
    # than the exponent)
    chain: List[list] = [[] for _ in range(maxbits + 1)]
    for row, e in zip(tables, exps):
        if neg is None:
            for k in range(0, e.bit_length(), w):
                digit = (e >> k) & (radix - 1)
                if digit:
                    chain[k].append(row[digit])
        else:
            for k, d in wnaf(e, w):
                chain[k].append(row[d >> 1] if d > 0 else neg(row[-d >> 1]))
    acc = one
    for entries in reversed(chain):
        if acc is not one:
            acc = sqr(acc)
        for entry in entries:
            acc = mul(acc, entry)
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
        # (residues mod 8 and mod 4 read off the low bits: ``%`` would
        # divide a number thousands of bits long)
        tz = (a & -a).bit_length() - 1
        if tz:
            a >>= tz
            if tz & 1 and n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
