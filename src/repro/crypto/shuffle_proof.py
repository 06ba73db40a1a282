"""Checking a shuffle proof's openings (``ShufProof`` of paper §2.3).

The paper uses Neff's verifiable shuffle [59].  We substitute a
*cut-and-choose* argument (DESIGN.md substitution #2), proved and
verified over whole vector ciphertexts in :mod:`repro.crypto.vector`.
Every round of that proof opens one rerandomization per part: a
:data:`Link` ``(source, target, rho)`` claiming ``target ==
Rerand(source, rho)``.  This module checks a proof's links all at once:

- :func:`recompute_links` — rerandomize every source and compare;
- :func:`fold_links` — one random-linear-combination identity;
- :func:`check_links` — the cheaper of the two for the group at hand.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.crypto.elgamal import AtomCiphertext, AtomElGamal
from repro.crypto.fastexp import batch_weights, rlc_pays
from repro.crypto.groups import DeterministicRng

#: One opened rerandomization: ``target == Rerand(source, rho)``.
Link = Tuple[AtomCiphertext, AtomCiphertext, int]


def recompute_links(
    scheme: AtomElGamal, public_key, links: Sequence[Link]
) -> bool:
    """Whether every link holds, by rerandomizing every source (one
    batch-kernel call) and comparing: deterministic, and the reference
    semantics by construction."""
    if not links:
        return True
    sources, targets, rands = zip(*links)
    if any(src.Y is not None for src in sources):
        return False
    return scheme.rerandomize_many(public_key, sources, rands) == list(targets)


def fold_links(
    scheme: AtomElGamal,
    public_key,
    links: Sequence[Link],
    weight_rng: Optional[DeterministicRng] = None,
) -> bool:
    """Whether every link holds, as ONE random-linear-combination
    identity (the small-exponent batching test; see DESIGN.md).

    Link ``k`` is two equations, ``T_k.R == g^rho_k * S_k.R`` and
    ``T_k.c == pk^rho_k * S_k.c``.  With independent ~128-bit weights
    ``a_k`` and ``b_k`` for them,

        prod_k T_k.R^a_k * T_k.c^b_k
            == g^(sum a_k rho_k) * pk^(sum b_k rho_k) * prod_k S_k.R^a_k * S_k.c^b_k

    fails except with probability ``2^-127`` when any one equation is
    violated.  A point that occurs in several links (every bit-0 round
    of a proof draws its sources from the same inputs) enters its side
    once, under the sum of its weights: that is the same product,
    regrouped.

    The bound holds in a prime-order group.  A Schnorr ``GroupElement``
    only guarantees membership in ``Z_p^* = QR x {+-1}``, and an
    order-2 factor (a sign-flipped component, ``x -> p - x``) cancels
    whenever its weight is even, so any point outside the prime-order
    subgroup sends the whole check to :func:`recompute_links`.
    """
    group = scheme.group
    if any(src.Y is not None or tgt.Y is not None for src, tgt, _ in links):
        return False
    weights = iter(batch_weights(2 * len(links), group.q, weight_rng))
    lhs: dict = {}
    rhs: dict = {}
    g_exp = pk_exp = 0
    for (src, tgt, rho), a, b in zip(links, weights, weights):
        g_exp += a * rho
        pk_exp += b * rho
        for side, ct in ((lhs, tgt), (rhs, src)):
            side[ct.R] = side.get(ct.R, 0) + a
            side[ct.c] = side.get(ct.c, 0) + b
    if not all(group.is_prime_order(point) for point in {*lhs, *rhs}):
        return recompute_links(scheme, public_key, links)
    return group.multiexp(list(lhs), list(lhs.values())) == (
        group.g_pow(g_exp)
        * group.pow_cached(public_key, pk_exp)
        * group.multiexp(list(rhs), list(rhs.values()))
    )


def check_links(
    scheme: AtomElGamal,
    public_key,
    links: Sequence[Link],
    weight_rng: Optional[DeterministicRng] = None,
) -> bool:
    """Whether every link holds, by the cheaper sound algorithm for the
    group at hand (``fastexp.rlc_pays``): recompute where exponents are
    short next to the weights (P-256, TOY), fold where they are long
    (MODP2048)."""
    if rlc_pays(scheme.group.q.bit_length()):
        return fold_links(scheme, public_key, links, weight_rng)
    return recompute_links(scheme, public_key, links)
