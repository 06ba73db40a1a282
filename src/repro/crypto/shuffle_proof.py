"""Verifiable shuffle NIZK (``ShufProof`` of paper §2.3).

The paper uses Neff's verifiable shuffle [59].  We substitute a
*cut-and-choose* shuffle argument (DESIGN.md substitution #2), which is
simpler and robustly implementable while remaining a real verifiable
shuffle:

- **Completeness** — an honest shuffle always verifies.
- **Statistical soundness** — a prover who did not apply a permutation-
  plus-rerandomization passes with probability at most ``2^-rounds``.
- **Zero knowledge** — each revealed branch is a fresh uniform shuffle
  of either side, independent of the secret permutation.

Protocol: to prove ``C' = Shuffle(pk, C)`` with secret witness
``(perm, rands)`` (meaning ``C'[i] = Rerand(C[perm[i]], rands[i])``),
the prover samples, for each round, an *intermediate* shuffle ``D`` of
``C`` with fresh ``(sigma, tau)``.  The Fiat-Shamir challenge bit then
selects which link to open:

- bit 0: reveal ``(sigma, tau)`` — verifier recomputes ``D`` from ``C``.
- bit 1: reveal the *composition* linking ``D`` to ``C'``:
  ``perm2[i] = sigma^-1(perm[i])`` and ``rand2[i] = rands[i] -
  tau[perm2[i]]`` — verifier checks ``C'[i] == Rerand(D[perm2[i]],
  rand2[i])``.

Rerandomization randomness composes additively, which is what makes the
bit-1 opening possible without revealing the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.elgamal import AtomCiphertext, AtomElGamal
from repro.crypto.fastexp import batch_weights, multiexp, rlc_pays
from repro.crypto.groups import DeterministicRng, GroupBackend

#: Default number of cut-and-choose rounds (soundness 2^-16 for tests;
#: a deployment would use 64+).  Benchmarks sweep this as an ablation.
DEFAULT_ROUNDS = 16

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
    return multiexp(group, list(lhs), list(lhs.values())) == (
        group.g_pow(g_exp)
        * group.pow_cached(public_key, pk_exp)
        * multiexp(group, list(rhs), list(rhs.values()))
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


def batch_rerand_check(
    group: GroupBackend,
    public_key,
    sources: Sequence[AtomCiphertext],
    targets: Sequence[AtomCiphertext],
    rands: Sequence[int],
    rng: Optional[DeterministicRng] = None,
) -> bool:
    """Folded check that ``targets[i] == Rerand(sources[i], rands[i])``
    for one list of ciphertexts: :func:`fold_links` on one round."""
    return fold_links(
        AtomElGamal(group), public_key, list(zip(sources, targets, rands)), rng
    )


def verify_proof(
    scheme: AtomElGamal,
    public_key,
    inputs: Sequence,
    outputs: Sequence,
    proof,
    rounds: int,
    challenge_bits: Callable[..., List[int]],
    links_of: Callable[..., Optional[Iterable[Link]]],
    batched: bool,
    weight_rng: Optional[DeterministicRng],
) -> bool:
    """The verification the scalar and the vector proof share: check
    shape, round count and Fiat-Shamir bits (``challenge_bits`` is the
    proof kind's hash), reduce every round's opening to flat
    :data:`Link` triples — ``links_of(source item, target item, opened
    rand)`` yields an item's, or ``None`` if their shapes disagree —
    and check them all at once.  ``batched=False`` is the per-part
    oracle: one ``rerandomize`` per link."""
    n = len(inputs)
    if len(outputs) != n:
        return False
    if len(proof.rounds) != rounds or len(proof.challenge_bits) != rounds:
        return False
    bits = challenge_bits(
        scheme.group, public_key, inputs, outputs,
        [rnd.intermediate for rnd in proof.rounds], rounds,
    )
    if list(proof.challenge_bits) != bits:
        return False
    links: List[Link] = []
    for rnd, bit in zip(proof.rounds, bits):
        if not len(rnd.intermediate) == len(rnd.opened_perm) == len(rnd.opened_rands) == n:
            return False
        if sorted(rnd.opened_perm) != list(range(n)):
            return False
        source = inputs if bit == 0 else rnd.intermediate
        target = rnd.intermediate if bit == 0 else outputs
        for i, at in enumerate(rnd.opened_perm):
            item_links = links_of(source[at], target[i], rnd.opened_rands[i])
            if item_links is None:
                return False
            links.extend(item_links)
    if batched:
        return check_links(scheme, public_key, links, weight_rng)
    return all(
        src.Y is None
        and scheme.rerandomize(public_key, src, randomness=rho) == tgt
        for src, tgt, rho in links
    )


@dataclass(frozen=True)
class ShuffleRound:
    """One cut-and-choose round: the intermediate vector and the opening."""

    intermediate: Tuple[AtomCiphertext, ...]
    opened_perm: Tuple[int, ...]
    opened_rands: Tuple[int, ...]


@dataclass(frozen=True)
class ShuffleProof:
    """Fiat-Shamir cut-and-choose shuffle proof."""

    rounds: Tuple[ShuffleRound, ...]
    challenge_bits: Tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        if not self.rounds:
            return 8
        n = len(self.rounds[0].intermediate)
        per_round = n * (3 * 32) + n * (8 + 32)
        return len(self.rounds) * per_round + 8


def _challenge_bits(
    group: GroupBackend,
    public_key,
    inputs: Sequence[AtomCiphertext],
    outputs: Sequence[AtomCiphertext],
    intermediates: Sequence[Sequence[AtomCiphertext]],
    rounds: int,
) -> List[int]:
    parts: List[bytes] = [b"repro.shufproof.v1", public_key.to_bytes()]
    for ct in inputs:
        parts.append(ct.to_bytes())
    for ct in outputs:
        parts.append(ct.to_bytes())
    for vec in intermediates:
        for ct in vec:
            parts.append(ct.to_bytes())
    seed = group.hash_to_scalar(*parts)
    rng = DeterministicRng(seed.to_bytes(32, "big", signed=False))
    return [rng.randint(0, 1) for _ in range(rounds)]


def prove_shuffle(
    group: GroupBackend,
    public_key,
    inputs: Sequence[AtomCiphertext],
    outputs: Sequence[AtomCiphertext],
    perm: Sequence[int],
    rands: Sequence[int],
    rounds: int = DEFAULT_ROUNDS,
    rng: Optional[DeterministicRng] = None,
) -> ShuffleProof:
    """Produce a :class:`ShuffleProof` for ``outputs = Shuffle(inputs)``.

    ``perm``/``rands`` are the witness returned by
    :meth:`repro.crypto.elgamal.AtomElGamal.shuffle`.
    """
    scheme = AtomElGamal(group)
    n = len(inputs)
    if len(outputs) != n or len(perm) != n or len(rands) != n:
        raise ValueError("shuffle witness does not match vector sizes")

    intermediates: List[List[AtomCiphertext]] = []
    witnesses: List[Tuple[List[int], List[int]]] = []
    for _ in range(rounds):
        vec, sigma_perm, tau = scheme.shuffle(public_key, inputs, rng)
        intermediates.append(vec)
        witnesses.append((sigma_perm, tau))

    bits = _challenge_bits(group, public_key, inputs, outputs, intermediates, rounds)

    proof_rounds: List[ShuffleRound] = []
    for (sigma_perm, tau), intermediate, bit in zip(witnesses, intermediates, bits):
        if bit == 0:
            opened_perm, opened_rands = list(sigma_perm), list(tau)
        else:
            sigma_inv = [0] * n
            for i, s in enumerate(sigma_perm):
                sigma_inv[s] = i
            opened_perm = [sigma_inv[perm[i]] for i in range(n)]
            opened_rands = [
                (rands[i] - tau[opened_perm[i]]) % group.q for i in range(n)
            ]
        proof_rounds.append(
            ShuffleRound(
                intermediate=tuple(intermediate),
                opened_perm=tuple(opened_perm),
                opened_rands=tuple(opened_rands),
            )
        )
    return ShuffleProof(rounds=tuple(proof_rounds), challenge_bits=tuple(bits))


def verify_shuffle(
    group: GroupBackend,
    public_key,
    inputs: Sequence[AtomCiphertext],
    outputs: Sequence[AtomCiphertext],
    proof: ShuffleProof,
    rounds: int = DEFAULT_ROUNDS,
    batched: bool = True,
    weight_rng: Optional[DeterministicRng] = None,
) -> bool:
    """Verify a :class:`ShuffleProof`.

    All rounds' openings are checked in one go (:func:`check_links`);
    ``batched=False`` keeps the element-wise reference path used by
    benchmarks and differential tests.
    """
    return verify_proof(
        AtomElGamal(group), public_key, inputs, outputs, proof, rounds,
        _challenge_bits, lambda src, tgt, rho: ((src, tgt, rho),),
        batched, weight_rng,
    )
