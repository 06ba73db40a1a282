"""Checking a shuffle proof's openings (``ShufProof`` of paper §2.3).

The paper uses Neff's verifiable shuffle [59].  We substitute a
*cut-and-choose* argument (DESIGN.md substitution #2), proved and
verified over whole vector ciphertexts in :mod:`repro.crypto.vector`.
Every round of that proof opens one rerandomization per part: a
:data:`Link` ``(source, target, rho)`` claiming ``target ==
Rerand(source, rho)``.  :func:`recompute_links` checks a proof's links
all at once by rerandomizing every source in one batch-kernel call.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.crypto.elgamal import AtomCiphertext, AtomElGamal

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
