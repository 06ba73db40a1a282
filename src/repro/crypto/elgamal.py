"""Atom's rerandomizable ElGamal variant (paper Appendix A).

A ciphertext is a triple ``(R, c, Y)``:

- ``R`` carries the randomness used to encrypt for the *next* group,
- ``c`` is the blinded message,
- ``Y`` carries the randomness used to encrypt for the *current* group
  (``None`` plays the paper's ``⊥``).

Keeping both ``R`` and ``Y`` is what enables *out-of-order* decryption
and re-encryption: a server can strip one layer of the current group's
encryption (using ``Y``) while adding a layer for the next group's key
(accumulating randomness into ``R``), even though the layers were added
in a different order.

Group public keys are products of member public keys (anytrust groups)
or DVSS outputs (many-trust groups); in both cases the ciphertext
algebra below is identical — only the secret used in ``reencrypt``
differs (a raw key vs. a Lagrange-weighted share).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.groups import DeterministicRng, GroupBackend as Group, GroupElement


@dataclass(frozen=True)
class ElGamalKeyPair:
    """A secret scalar and the matching public element ``X = g^x``."""

    secret: int
    public: GroupElement

    @classmethod
    def generate(cls, group: Group, rng: Optional[DeterministicRng] = None) -> "ElGamalKeyPair":
        x = group.random_scalar(rng)
        return cls(secret=x, public=group.g_pow(x))


@dataclass(frozen=True)
class AtomCiphertext:
    """The ``(R, c, Y)`` triple of Appendix A. ``Y is None`` means ⊥."""

    R: GroupElement
    c: GroupElement
    Y: Optional[GroupElement] = None

    def with_y_bot(self) -> "AtomCiphertext":
        """Drop ``Y`` (the last server of a group does this before
        forwarding: all of the current group's layers are peeled off)."""
        return AtomCiphertext(self.R, self.c, None)

    def to_bytes(self) -> bytes:
        y_bytes = self.Y.to_bytes() if self.Y is not None else b"\x00"
        return self.R.to_bytes() + self.c.to_bytes() + y_bytes

    @property
    def size_bytes(self) -> int:
        return len(self.to_bytes())


class AtomElGamal:
    """Stateless algorithms over :class:`AtomCiphertext` for one group."""

    def __init__(self, group: Group):
        self.group = group

    # -- KeyGen ---------------------------------------------------------

    def keygen(self, rng: Optional[DeterministicRng] = None) -> ElGamalKeyPair:
        return ElGamalKeyPair.generate(self.group, rng)

    def combine_public_keys(self, publics: Sequence[GroupElement]) -> GroupElement:
        """Anytrust group key: the product of all member public keys."""
        combined = self.group.identity
        for pk in publics:
            combined = combined * pk
        return combined

    # -- Enc / Dec --------------------------------------------------------

    def encrypt(
        self,
        public_key: GroupElement,
        message: GroupElement,
        rng: Optional[DeterministicRng] = None,
        randomness: Optional[int] = None,
    ) -> Tuple[AtomCiphertext, int]:
        """``Enc(X, m)``: returns the ciphertext and the randomness ``r``
        (needed by :class:`~repro.crypto.nizk.EncProof`)."""
        r = randomness if randomness is not None else self.group.random_scalar(rng)
        R = self.group.g_pow(r)
        c = message * self.group.pow_cached(public_key, r)
        return AtomCiphertext(R=R, c=c, Y=None), r

    def decrypt(self, secret: int, ciphertext: AtomCiphertext) -> GroupElement:
        """``Dec(x, (R, c, Y))``; fails if ``Y != ⊥``."""
        if ciphertext.Y is not None:
            raise ValueError("Dec requires Y = ⊥ (ciphertext mid-reencryption)")
        return ciphertext.c / (ciphertext.R ** secret)

    # -- Rerandomize (the per-ciphertext half of a shuffle) ---------------

    def rerandomize(
        self,
        public_key: GroupElement,
        ciphertext: AtomCiphertext,
        rng: Optional[DeterministicRng] = None,
        randomness: Optional[int] = None,
    ) -> AtomCiphertext:
        """Rerandomize ``(R, c, ⊥)`` under ``X``; fails if ``Y != ⊥``."""
        if ciphertext.Y is not None:
            raise ValueError("Shuffle requires Y = ⊥")
        r = randomness if randomness is not None else self.group.random_scalar(rng)
        return AtomCiphertext(
            R=self.group.g_pow(r) * ciphertext.R,
            c=ciphertext.c * self.group.pow_cached(public_key, r),
            Y=None,
        )

    def rerandomize_many(
        self,
        public_key: GroupElement,
        ciphertexts: Sequence[AtomCiphertext],
        randomness: Sequence[int],
    ) -> List[AtomCiphertext]:
        """``[rerandomize(X, ct, randomness=r) for ct, r in ...]``
        through the group's batch kernels."""
        if any(ct.Y is not None for ct in ciphertexts):
            raise ValueError("Shuffle requires Y = ⊥")
        Rs, cs = self._pow_mul_pairs(
            public_key, randomness,
            [ct.R for ct in ciphertexts], [ct.c for ct in ciphertexts],
        )
        return [AtomCiphertext(R, c) for R, c in zip(Rs, cs)]

    def _pow_mul_pairs(self, public_key, randomness, Rs, cs):
        """``([g^r * R], [X^r * c])`` as ONE kernel call over both
        components, so a list of ``n`` ciphertexts is ``2n`` chains."""
        group = self.group
        n = len(Rs)
        out = group.pow_mul_many(
            [group.g] * n + [public_key] * n, list(randomness) * 2, Rs + cs
        )
        return out[:n], out[n:]

    # -- ReEnc (out-of-order decrypt-and-reencrypt) ------------------------

    def reencrypt(
        self,
        secret: int,
        next_public_key: Optional[GroupElement],
        ciphertext: AtomCiphertext,
        rng: Optional[DeterministicRng] = None,
        randomness: Optional[int] = None,
    ) -> AtomCiphertext:
        """``ReEnc(x, X', (R, c, Y))`` from Appendix A.

        Strips this server's layer (via ``Y``) and, unless
        ``next_public_key is None`` (the paper's ``X' = ⊥``, i.e. final
        decryption), adds a layer under the next group's key (via ``R``).
        """
        R, c, Y = ciphertext.R, ciphertext.c, ciphertext.Y
        if Y is None:
            Y, R = R, self.group.identity
        c_tmp = c / (Y ** secret)
        if next_public_key is None:
            return AtomCiphertext(R=R, c=c_tmp, Y=Y)
        r = randomness if randomness is not None else self.group.random_scalar(rng)
        return AtomCiphertext(
            R=self.group.g_pow(r) * R,
            c=c_tmp * self.group.pow_cached(next_public_key, r),
            Y=Y,
        )

    def reencrypt_many(
        self,
        secret: int,
        next_public_key: Optional[GroupElement],
        ciphertexts: Sequence[AtomCiphertext],
        rng: Optional[DeterministicRng] = None,
        randomness: Optional[Sequence[int]] = None,
    ) -> List[AtomCiphertext]:
        """``[reencrypt(x, X', ct, rng) for ct in ciphertexts]`` through
        the group's batch kernels; randomness is drawn in list order,
        exactly as that loop would, unless given."""
        group = self.group
        # Y = ⊥ marks a ciphertext entering the group: its R becomes Y.
        Ys = [ct.R if ct.Y is None else ct.Y for ct in ciphertexts]
        Rs = [group.identity if ct.Y is None else ct.R for ct in ciphertexts]
        cs = group.div_pow_many([ct.c for ct in ciphertexts], Ys, secret)
        if next_public_key is not None:
            if randomness is None:
                randomness = [group.random_scalar(rng) for _ in ciphertexts]
            Rs, cs = self._pow_mul_pairs(next_public_key, randomness, Rs, cs)
        return [AtomCiphertext(R, c, Y) for R, c, Y in zip(Rs, cs, Ys)]
