"""Cryptographic substrate for the Atom reproduction.

This package implements, from scratch, every primitive Atom depends on
(paper §2.3 and Appendix A):

- :mod:`repro.crypto.groups` — the abstract prime-order group interface
  (:class:`~repro.crypto.groups.GroupBackend`), :func:`get_group`, and
  the ``TOY`` unit-test group: a Schnorr group over a 64-bit safe prime
  with message encoding into the quadratic-residue subgroup.
- :mod:`repro.crypto.ec` — the NIST P-256 elliptic-curve backend (name
  ``P256``) the paper's evaluation runs on, and every deployment's group.
- :mod:`repro.crypto.elgamal` — Atom's rerandomizable ElGamal variant with
  the extra ``Y`` component enabling *out-of-order* decrypt-and-reencrypt.
- :mod:`repro.crypto.sigma` — a generalized Schnorr sigma-protocol framework
  (Fiat-Shamir NIZKs for AND-compositions of discrete-log relations).
- :mod:`repro.crypto.nizk` — ``EncProof`` built on it, and ``ReEncProof``:
  one aggregated Chaum-Pedersen proof per server step.
- :mod:`repro.crypto.vector` — multi-part vector ciphertexts, their
  shuffle, and the statistically sound cut-and-choose verifiable-shuffle
  NIZK standing in for Neff's shuffle (see DESIGN.md);
  :mod:`repro.crypto.shuffle_proof` checks that proof's openings.
- :mod:`repro.crypto.aead` / :mod:`repro.crypto.kem` — authenticated
  symmetric encryption and the IND-CCA2 hybrid KEM for inner ciphertexts.
- :mod:`repro.crypto.secret_sharing` — Shamir, Feldman VSS, and dealer-less
  DVSS used for many-trust group keys.
- :mod:`repro.crypto.threshold` — threshold ElGamal over DVSS shares:
  the Lagrange-weighted ReEnc share and key reconstruction.
- :mod:`repro.crypto.commit` — SHA3-based commitments for trap messages.
- :mod:`repro.crypto.beacon` — a deterministic public randomness beacon.
"""

from repro.crypto.groups import (
    Group,
    GroupBackend,
    GroupElement,
    GroupParams,
    available_groups,
    get_group,
)
from repro.crypto.elgamal import AtomCiphertext, ElGamalKeyPair, AtomElGamal
from repro.crypto.nizk import EncProof, ReEncProof
from repro.crypto.kem import Cca2Ciphertext, cca2_encrypt, cca2_decrypt
from repro.crypto.commit import commit, verify_commitment
from repro.crypto.beacon import RandomnessBeacon

__all__ = [
    "Group",
    "GroupBackend",
    "GroupElement",
    "GroupParams",
    "available_groups",
    "get_group",
    "AtomCiphertext",
    "ElGamalKeyPair",
    "AtomElGamal",
    "EncProof",
    "ReEncProof",
    "Cca2Ciphertext",
    "cca2_encrypt",
    "cca2_decrypt",
    "commit",
    "verify_commitment",
    "RandomnessBeacon",
]
