"""The trap variant's trustee group (paper §4.4, Figure 2).

The trustees are an extra anytrust (here: threshold, so they double as
a highly-available buddy group — §4.5) group that:

1. generates a per-round threshold public key ``pkT`` (users encrypt
   inner ciphertexts to it);
2. collects per-group reports after routing completes:
   (traps consistent?, inner ciphertexts consistent?, #traps, #inner);
3. releases its decryption-key shares **iff** every report is clean and
   the global trap count equals the global inner-ciphertext count;
   otherwise every trustee deletes its share and the round aborts
   without revealing anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crypto.groups import DeterministicRng, Group, GroupElement
from repro.crypto.secret_sharing import DvssProtocol
from repro.crypto.threshold import ThresholdElGamal

#: trustees per deployment (every deployment uses three)
NUM_TRUSTEES = 3


@dataclass(frozen=True)
class GroupReport:
    """What each group reports to the trustees after routing (§4.4)."""

    gid: int
    traps_ok: bool
    inner_ok: bool
    num_traps: int
    num_inner: int


class KeyWithheld(RuntimeError):
    """Trustees refused to release the decryption key: checks failed."""

    def __init__(self, reason: str, offending_gids: List[int]):
        self.reason = reason
        self.offending_gids = offending_gids
        super().__init__(f"trustees withheld key: {reason} (groups {offending_gids})")


class TrusteeGroup:
    """Threshold trustee group with report collection and key release."""

    def __init__(
        self,
        group: Group,
        num_trustees: int = NUM_TRUSTEES,
        threshold: Optional[int] = None,
        rng: Optional[DeterministicRng] = None,
    ):
        self.group = group
        self.num_trustees = num_trustees
        self.threshold = threshold if threshold is not None else num_trustees
        dvss = DvssProtocol(group, num_trustees, self.threshold).run(rng)
        self._scheme = ThresholdElGamal(group, dvss)
        self._reports: Dict[int, GroupReport] = {}
        self._released: Optional[int] = None
        self._deleted = False

    @property
    def public_key(self) -> GroupElement:
        """``pkT``: what clients encrypt inner ciphertexts to."""
        return self._scheme.public_key

    # -- report collection -------------------------------------------------

    def submit_report(self, report: GroupReport) -> None:
        if self._deleted:
            raise RuntimeError("round already aborted; shares deleted")
        self._reports[report.gid] = report

    # -- release decision ----------------------------------------------------

    def evaluate(self, expected_groups: int) -> List[int]:
        """Raise :class:`KeyWithheld` unless every check passes.

        Returns the released share values on success.  Trustees delete
        their shares on failure (``_deleted``), so a failed round can
        never be decrypted later.
        """
        if self._released is not None:
            return self._release_shares()
        if len(self._reports) != expected_groups:
            missing = expected_groups - len(self._reports)
            self._delete_shares()
            raise KeyWithheld(f"{missing} group reports missing", [])

        bad_traps = [r.gid for r in self._reports.values() if not r.traps_ok]
        bad_inner = [r.gid for r in self._reports.values() if not r.inner_ok]
        if bad_traps or bad_inner:
            self._delete_shares()
            raise KeyWithheld("group reported violation", sorted(bad_traps + bad_inner))

        total_traps = sum(r.num_traps for r in self._reports.values())
        total_inner = sum(r.num_inner for r in self._reports.values())
        if total_traps != total_inner:
            self._delete_shares()
            raise KeyWithheld(
                f"count mismatch: {total_traps} traps vs {total_inner} inner", []
            )

        self._released = self._scheme.reconstruct_secret(
            {i: self._scheme.dvss.shares[i].value for i in range(self.threshold)}
        )
        return self._release_shares()

    def secret_key(self) -> int:
        """The reconstructed decryption key (only after a clean release)."""
        if self._released is None:
            raise RuntimeError("key not released; call evaluate() first")
        return self._released

    # -- internals -------------------------------------------------------------

    def _release_shares(self) -> List[int]:
        return [s.value for s in self._scheme.dvss.shares[: self.threshold]]

    def _delete_shares(self) -> None:
        self._deleted = True
