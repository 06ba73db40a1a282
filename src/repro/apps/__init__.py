"""Atom's two target applications (paper §5).

- :mod:`repro.apps.microblog` — anonymous microblogging: short
  broadcast messages published to a public bulletin board.
- :mod:`repro.apps.dialing` — the dialing protocol: establish shared
  secrets via per-recipient mailboxes.
"""

from repro.apps.microblog import BulletinBoard
from repro.apps.dialing import Mailbox, DialRequest

__all__ = [
    "BulletinBoard",
    "Mailbox",
    "DialRequest",
]
