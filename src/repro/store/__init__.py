"""Durable state: write-ahead log, checkpoints, crash-restart recovery.

The fault story of the paper (§4.5 buddy recovery, §4.6 blame) assumes
servers can *rejoin*; this package makes the reproduction restartable:

- :mod:`repro.store.wal` — the append-only, CRC-framed record framing
  (each frame names its round) with a torn-tail-tolerant reader and an
  fsync-batching knob.
- :mod:`repro.store.segments` — :class:`LogDir`: the sharded on-disk
  layout (``wal-<seq>.seg`` rotation under an atomic manifest, orphan
  collection, crash-test failpoints).
- :mod:`repro.store.compact` — :class:`Compactor`: rewrites sealed
  segments down to the records a restore can still need (safe-point =
  durable round boundaries).
- :mod:`repro.store.ship` — :class:`CheckpointShipper`: packages the
  live suffix into a self-contained bundle a replacement process
  restores from in O(state) instead of O(history).
- :mod:`repro.store.checkpoint` — record bodies: one
  :mod:`repro.codec` table per record type (holdings snapshots, layer
  commits with audits, rng marks, settled-round stats, run config).
- :mod:`repro.store.store` — the :class:`Store` interface the protocol
  journals through (no-op by default; :class:`DurableStore` when a
  deployment has a ``state_dir``).
- :mod:`repro.store.recovery` — :class:`RecoveryManager`: rebuilds an
  interrupted stream from the log and re-enters the coordinator's
  two-phase layer protocol at the exact committed layer.

Import :class:`~repro.store.recovery.RecoveryManager` from its module
(it pulls in the whole protocol stack; the store primitives here stay
light).
"""

from repro.store.segments import LogDir, LogScan
from repro.store.store import DurableStore, NullStore, Store
from repro.store.wal import (
    RecordType,
    WalError,
    WalRecord,
    WalScan,
    WriteAheadLog,
)

__all__ = [
    "Store",
    "NullStore",
    "DurableStore",
    "LogDir",
    "LogScan",
    "WriteAheadLog",
    "WalRecord",
    "WalScan",
    "WalError",
    "RecordType",
]
