"""Journal record bodies: one :mod:`repro.codec` table per record type.

The envelope layer and the journal share one codec, so a checkpoint
taken on P-256 serializes compressed points and one on TOY fixed-width
residues through the same tables the wire uses (layer
commits carry the envelope layer's :data:`~repro.net.envelopes.AUDIT`
table verbatim).  The round a record belongs to lives in its frame
(:mod:`repro.store.wal`), never in its body: per-round tables are
decoded with ``round_id=rec.round_id``.

Replay cost model: intake envelopes replay in O(submissions), and the
latest CHECKPOINT pins the mixing state, so recovery is
O(since-last-checkpoint) mixing work.  Every layer commit is followed
by a checkpoint, so only a crash between those two appends leaves a
layer to re-mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from repro.codec import (
    BOOL,
    BYTES,
    F64,
    TEXT,
    U32,
    U64,
    Table,
    batch,
    seq,
    tup,
)
from repro.core.batch import CiphertextBatch
from repro.core.group import MixAudit
from repro.core.pipeline import RoundStats, StreamConfig
from repro.core.protocol import DeploymentConfig
from repro.net.envelopes import AUDIT


def rng_state(rng) -> Tuple[bytes, int]:
    """``(seed, counter)`` of a round's rng; ``(b"", 0)`` when the run
    was not seeded and cannot be replayed."""
    seed = rng.seed if rng is not None and hasattr(rng, "seed") else b""
    return seed, (rng.counter if seed else 0)


@dataclass(frozen=True)
class RngMark:
    """ROUND_SETUP / ROUND_BEGIN: an rng state tied to a round event."""

    round_id: int
    fresh: bool  # ROUND_SETUP: did this setup form fresh contexts?
    seed: bytes  # b"": the run was not seeded and cannot be replayed
    counter: int


RNG_MARK = Table(
    "rng mark", RngMark, ("fresh", BOOL), ("seed", BYTES), ("counter", U64)
)


class Honest(NamedTuple):
    """HONEST: one honest stream-intake unit."""

    gid: int
    message: bytes


HONEST = Table("HONEST", Honest, ("gid", U32), ("message", BYTES))


@dataclass
class LayerCommit:
    """LAYER_COMMIT: where the rng stood after a committed layer, and
    the layer's audits (replayed into the resumed ``RoundResult`` so it
    stays byte-identical to an uninterrupted run)."""

    round_id: int
    layer: int  # layers committed so far (1-based: first commit -> 1)
    seed: bytes
    counter: int
    audits: List[MixAudit]


LAYER_COMMIT = Table(
    "LAYER_COMMIT", LayerCommit,
    ("layer", U32),
    ("seed", BYTES),
    ("counter", U64),
    ("audits", seq(AUDIT, into=list)),
)


@dataclass
class Snapshot:
    """CHECKPOINT: per-node holdings at a committed layer — enough,
    with the intake envelopes and the rng mark, to re-enter the
    two-phase layer protocol at exactly this point.  Holdings are
    ``(gid, batch)`` pairs in gid order, copied in as batch records;
    they decode straight back to batches (a structural scan; element
    validation waits for the mix that reads them)."""

    round_id: int
    layer: int
    holdings: List[Tuple[int, CiphertextBatch]]


CHECKPOINT = Table(
    "CHECKPOINT", Snapshot,
    ("layer", U32),
    ("holdings", seq(tup(U32, batch("CHECKPOINT holdings")))),
)


class RoundEnd(NamedTuple):
    """ROUND_END: a round ran its exit protocol (ROUND_DONE, not this,
    settles a stream's round)."""

    ok: bool


ROUND_END = Table("ROUND_END", RoundEnd, ("ok", BOOL))


class RoundDone(NamedTuple):
    """ROUND_DONE: a settled stream round plus the rng position at
    settle time (which is *after* the next round's drained intake, the
    resume point for a crash that lands between rounds)."""

    stats: RoundStats
    rng_counter: int


ROUND_DONE = Table(
    "ROUND_DONE",
    lambda round_id, stats, rng_counter: RoundDone(
        RoundStats(round_id, **stats), rng_counter
    ),
    ("stats", Table(
        "RoundStats", dict,
        ("ok", BOOL),
        ("attempts", U32),
        ("messages", seq(BYTES, into=list)),
        ("abort_reasons", seq(TEXT, into=list)),
        ("recovered_gids", seq(U32, into=list)),
        ("blamed_users", seq(U32)),
        ("rekeyed", BOOL),
        ("submitted", U32),
        ("dummies", U32),
        ("intake_s", F64),
        ("overlap_s", F64),
        ("foreign_intake_s", F64),
        ("mix_wall_s", F64),
    )),
    ("rng_counter", U64),
)

#: META: the DeploymentConfig of the run that owns the log (state_dir
#: deliberately excluded: the recovered deployment gets its store
#: injected)
META = Table(
    "META", DeploymentConfig,
    ("num_servers", U32),
    ("num_groups", U32),
    ("group_size", U32),
    ("variant", TEXT),
    ("mode", TEXT),
    ("h", U32),
    ("iterations", U32),
    ("message_size", U32),
    ("crypto_group", TEXT),
    ("topology", TEXT),
    ("nizk_rounds", U32),
    ("transport", TEXT),
    ("wal_segment_bytes", U64),
    ("wal_segment_records", U64),
    ("wal_retain_segments", U32),
    ("seed", BYTES),
)


class StreamBegin(NamedTuple):
    """STREAM_BEGIN: the stream's config plus its fault schedule."""

    stream: StreamConfig
    schedule: str


STREAM_BEGIN = Table(
    "STREAM_BEGIN", StreamBegin,
    ("stream", Table(
        "StreamConfig", StreamConfig,
        ("rounds", U32),
        ("users_per_round", U32),
        ("seed", BYTES),
    )),
    ("schedule", TEXT),
)
