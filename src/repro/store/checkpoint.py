"""Snapshot and store-local record codecs.

Binary records (layer commits, checkpoints) reuse the envelope layer's
group-bound writer/reader and crypto-object codecs, so the same bytes
work on every registered group backend — a checkpoint taken on P-256
serializes compressed points, one on MODP2048 fixed-width residues,
through the identical code path the wire already exercises.

Small bookkeeping records (rng marks, stream config, settled-round
stats) are JSON: they carry no group elements, and being greppable on
disk is worth more than the few bytes a binary layout would save.

Replay cost model: intake envelopes replay in O(submissions), and the
latest CHECKPOINT pins the mixing state, so recovery is
O(since-last-checkpoint) mixing work — with the default cadence of one
checkpoint per committed layer, zero re-mixing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.batch import BatchFormatError, CiphertextBatch
from repro.core.group import MixAudit
from repro.crypto.groups import GroupBackend as Group
# The envelope layer's binary substrate (shared on purpose: one codec
# path for wire and disk; see module docstring).
from repro.net.envelopes import (  # noqa: F401
    _Reader as Reader,
    _Writer as Writer,
    WireFormatError,
    _read_audit,
    _write_audit,
)


# ---------------------------------------------------------------------------
# JSON bookkeeping records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngMark:
    """An rng (seed, counter) state tied to a round event."""

    round_id: int
    fresh: bool  # ROUND_SETUP: did this setup form fresh contexts?
    seed: bytes  # b"": the run was not seeded and cannot be replayed
    counter: int


def encode_rng_mark(round_id: int, rng, fresh: bool = False) -> bytes:
    seed = rng.seed if rng is not None and hasattr(rng, "seed") else b""
    counter = rng.counter if seed else 0
    return json.dumps(
        {
            "round": round_id,
            "fresh": fresh,
            "seed": seed.hex(),
            "counter": counter,
        }
    ).encode()


def decode_rng_mark(payload: bytes) -> RngMark:
    obj = json.loads(payload)
    return RngMark(
        round_id=obj["round"],
        fresh=obj["fresh"],
        seed=bytes.fromhex(obj["seed"]),
        counter=obj["counter"],
    )


def encode_honest(round_id: int, gid: int, message: bytes) -> bytes:
    return json.dumps(
        {"round": round_id, "gid": gid, "message": message.hex()}
    ).encode()


def decode_honest(payload: bytes) -> Tuple[int, int, bytes]:
    obj = json.loads(payload)
    return obj["round"], obj["gid"], bytes.fromhex(obj["message"])


def encode_round_stats(stats, rng) -> bytes:
    """A settled stream round plus the rng position at settle time
    (which is *after* the next round's drained intake, the resume
    point for a crash that lands between rounds)."""
    return json.dumps(
        {
            "round_id": stats.round_id,
            "ok": stats.ok,
            "attempts": stats.attempts,
            "messages": [m.hex() for m in stats.messages],
            "abort_reasons": list(stats.abort_reasons),
            "recovered_gids": list(stats.recovered_gids),
            "blamed_users": list(stats.blamed_users),
            "rekeyed": stats.rekeyed,
            "submitted": stats.submitted,
            "dummies": stats.dummies,
            "intake_s": stats.intake_s,
            "overlap_s": stats.overlap_s,
            "foreign_intake_s": stats.foreign_intake_s,
            "mix_wall_s": stats.mix_wall_s,
            "rng_counter": rng.counter if rng is not None else 0,
        }
    ).encode()


def decode_round_stats(payload: bytes):
    """Returns (RoundStats, rng_counter)."""
    from repro.core.pipeline import RoundStats  # lazy: avoid an import cycle

    obj = json.loads(payload)
    stats = RoundStats(
        round_id=obj["round_id"],
        ok=obj["ok"],
        attempts=obj["attempts"],
        messages=[bytes.fromhex(m) for m in obj["messages"]],
        abort_reasons=list(obj["abort_reasons"]),
        recovered_gids=list(obj["recovered_gids"]),
        blamed_users=tuple(obj["blamed_users"]),
        rekeyed=obj["rekeyed"],
        # absent in pre-scenario-engine logs: default to 0 so old state
        # dirs stay resumable
        submitted=obj.get("submitted", 0),
        dummies=obj.get("dummies", 0),
        intake_s=obj["intake_s"],
        overlap_s=obj["overlap_s"],
        foreign_intake_s=obj["foreign_intake_s"],
        mix_wall_s=obj["mix_wall_s"],
    )
    return stats, obj["rng_counter"]


# ---------------------------------------------------------------------------
# binary records: layer commits and holdings checkpoints
# ---------------------------------------------------------------------------


@dataclass
class LayerCommit:
    """A committed mixing layer: where the rng stood afterwards, and
    the layer's audits (replayed into the resumed ``RoundResult`` so it
    stays byte-identical to an uninterrupted run)."""

    round_id: int
    layer: int  # layers committed so far (1-based: first commit -> 1)
    seed: bytes
    counter: int
    audits: List[MixAudit]


def encode_layer_commit(
    group: Group, round_id: int, layer: int, rng, audits: List[MixAudit]
) -> bytes:
    w = Writer(group)
    w.u32(round_id)
    w.u32(layer)
    seed = rng.seed if rng is not None and hasattr(rng, "seed") else b""
    w.blob(seed)
    w.u64(rng.counter if seed else 0)
    w.u32(len(audits))
    for audit in audits:
        _write_audit(w, audit)
    return bytes(w.buf)


def decode_layer_commit(group: Group, payload: bytes) -> LayerCommit:
    r = Reader(payload, group)
    round_id = r.u32()
    layer = r.u32()
    seed = r.blob()
    counter = r.u64()
    audits = [_read_audit(r) for _ in range(r.u32())]
    return LayerCommit(
        round_id=round_id, layer=layer, seed=seed, counter=counter,
        audits=audits,
    )


@dataclass
class Snapshot:
    """Per-node holdings at a committed layer — enough, with the intake
    envelopes and the rng mark, to re-enter the two-phase layer
    protocol at exactly this point."""

    round_id: int
    layer: int
    holdings: Dict[int, CiphertextBatch]


def _write_holdings(w: "Writer", holdings) -> None:
    """``_write_vectors``-layout encoding of one group's holdings: the
    batch is already serialized, so its records are copied as they
    are."""
    batch = holdings.as_batch()
    w.u32(len(batch))
    w.buf += batch.raw_records()


def encode_checkpoint(
    group: Group, round_id: int, layer: int, holdings: Dict[int, object]
) -> bytes:
    w = Writer(group)
    w.u32(round_id)
    w.u32(layer)
    w.u32(len(holdings))
    for gid in sorted(holdings):
        w.u32(gid)
        _write_holdings(w, holdings[gid])
    return bytes(w.buf)


def decode_checkpoint(group: Group, payload: bytes) -> Snapshot:
    """Holdings decode straight to batches (a structural scan; element
    validation waits for the mix that reads them)."""
    r = Reader(payload, group)
    round_id = r.u32()
    layer = r.u32()
    holdings: Dict[int, CiphertextBatch] = {}
    for _ in range(r.u32()):
        gid = r.u32()
        try:
            holdings[gid], r.pos = CiphertextBatch.parse(group, r.raw, r.pos)
        except BatchFormatError as exc:
            raise WireFormatError(f"malformed CHECKPOINT holdings: {exc}") from exc
    return Snapshot(round_id=round_id, layer=layer, holdings=holdings)


# ---------------------------------------------------------------------------
# deployment / stream config records
# ---------------------------------------------------------------------------

#: DeploymentConfig fields persisted in META (state_dir deliberately
#: excluded: the recovered deployment gets its store injected).
_CONFIG_FIELDS = (
    "num_servers", "num_groups", "group_size", "variant", "mode", "h",
    "adversarial_fraction", "iterations", "message_size", "crypto_group",
    "topology", "nizk_rounds", "num_trustees", "transport",
    "wal_fsync_every", "checkpoint_every", "spill_threshold",
    "wal_segment_bytes", "wal_segment_records", "wal_retain_segments",
)


def encode_meta(config) -> bytes:
    obj = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    obj["seed"] = config.seed.hex()
    return json.dumps(obj).encode()


def decode_meta(payload: bytes):
    from repro.core.protocol import DeploymentConfig  # lazy: import cycle

    obj = json.loads(payload)
    seed = bytes.fromhex(obj.pop("seed"))
    return DeploymentConfig(seed=seed, **obj)


def encode_stream_begin(stream, schedule_spec: str) -> bytes:
    return json.dumps(
        {
            "rounds": stream.rounds,
            "users_per_round": stream.users_per_round,
            "seed": stream.seed.hex(),
            "overlap_intake": stream.overlap_intake,
            "retry_aborted": stream.retry_aborted,
            "rekey_after_blame": stream.rekey_after_blame,
            "schedule": schedule_spec,
        }
    ).encode()


def decode_stream_begin(payload: bytes):
    """Returns (StreamConfig, schedule_spec)."""
    from repro.core.pipeline import StreamConfig  # lazy: import cycle

    obj = json.loads(payload)
    spec = obj.pop("schedule")
    seed = bytes.fromhex(obj.pop("seed"))
    return StreamConfig(seed=seed, **obj), spec


def encode_round_end(round_id: int, ok: bool) -> bytes:
    return json.dumps({"round": round_id, "ok": ok}).encode()


def decode_round_end(payload: bytes) -> Tuple[int, bool]:
    obj = json.loads(payload)
    return obj["round"], obj["ok"]
