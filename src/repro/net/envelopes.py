"""Typed, versioned wire envelopes for inter-node messages.

Every interaction that :class:`~repro.net.coordinator.Coordinator`
drives between nodes — intake submissions, mix-layer hand-offs
(ciphertext batches plus the shuffle-proof NIZK evidence of the
verified variants), trap checks, trustee reports and key release,
fault notifications — is an :class:`Envelope`: a fixed header
(magic, wire version, kind, round id, sender, destination) plus a
typed payload.

Each payload kind declares its wire layout as a :mod:`repro.codec`
field table next to its dataclass; the one generic codec encodes and
decodes them all.  Group elements travel as the fixed-width big-endian
integers that ``element.to_bytes()`` / ``GroupBackend.element``
round-trip (so the same envelope bytes work on Schnorr groups and on
P-256), scalars as ``q``-width integers, and routed payloads as the
:mod:`repro.core.messages` fixed-size byte layouts, length-prefixed.

Transports decide how envelopes move: the in-process transport passes
the typed objects through untouched (zero copy), the TCP transport
frames ``envelope.to_bytes()`` over a socket.  Either way the payload
types below are the API surface nodes program against.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional, Tuple, Type

from repro.codec import (
    BOOL,
    BYTES,
    ELEMENT,
    ELEMENT_VALUE,
    I32,
    SCALAR,
    TEXT,
    U8,
    U32,
    U64,
    Table,
    WireFormatError,
    batch,
    opt,
    seq,
    tup,
)
from repro.core.batch import BatchFormatError, CiphertextBatch
from repro.core.client import Submission, TrapSubmission
from repro.core.group import MixAudit
from repro.core.trustees import GroupReport
from repro.crypto.elgamal import AtomCiphertext
from repro.crypto.groups import GroupBackend as Group
from repro.crypto.nizk import EncProof
from repro.crypto.sigma import SigmaProof
from repro.crypto.vector import (
    CiphertextVector,
    VectorShuffleProof,
    VectorShuffleRound,
)

#: bump when the header or any codec changes incompatibly
#: (v2: u64 request id in the header for idempotent RPC delivery;
#: v3: routed payloads use the 48-byte inner envelope and u16 framing
#: of :mod:`repro.core.messages` — payload bytes are opaque here, so
#: only the version keeps an old peer or journal from being adopted;
#: v4: MIX loses its worker-pool flag, and kinds 11 and 12 — the
#: pooled mix's two-step reply — are retired)
WIRE_VERSION = 4
MAGIC = b"AT"

#: well-known logical node addresses (server nodes use their gid >= 0)
COORDINATOR = -1
TRUSTEE = -2
#: fleet-process control plane (round lifecycle, status, shutdown)
CONTROL = -3


class Kind(enum.IntEnum):
    """The envelope catalogue (see DESIGN.md for the full sequence)."""

    # intake
    SUBMIT_PLAIN = 1
    SUBMIT_TRAP = 2
    SUBMIT_OK = 3
    SUBMIT_ERR = 4
    # mixing
    MIX = 10
    MIX_BATCH = 13
    MIX_SUMMARY = 14
    COMMIT_LAYER = 15
    ABORT_LAYER = 16
    # faults
    FAULT = 20
    # exit
    EXIT = 30
    EXIT_PAYLOADS = 31
    TRAP_CHECK = 32
    GROUP_REPORT = 33
    REPORT_OK = 34
    KEY_REQUEST = 35
    KEY_RELEASE = 36
    KEY_WITHHELD = 37
    # health (heartbeat failure detector)
    PING = 40
    PONG = 41
    # fleet control plane (multi-process deployments)
    ROUND_OPEN = 50
    ROUND_CLOSE = 51
    FLEET_STATUS = 52
    FLEET_STATUS_REPLY = 53
    FLEET_SHUTDOWN = 54
    CONTROL_OK = 55
    BUNDLE_INSTALL = 56
    BUNDLE_FETCH = 57
    BUNDLE_DATA = 58


# ---------------------------------------------------------------------------
# shared crypto-object tables
# ---------------------------------------------------------------------------

CIPHERTEXT = Table(
    "AtomCiphertext", AtomCiphertext,
    ("R", ELEMENT), ("c", ELEMENT), ("Y", opt(ELEMENT)),
)
#: the :mod:`repro.core.batch` record layout, decoded eagerly
VECTOR = Table("CiphertextVector", CiphertextVector, ("parts", seq(CIPHERTEXT)))
SIGMA = Table(
    "SigmaProof", SigmaProof,
    ("commitments", seq(ELEMENT_VALUE)),
    ("challenge", SCALAR),
    ("responses", seq(SCALAR)),
)
SUBMISSION = Table(
    "Submission", Submission,
    ("vector", VECTOR),
    ("proofs", seq(Table("EncProof", EncProof, ("proof", SIGMA)))),
)
SHUFFLE_PROOF = Table(
    "VectorShuffleProof", VectorShuffleProof,
    ("rounds", seq(Table(
        "VectorShuffleRound", VectorShuffleRound,
        ("intermediate", seq(VECTOR)),
        ("opened_perm", seq(U32)),
        ("opened_rands", seq(seq(SCALAR))),
    ))),
    ("challenge_bits", seq(U8)),
)
AUDIT = Table(
    "MixAudit", MixAudit,
    ("gid", U32),
    ("shuffles_proved", U32),
    ("shuffles_verified", U32),
    ("reencs_proved", U32),
    ("reencs_verified", U32),
    ("tamperings", seq(tup(I32, TEXT), into=list)),
    ("bytes_sent", U64),
    ("final_shuffle_proof", opt(SHUFFLE_PROOF)),
)


def encode_audit(group: Group, audit: MixAudit) -> bytes:
    """Canonical bytes of a :class:`MixAudit` (also used by tests to
    compare results across transports byte for byte)."""
    return AUDIT.encode(audit, group)


# ---------------------------------------------------------------------------
# payload types — one dataclass and one field table per envelope kind
# ---------------------------------------------------------------------------

_PAYLOADS: Dict[Kind, Type["_Payload"]] = {}


def _register(kind: Kind, *fields):
    """Declare ``cls`` as ``kind``'s payload with ``fields`` as its
    wire layout (``(attribute, field type)`` pairs in wire order)."""

    def wrap(cls):
        cls.kind = kind
        cls.table = Table(kind.name, cls, *fields)
        _PAYLOADS[kind] = cls
        return cls

    return wrap


class _Payload:
    """Base of every payload type."""

    kind: ClassVar[Kind]
    table: ClassVar[Table]


@_register(Kind.SUBMIT_PLAIN, ("gid", U32), ("submission", SUBMISSION))
@dataclass
class SubmitPlain(_Payload):
    """Basic/NIZK-variant intake: one proved submission for ``gid``."""

    gid: int
    submission: Submission


@_register(Kind.SUBMIT_TRAP, ("submission", Table(
    "TrapSubmission", TrapSubmission,
    ("gid", U32),
    ("pair", tup(SUBMISSION, SUBMISSION)),
    ("trap_commitment", BYTES),
)))
@dataclass
class SubmitTrap(_Payload):
    """Trap-variant intake: the (inner, trap) pair plus commitment."""

    submission: TrapSubmission


@_register(Kind.SUBMIT_OK, ("accepted", U32))
@dataclass
class SubmitOk(_Payload):
    """Intake accepted; ``accepted`` ciphertexts entered the holdings."""

    accepted: int


@_register(Kind.SUBMIT_ERR, ("reason", TEXT))
@dataclass
class SubmitErr(_Payload):
    """Intake rejected (bad EncProof, duplicate, ...)."""

    reason: str


@_register(
    Kind.MIX,
    ("layer", U32),
    ("successors", seq(U32)),
    ("next_keys", seq(opt(ELEMENT))),
    ("seed", opt(BYTES)),
)
@dataclass
class Mix(_Payload):
    """Coordinator -> node: mix your holdings for ``layer``.

    ``next_keys[i]`` is successor ``successors[i]``'s public key
    (``None`` on the final layer: re-encrypt to ⊥).  ``seed`` derives
    the node's deterministic randomness (absent: system randomness).
    """

    layer: int
    successors: Tuple[int, ...]
    next_keys: Tuple[Optional[object], ...]
    seed: Optional[bytes] = None


@_register(Kind.MIX_BATCH, ("layer", U32), ("batch", batch("MIX_BATCH")))
@dataclass
class MixBatch(_Payload):
    """Node -> node: one mixed batch handed to a successor group.

    ``batch`` is a :class:`~repro.core.batch.CiphertextBatch` whose
    records are **spliced** into the envelope body without re-encoding
    (``u32 layer || u32 count || records``).  Decoding off the wire is
    a structural scan (counts/flags/widths); element validation is
    deferred to the first ``.vectors`` or per-record access, so a
    multi-megabyte batch costs O(bytes) to receive, not O(elements).
    """

    layer: int
    batch: CiphertextBatch

    @property
    def vectors(self) -> Tuple[CiphertextVector, ...]:
        """Decoded vectors (validates every element)."""
        try:
            return tuple(self.batch)
        except BatchFormatError as exc:
            raise WireFormatError(f"invalid element in MIX_BATCH: {exc}") from exc


@_register(Kind.MIX_SUMMARY, ("layer", U32), ("audit", AUDIT))
@dataclass
class MixSummary(_Payload):
    """Node -> coordinator: the audit of one completed mix (includes
    the last participant's shuffle-proof NIZK in verified variants)."""

    layer: int
    audit: MixAudit


@_register(Kind.COMMIT_LAYER, ("layer", U32))
@dataclass
class CommitLayer(_Payload):
    """Coordinator -> node: the whole layer succeeded; adopt the
    batches delivered for it as your new holdings."""

    layer: int


@_register(Kind.ABORT_LAYER, ("layer", U32))
@dataclass
class AbortLayer(_Payload):
    """Coordinator -> node: the layer failed somewhere; discard any
    staged state for it (holdings stay at the pre-layer snapshot)."""

    layer: int


@_register(
    Kind.FAULT,
    ("code", TEXT),
    ("gid", I32),
    ("culprit", I32),
    ("stage", TEXT),
    ("alive", U32),
    ("needed", U32),
    ("message", TEXT),
)
@dataclass
class Fault(_Payload):
    """Node -> coordinator: a protocol failure notification.

    ``code`` is ``"abort"`` (Algorithm 2 caught a deviating server:
    ``gid``/``culprit``/``stage`` are set), ``"stalled"`` (quorum loss:
    ``gid``/``alive``/``needed``), or ``"error"`` (unexpected exception,
    ``message`` carries the repr).
    """

    code: str
    gid: int = -1
    culprit: int = -1
    stage: str = ""
    alive: int = 0
    needed: int = 0
    message: str = ""


@_register(Kind.EXIT)
@dataclass
class Exit(_Payload):
    """Coordinator -> node: mixing is done; reveal your payloads."""


#: routed payloads: the fixed-size :mod:`repro.core.messages` layouts,
#: length-prefixed so mixed sizes stay parseable
PAYLOAD_BYTES = seq(BYTES)


@_register(Kind.EXIT_PAYLOADS, ("payloads", PAYLOAD_BYTES))
@dataclass
class ExitPayloads(_Payload):
    """Node -> coordinator: the fully-peeled payload bytes."""

    payloads: Tuple[bytes, ...]


@_register(
    Kind.TRAP_CHECK,
    ("traps", PAYLOAD_BYTES), ("inner_ok", BOOL), ("num_inner", U32),
)
@dataclass
class TrapCheck(_Payload):
    """Coordinator -> entry node: the traps routed back to you, plus
    the globally-determined inner-ciphertext verdict to fold into your
    trustee report (global duplicate detection spans groups, so the
    coordinator — standing in for the §4.4 inter-group broadcast —
    computes it)."""

    traps: Tuple[bytes, ...]
    inner_ok: bool
    num_inner: int


@_register(Kind.GROUP_REPORT, ("report", Table(
    "GroupReport", GroupReport,
    ("gid", U32),
    ("traps_ok", BOOL),
    ("inner_ok", BOOL),
    ("num_traps", U32),
    ("num_inner", U32),
)))
@dataclass
class GroupReportMsg(_Payload):
    """Entry node -> trustees: the §4.4 per-group report."""

    report: GroupReport


@_register(Kind.REPORT_OK)
@dataclass
class ReportOk(_Payload):
    """Trustees -> sender: report recorded."""


@_register(Kind.KEY_REQUEST, ("expected_groups", U32))
@dataclass
class KeyRequest(_Payload):
    """Coordinator -> trustees: evaluate the reports and decide."""

    expected_groups: int


@_register(Kind.KEY_RELEASE, ("secret", SCALAR), ("shares", seq(SCALAR)))
@dataclass
class KeyRelease(_Payload):
    """Trustees -> coordinator: all checks passed; the decryption-key
    shares (and their reconstruction) are released."""

    secret: int
    shares: Tuple[int, ...]


@_register(Kind.PING)
@dataclass
class Ping(_Payload):
    """Coordinator -> node: liveness probe.  A healthy node answers
    with :class:`Pong` immediately; a missed deadline counts against
    the coordinator's suspicion threshold."""


@_register(Kind.PONG, ("gid", U32), ("alive", U32), ("needed", U32))
@dataclass
class Pong(_Payload):
    """Node -> coordinator: alive, with the group's quorum health so
    the detector also surfaces sub-threshold membership (a group whose
    servers died without the endpoint going dark)."""

    gid: int
    alive: int
    needed: int


@_register(
    Kind.ROUND_OPEN,
    ("fresh", BOOL), ("epoch_round", U32), ("seed", BYTES), ("counter", U64),
)
@dataclass
class RoundOpen(_Payload):
    """Coordinator -> fleet process: a round object now exists for the
    header's round id.  Carries the deterministic-rng epoch mark
    ``(epoch_round, seed, counter)`` from which the process re-derives
    the identical :class:`~repro.core.group.GroupContext` objects the
    coordinator formed (``Directory.form_groups`` is a pure function of
    the mark) — no secrets cross the wire beyond the run's own seed.
    A repeated ROUND_OPEN for the same round id means the coordinator
    rebuilt the round (abort retry / rekey): the process discards any
    prior state for that round and starts clean.  A serve process
    journals this payload's bytes verbatim as its REC_OPEN record."""

    fresh: bool
    epoch_round: int
    seed: bytes
    counter: int


@_register(Kind.ROUND_CLOSE)
@dataclass
class RoundClose(_Payload):
    """Coordinator -> fleet process: the header's round is settled;
    drop its nodes and journal the close so a restart does not replay
    it."""


@_register(Kind.FLEET_STATUS)
@dataclass
class FleetStatus(_Payload):
    """Controller -> fleet process: readiness/liveness probe."""


@_register(
    Kind.FLEET_STATUS_REPLY,
    ("name", TEXT),
    ("ready", BOOL),
    ("pid", U64),
    ("gids", seq(U32)),
    ("open_rounds", seq(U32)),
)
@dataclass
class FleetStatusReply(_Payload):
    """Fleet process -> controller: identity plus readiness."""

    name: str
    ready: bool
    pid: int
    gids: Tuple[int, ...] = field(default_factory=tuple)
    open_rounds: Tuple[int, ...] = field(default_factory=tuple)


@_register(Kind.FLEET_SHUTDOWN)
@dataclass
class FleetShutdown(_Payload):
    """Controller -> fleet process: drain and exit gracefully (the
    socket-level half of SIGTERM, for rolling restarts)."""


@_register(Kind.BUNDLE_INSTALL, ("data", BYTES))
@dataclass
class BundleInstall(_Payload):
    """Controller -> replacement fleet process: restore your per-round
    state from this checkpoint bundle (built from the dead process's
    state dir — see :mod:`repro.store.ship`) instead of whatever is on
    your disk.  ``data`` is an opaque bundle blob."""

    data: bytes


@_register(Kind.BUNDLE_FETCH)
@dataclass
class BundleFetch(_Payload):
    """Controller -> fleet process: distill your journal's live suffix
    into a bundle and send it back (BUNDLE_DATA) — lets an operator
    snapshot a live process without touching its state dir."""


@_register(Kind.BUNDLE_DATA, ("data", BYTES), ("records", U32))
@dataclass
class BundleData(_Payload):
    """Fleet process -> controller: the requested checkpoint bundle,
    plus how many live records it carries."""

    data: bytes
    records: int


@_register(Kind.CONTROL_OK)
@dataclass
class ControlOk(_Payload):
    """Fleet process -> coordinator/controller: control op applied."""


@_register(Kind.KEY_WITHHELD, ("reason", TEXT), ("offending_gids", seq(U32)))
@dataclass
class KeyWithheldMsg(_Payload):
    """Trustees -> coordinator: checks failed; shares deleted."""

    reason: str
    offending_gids: Tuple[int, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# the envelope
# ---------------------------------------------------------------------------

#: magic, version, kind, round_id, sender, dest, req_id, body_len.
#: ``req_id`` is the resilience layer's per-request identity (0 when
#: unstamped): node-side dedup caches key on it so a retried or
#: chaos-duplicated request is applied exactly once.  Its slot lives in
#: the fixed header — not a payload — because dedup must decide before
#: any payload decoding or dispatch happens.
_HEADER = struct.Struct(">2sBBIiiQI")


@dataclass
class Envelope:
    """One wire message: header plus a typed payload."""

    kind: Kind
    round_id: int
    sender: int
    dest: int
    payload: _Payload
    version: int = WIRE_VERSION
    req_id: int = 0

    def to_bytes(self, group: Group) -> bytes:
        body = self.payload.table.encode(self.payload, group)
        header = _HEADER.pack(
            MAGIC, self.version, int(self.kind), self.round_id,
            self.sender, self.dest, self.req_id, len(body),
        )
        return header + body

    @classmethod
    def from_bytes(cls, raw: bytes, group: Group) -> "Envelope":
        if len(raw) < _HEADER.size:
            raise WireFormatError(f"envelope too short ({len(raw)} bytes)")
        magic, version, kind_raw, round_id, sender, dest, req_id, body_len = (
            _HEADER.unpack_from(raw)
        )
        if magic != MAGIC:
            raise WireFormatError(f"bad magic {magic!r}")
        if version != WIRE_VERSION:
            raise WireFormatError(
                f"unsupported wire version {version} (speaking {WIRE_VERSION})"
            )
        try:
            kind = Kind(kind_raw)
        except ValueError as exc:
            raise WireFormatError(f"unknown envelope kind {kind_raw}") from exc
        body = raw[_HEADER.size:]
        if len(body) != body_len:
            raise WireFormatError(
                f"body length mismatch: header says {body_len}, got {len(body)}"
            )
        payload = _PAYLOADS[kind].table.decode(body, group)
        return cls(
            kind=kind, round_id=round_id, sender=sender, dest=dest,
            payload=payload, version=version, req_id=req_id,
        )


def wrap(
    payload: _Payload, round_id: int, sender: int, dest: int, req_id: int = 0
) -> Envelope:
    """Build an envelope around ``payload`` (kind inferred)."""
    return Envelope(
        kind=payload.kind, round_id=round_id, sender=sender, dest=dest,
        payload=payload, req_id=req_id,
    )


def all_payload_types() -> Dict[Kind, Type[_Payload]]:
    """The envelope catalogue (used by round-trip property tests)."""
    return dict(_PAYLOADS)
