"""Typed, versioned wire envelopes for inter-node messages.

Every interaction that :class:`~repro.net.coordinator.Coordinator`
drives between nodes — intake submissions, mix-layer hand-offs
(ciphertext batches plus the shuffle-proof NIZK evidence of the
verified variants), trap checks, trustee reports and key release,
fault notifications — is an :class:`Envelope`: a fixed header
(magic, wire version, kind, round id, sender, destination) plus a
typed payload with an explicit byte codec.

The codecs reuse the serialization conventions the repo already has:
group elements travel as the fixed-width big-endian integers that
``element.to_bytes()`` / ``GroupBackend.element`` round-trip (PR 3's
backend contract, so the same envelope bytes work on Schnorr groups
and on P-256), scalars as ``q``-width integers, and routed payloads as
the :mod:`repro.core.messages` fixed-size byte layouts, length-prefixed
like :meth:`repro.core.messages.PayloadSpec.pad`.

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


class WireFormatError(ValueError):
    """Raised on malformed, truncated, or wrong-version envelope bytes."""


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
# binary writer / reader
# ---------------------------------------------------------------------------


class _Writer:
    """Append-only binary writer bound to one group backend."""

    def __init__(self, group: Group):
        self.group = group
        self._element_bytes = group.element_bytes
        self._scalar_bytes = (group.q.bit_length() + 7) // 8
        self.buf = bytearray()

    def u8(self, v: int) -> None:
        self.buf += struct.pack(">B", v)

    def u32(self, v: int) -> None:
        self.buf += struct.pack(">I", v)

    def u64(self, v: int) -> None:
        self.buf += struct.pack(">Q", v)

    def i32(self, v: int) -> None:
        self.buf += struct.pack(">i", v)

    def bool_(self, v: bool) -> None:
        self.u8(1 if v else 0)

    def scalar(self, v: int) -> None:
        self.buf += int(v).to_bytes(self._scalar_bytes, "big")

    def element_value(self, value: int) -> None:
        """A group element serialized as its integer ``value``."""
        self.buf += int(value).to_bytes(self._element_bytes, "big")

    def element(self, el) -> None:
        self.element_value(el.value)

    def opt_element(self, el) -> None:
        if el is None:
            self.u8(0)
        else:
            self.u8(1)
            self.element(el)

    def blob(self, data: bytes) -> None:
        self.u32(len(data))
        self.buf += data

    def text(self, s: str) -> None:
        self.blob(s.encode("utf-8"))


class _Reader:
    """Bounds-checked reader mirroring :class:`_Writer`."""

    def __init__(self, raw: bytes, group: Group):
        self.group = group
        self._element_bytes = group.element_bytes
        self._scalar_bytes = (group.q.bit_length() + 7) // 8
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise WireFormatError(
                f"truncated envelope body: need {n} bytes at offset {self.pos}"
            )
        out = self.raw[self.pos: self.pos + n]
        self.pos += n
        return out

    def done(self) -> bool:
        return self.pos == len(self.raw)

    def u8(self) -> int:
        return struct.unpack(">B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def i32(self) -> int:
        return struct.unpack(">i", self.take(4))[0]

    def bool_(self) -> bool:
        return self.u8() != 0

    def scalar(self) -> int:
        return int.from_bytes(self.take(self._scalar_bytes), "big")

    def element_value(self) -> int:
        return int.from_bytes(self.take(self._element_bytes), "big")

    def element(self):
        value = self.element_value()
        try:
            return self.group.element(value)
        except ValueError as exc:
            raise WireFormatError(f"invalid element on the wire: {exc}") from exc

    def opt_element(self):
        return self.element() if self.u8() else None

    def blob(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        return self.blob().decode("utf-8")


# -- shared crypto-object codecs --------------------------------------------


def _write_ciphertext(w: _Writer, ct: AtomCiphertext) -> None:
    w.element(ct.R)
    w.element(ct.c)
    w.opt_element(ct.Y)


def _read_ciphertext(r: _Reader) -> AtomCiphertext:
    R = r.element()
    c = r.element()
    Y = r.opt_element()
    return AtomCiphertext(R=R, c=c, Y=Y)


def _write_vector(w: _Writer, vec: CiphertextVector) -> None:
    w.u32(len(vec.parts))
    for part in vec.parts:
        _write_ciphertext(w, part)


def _read_vector(r: _Reader) -> CiphertextVector:
    return CiphertextVector(tuple(_read_ciphertext(r) for _ in range(r.u32())))


def _write_vectors(w: _Writer, vectors: Tuple[CiphertextVector, ...]) -> None:
    w.u32(len(vectors))
    for vec in vectors:
        _write_vector(w, vec)


def _read_vectors(r: _Reader) -> Tuple[CiphertextVector, ...]:
    return tuple(_read_vector(r) for _ in range(r.u32()))


def _write_sigma(w: _Writer, proof: SigmaProof) -> None:
    w.u32(len(proof.commitments))
    for t in proof.commitments:
        w.element_value(t)
    w.scalar(proof.challenge)
    w.u32(len(proof.responses))
    for z in proof.responses:
        w.scalar(z)


def _read_sigma(r: _Reader) -> SigmaProof:
    commitments = tuple(r.element_value() for _ in range(r.u32()))
    challenge = r.scalar()
    responses = tuple(r.scalar() for _ in range(r.u32()))
    return SigmaProof(
        commitments=commitments, challenge=challenge, responses=responses
    )


def _write_submission(w: _Writer, sub: Submission) -> None:
    _write_vector(w, sub.vector)
    w.u32(len(sub.proofs))
    for proof in sub.proofs:
        _write_sigma(w, proof.proof)


def _read_submission(r: _Reader) -> Submission:
    vector = _read_vector(r)
    proofs = tuple(EncProof(_read_sigma(r)) for _ in range(r.u32()))
    return Submission(vector=vector, proofs=proofs)


def _write_shuffle_proof(w: _Writer, proof: VectorShuffleProof) -> None:
    w.u32(len(proof.rounds))
    for rnd in proof.rounds:
        _write_vectors(w, rnd.intermediate)
        w.u32(len(rnd.opened_perm))
        for idx in rnd.opened_perm:
            w.u32(idx)
        w.u32(len(rnd.opened_rands))
        for rands in rnd.opened_rands:
            w.u32(len(rands))
            for rand in rands:
                w.scalar(rand)
    w.u32(len(proof.challenge_bits))
    for bit in proof.challenge_bits:
        w.u8(bit)


def _read_shuffle_proof(r: _Reader) -> VectorShuffleProof:
    rounds = []
    for _ in range(r.u32()):
        intermediate = _read_vectors(r)
        opened_perm = tuple(r.u32() for _ in range(r.u32()))
        opened_rands = tuple(
            tuple(r.scalar() for _ in range(r.u32())) for _ in range(r.u32())
        )
        rounds.append(
            VectorShuffleRound(
                intermediate=intermediate,
                opened_perm=opened_perm,
                opened_rands=opened_rands,
            )
        )
    bits = tuple(r.u8() for _ in range(r.u32()))
    return VectorShuffleProof(rounds=tuple(rounds), challenge_bits=bits)


def encode_audit(group: Group, audit: MixAudit) -> bytes:
    """Canonical bytes of a :class:`MixAudit` (also used by tests to
    compare results across transports byte for byte)."""
    w = _Writer(group)
    _write_audit(w, audit)
    return bytes(w.buf)


def _write_audit(w: _Writer, audit: MixAudit) -> None:
    w.u32(audit.gid)
    w.u32(audit.shuffles_proved)
    w.u32(audit.shuffles_verified)
    w.u32(audit.reencs_proved)
    w.u32(audit.reencs_verified)
    w.u32(len(audit.tamperings))
    for server_id, what in audit.tamperings:
        w.i32(server_id)
        w.text(what)
    w.u64(audit.bytes_sent)
    proof = audit.final_shuffle_proof
    w.bool_(proof is not None)
    if proof is not None:
        _write_shuffle_proof(w, proof)


def _read_audit(r: _Reader) -> MixAudit:
    audit = MixAudit(gid=r.u32())
    audit.shuffles_proved = r.u32()
    audit.shuffles_verified = r.u32()
    audit.reencs_proved = r.u32()
    audit.reencs_verified = r.u32()
    audit.tamperings = [(r.i32(), r.text()) for _ in range(r.u32())]
    audit.bytes_sent = r.u64()
    if r.bool_():
        audit.final_shuffle_proof = _read_shuffle_proof(r)
    return audit


def _write_payloads(w: _Writer, payloads: Tuple[bytes, ...]) -> None:
    """Routed payloads: the fixed-size :mod:`repro.core.messages`
    layouts, length-prefixed so mixed sizes stay parseable."""
    w.u32(len(payloads))
    for payload in payloads:
        w.blob(payload)


def _read_payloads(r: _Reader) -> Tuple[bytes, ...]:
    return tuple(r.blob() for _ in range(r.u32()))


# ---------------------------------------------------------------------------
# payload types — one dataclass per envelope kind
# ---------------------------------------------------------------------------

_PAYLOADS: Dict[Kind, Type["_Payload"]] = {}


def _register(kind: Kind):
    def wrap(cls):
        cls.kind = kind
        _PAYLOADS[kind] = cls
        return cls

    return wrap


class _Payload:
    """Base: payloads encode themselves into a writer and decode from a
    reader; empty payloads inherit the no-op implementations."""

    kind: ClassVar[Kind]

    def _encode(self, w: _Writer) -> None:  # pragma: no cover - trivial
        pass

    @classmethod
    def _decode(cls, r: _Reader) -> "_Payload":
        return cls()


@_register(Kind.SUBMIT_PLAIN)
@dataclass
class SubmitPlain(_Payload):
    """Basic/NIZK-variant intake: one proved submission for ``gid``."""

    gid: int
    submission: Submission

    def _encode(self, w: _Writer) -> None:
        w.u32(self.gid)
        _write_submission(w, self.submission)

    @classmethod
    def _decode(cls, r: _Reader) -> "SubmitPlain":
        return cls(gid=r.u32(), submission=_read_submission(r))


@_register(Kind.SUBMIT_TRAP)
@dataclass
class SubmitTrap(_Payload):
    """Trap-variant intake: the (inner, trap) pair plus commitment."""

    submission: TrapSubmission

    def _encode(self, w: _Writer) -> None:
        sub = self.submission
        w.u32(sub.gid)
        _write_submission(w, sub.pair[0])
        _write_submission(w, sub.pair[1])
        w.blob(sub.trap_commitment)

    @classmethod
    def _decode(cls, r: _Reader) -> "SubmitTrap":
        gid = r.u32()
        pair = (_read_submission(r), _read_submission(r))
        commitment = r.blob()
        return cls(
            TrapSubmission(pair=pair, trap_commitment=commitment, gid=gid)
        )


@_register(Kind.SUBMIT_OK)
@dataclass
class SubmitOk(_Payload):
    """Intake accepted; ``accepted`` ciphertexts entered the holdings."""

    accepted: int

    def _encode(self, w: _Writer) -> None:
        w.u32(self.accepted)

    @classmethod
    def _decode(cls, r: _Reader) -> "SubmitOk":
        return cls(accepted=r.u32())


@_register(Kind.SUBMIT_ERR)
@dataclass
class SubmitErr(_Payload):
    """Intake rejected (bad EncProof, duplicate, ...)."""

    reason: str

    def _encode(self, w: _Writer) -> None:
        w.text(self.reason)

    @classmethod
    def _decode(cls, r: _Reader) -> "SubmitErr":
        return cls(reason=r.text())


@_register(Kind.MIX)
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

    def _encode(self, w: _Writer) -> None:
        w.u32(self.layer)
        w.u32(len(self.successors))
        for succ in self.successors:
            w.u32(succ)
        w.u32(len(self.next_keys))
        for key in self.next_keys:
            w.opt_element(key)
        w.bool_(self.seed is not None)
        if self.seed is not None:
            w.blob(self.seed)

    @classmethod
    def _decode(cls, r: _Reader) -> "Mix":
        layer = r.u32()
        successors = tuple(r.u32() for _ in range(r.u32()))
        next_keys = tuple(r.opt_element() for _ in range(r.u32()))
        seed = r.blob() if r.bool_() else None
        return cls(
            layer=layer, successors=successors, next_keys=next_keys, seed=seed,
        )


@_register(Kind.MIX_BATCH)
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

    def _encode(self, w: _Writer) -> None:
        w.u32(self.layer)
        w.u32(len(self.batch))
        w.buf += self.batch.raw_records()

    @classmethod
    def _decode(cls, r: _Reader) -> "MixBatch":
        layer = r.u32()
        try:
            batch, end = CiphertextBatch.parse(r.group, r.raw, r.pos)
        except BatchFormatError as exc:
            raise WireFormatError(f"malformed MIX_BATCH: {exc}") from exc
        r.pos = end
        return cls(layer, batch)


@_register(Kind.MIX_SUMMARY)
@dataclass
class MixSummary(_Payload):
    """Node -> coordinator: the audit of one completed mix (includes
    the last participant's shuffle-proof NIZK in verified variants)."""

    layer: int
    audit: MixAudit

    def _encode(self, w: _Writer) -> None:
        w.u32(self.layer)
        _write_audit(w, self.audit)

    @classmethod
    def _decode(cls, r: _Reader) -> "MixSummary":
        return cls(layer=r.u32(), audit=_read_audit(r))


@_register(Kind.COMMIT_LAYER)
@dataclass
class CommitLayer(_Payload):
    """Coordinator -> node: the whole layer succeeded; adopt the
    batches delivered for it as your new holdings."""

    layer: int

    def _encode(self, w: _Writer) -> None:
        w.u32(self.layer)

    @classmethod
    def _decode(cls, r: _Reader) -> "CommitLayer":
        return cls(layer=r.u32())


@_register(Kind.ABORT_LAYER)
@dataclass
class AbortLayer(_Payload):
    """Coordinator -> node: the layer failed somewhere; discard any
    staged state for it (holdings stay at the pre-layer snapshot)."""

    layer: int

    def _encode(self, w: _Writer) -> None:
        w.u32(self.layer)

    @classmethod
    def _decode(cls, r: _Reader) -> "AbortLayer":
        return cls(layer=r.u32())


@_register(Kind.FAULT)
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

    def _encode(self, w: _Writer) -> None:
        w.text(self.code)
        w.i32(self.gid)
        w.i32(self.culprit)
        w.text(self.stage)
        w.u32(self.alive)
        w.u32(self.needed)
        w.text(self.message)

    @classmethod
    def _decode(cls, r: _Reader) -> "Fault":
        return cls(
            code=r.text(), gid=r.i32(), culprit=r.i32(), stage=r.text(),
            alive=r.u32(), needed=r.u32(), message=r.text(),
        )


@_register(Kind.EXIT)
@dataclass
class Exit(_Payload):
    """Coordinator -> node: mixing is done; reveal your payloads."""


@_register(Kind.EXIT_PAYLOADS)
@dataclass
class ExitPayloads(_Payload):
    """Node -> coordinator: the fully-peeled payload bytes."""

    payloads: Tuple[bytes, ...]

    def _encode(self, w: _Writer) -> None:
        _write_payloads(w, self.payloads)

    @classmethod
    def _decode(cls, r: _Reader) -> "ExitPayloads":
        return cls(payloads=_read_payloads(r))


@_register(Kind.TRAP_CHECK)
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

    def _encode(self, w: _Writer) -> None:
        _write_payloads(w, self.traps)
        w.bool_(self.inner_ok)
        w.u32(self.num_inner)

    @classmethod
    def _decode(cls, r: _Reader) -> "TrapCheck":
        return cls(
            traps=_read_payloads(r), inner_ok=r.bool_(), num_inner=r.u32()
        )


@_register(Kind.GROUP_REPORT)
@dataclass
class GroupReportMsg(_Payload):
    """Entry node -> trustees: the §4.4 per-group report."""

    report: GroupReport

    def _encode(self, w: _Writer) -> None:
        rep = self.report
        w.u32(rep.gid)
        w.bool_(rep.traps_ok)
        w.bool_(rep.inner_ok)
        w.u32(rep.num_traps)
        w.u32(rep.num_inner)

    @classmethod
    def _decode(cls, r: _Reader) -> "GroupReportMsg":
        return cls(
            GroupReport(
                gid=r.u32(), traps_ok=r.bool_(), inner_ok=r.bool_(),
                num_traps=r.u32(), num_inner=r.u32(),
            )
        )


@_register(Kind.REPORT_OK)
@dataclass
class ReportOk(_Payload):
    """Trustees -> sender: report recorded."""


@_register(Kind.KEY_REQUEST)
@dataclass
class KeyRequest(_Payload):
    """Coordinator -> trustees: evaluate the reports and decide."""

    expected_groups: int

    def _encode(self, w: _Writer) -> None:
        w.u32(self.expected_groups)

    @classmethod
    def _decode(cls, r: _Reader) -> "KeyRequest":
        return cls(expected_groups=r.u32())


@_register(Kind.KEY_RELEASE)
@dataclass
class KeyRelease(_Payload):
    """Trustees -> coordinator: all checks passed; the decryption-key
    shares (and their reconstruction) are released."""

    secret: int
    shares: Tuple[int, ...]

    def _encode(self, w: _Writer) -> None:
        w.scalar(self.secret)
        w.u32(len(self.shares))
        for share in self.shares:
            w.scalar(share)

    @classmethod
    def _decode(cls, r: _Reader) -> "KeyRelease":
        secret = r.scalar()
        shares = tuple(r.scalar() for _ in range(r.u32()))
        return cls(secret=secret, shares=shares)


@_register(Kind.PING)
@dataclass
class Ping(_Payload):
    """Coordinator -> node: liveness probe.  A healthy node answers
    with :class:`Pong` immediately; a missed deadline counts against
    the coordinator's suspicion threshold."""


@_register(Kind.PONG)
@dataclass
class Pong(_Payload):
    """Node -> coordinator: alive, with the group's quorum health so
    the detector also surfaces sub-threshold membership (a group whose
    servers died without the endpoint going dark)."""

    gid: int
    alive: int
    needed: int

    def _encode(self, w: _Writer) -> None:
        w.u32(self.gid)
        w.u32(self.alive)
        w.u32(self.needed)

    @classmethod
    def _decode(cls, r: _Reader) -> "Pong":
        return cls(gid=r.u32(), alive=r.u32(), needed=r.u32())


@_register(Kind.ROUND_OPEN)
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
    prior state for that round and starts clean."""

    fresh: bool
    epoch_round: int
    seed: bytes
    counter: int

    def _encode(self, w: _Writer) -> None:
        w.bool_(self.fresh)
        w.u32(self.epoch_round)
        w.blob(self.seed)
        w.u64(self.counter)

    @classmethod
    def _decode(cls, r: _Reader) -> "RoundOpen":
        return cls(
            fresh=r.bool_(), epoch_round=r.u32(), seed=r.blob(),
            counter=r.u64(),
        )


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


@_register(Kind.FLEET_STATUS_REPLY)
@dataclass
class FleetStatusReply(_Payload):
    """Fleet process -> controller: identity plus readiness."""

    name: str
    ready: bool
    pid: int
    gids: Tuple[int, ...] = field(default_factory=tuple)
    open_rounds: Tuple[int, ...] = field(default_factory=tuple)

    def _encode(self, w: _Writer) -> None:
        w.text(self.name)
        w.bool_(self.ready)
        w.u64(self.pid)
        w.u32(len(self.gids))
        for gid in self.gids:
            w.u32(gid)
        w.u32(len(self.open_rounds))
        for rid in self.open_rounds:
            w.u32(rid)

    @classmethod
    def _decode(cls, r: _Reader) -> "FleetStatusReply":
        name = r.text()
        ready = r.bool_()
        pid = r.u64()
        gids = tuple(r.u32() for _ in range(r.u32()))
        open_rounds = tuple(r.u32() for _ in range(r.u32()))
        return cls(
            name=name, ready=ready, pid=pid, gids=gids,
            open_rounds=open_rounds,
        )


@_register(Kind.FLEET_SHUTDOWN)
@dataclass
class FleetShutdown(_Payload):
    """Controller -> fleet process: drain and exit gracefully (the
    socket-level half of SIGTERM, for rolling restarts)."""


@_register(Kind.BUNDLE_INSTALL)
@dataclass
class BundleInstall(_Payload):
    """Controller -> replacement fleet process: restore your per-round
    state from this checkpoint bundle (built from the dead process's
    state dir — see :mod:`repro.store.ship`) instead of whatever is on
    your disk.  ``data`` is an opaque bundle blob."""

    data: bytes

    def _encode(self, w: _Writer) -> None:
        w.blob(self.data)

    @classmethod
    def _decode(cls, r: _Reader) -> "BundleInstall":
        return cls(data=r.blob())


@_register(Kind.BUNDLE_FETCH)
@dataclass
class BundleFetch(_Payload):
    """Controller -> fleet process: distill your journal's live suffix
    into a bundle and send it back (BUNDLE_DATA) — lets an operator
    snapshot a live process without touching its state dir."""


@_register(Kind.BUNDLE_DATA)
@dataclass
class BundleData(_Payload):
    """Fleet process -> controller: the requested checkpoint bundle,
    plus how many live records it carries."""

    data: bytes
    records: int

    def _encode(self, w: _Writer) -> None:
        w.blob(self.data)
        w.u32(self.records)

    @classmethod
    def _decode(cls, r: _Reader) -> "BundleData":
        data = r.blob()
        return cls(data=data, records=r.u32())


@_register(Kind.CONTROL_OK)
@dataclass
class ControlOk(_Payload):
    """Fleet process -> coordinator/controller: control op applied."""


@_register(Kind.KEY_WITHHELD)
@dataclass
class KeyWithheldMsg(_Payload):
    """Trustees -> coordinator: checks failed; shares deleted."""

    reason: str
    offending_gids: Tuple[int, ...] = field(default_factory=tuple)

    def _encode(self, w: _Writer) -> None:
        w.text(self.reason)
        w.u32(len(self.offending_gids))
        for gid in self.offending_gids:
            w.u32(gid)

    @classmethod
    def _decode(cls, r: _Reader) -> "KeyWithheldMsg":
        reason = r.text()
        gids = tuple(r.u32() for _ in range(r.u32()))
        return cls(reason=reason, offending_gids=gids)


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
        w = _Writer(group)
        self.payload._encode(w)
        header = _HEADER.pack(
            MAGIC, self.version, int(self.kind), self.round_id,
            self.sender, self.dest, self.req_id, len(w.buf),
        )
        return header + bytes(w.buf)

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
        r = _Reader(body, group)
        payload = _PAYLOADS[kind]._decode(r)
        if not r.done():
            raise WireFormatError(
                f"{len(body) - r.pos} trailing bytes after {kind.name} payload"
            )
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
