"""The ``repro serve`` process: one fleet member, behind one socket.

A serve process hosts the :class:`~repro.net.nodes.ServerNode` objects
for the group ids its :class:`~repro.fleet.plan.ProcessSpec` assigns,
all multiplexed behind a single listening TCP socket served by
:func:`repro.net.framing.serve` (the same accept loop and frame format
as the loopback :class:`~repro.net.transport.TcpTransport`).  Envelopes
addressed to
:data:`~repro.net.envelopes.CONTROL` drive the process itself; every
other destination dispatches to the node registered under
``(round_id, dest)``.

A ``MIX`` is handled inline by the same ``ServerNode`` dispatch as
in-process; processes mix concurrently because the coordinator's layer
fan-out writes every process's ``MIX`` frames before it reads a reply.

**Determinism.** The process never receives key material: a ROUND_OPEN
carries the coordinator's pre-draw :class:`DeterministicRng` mark
``(epoch_round, seed, counter)`` and the process re-runs
``Directory.form_groups`` from that mark, yielding byte-identical
:class:`~repro.core.group.GroupContext` objects (group formation is a
pure function of the mark — server identity keys never enter round
crypto).  A repeated ROUND_OPEN for a round id means the coordinator
rebuilt the round (abort retry / rekey): the old per-round state is
discarded.

**Durability.** With a ``state_dir`` the process journals ROUND_OPEN /
ROUND_CLOSE and every *accepted* intake envelope to its own segmented
log under ``<state_dir>/fleet-log/`` (fleet-local record types,
ignored by the coordinator-side store's scanner).  A respawned process
replays
the log — re-deriving contexts from the journaled mark and re-handling
the intake envelopes under their original request ids, which also
repopulates the idempotency dedup cache — and rejoins the stream
mid-flight.  This is what makes ``repro fleet roll`` (drain → SIGTERM
→ respawn → recover → rejoin) safe between rounds.

Every ROUND_CLOSE applies the coordinator journal's retention rule
(:func:`~repro.store.compact.enforce_retention` with ``fleet_liveness``:
a closed round is dead), bounding disk by ``(retain + 2) ·
segment_bytes`` plus the open rounds' intake; a close below the
thresholds is one append and one fsync, no layout change.  A
replacement restores from a shipped bundle (BUNDLE_INSTALL): O(state).
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.protocol import AtomDeployment
from repro.crypto.groups import DeterministicRng
from repro.net import envelopes as ev
from repro.net import framing
from repro.net.envelopes import Envelope
from repro.net.nodes import ServerNode
from repro.store.compact import (
    REC_CLOSE,
    REC_ENVELOPE,
    REC_OPEN,
    enforce_retention,
    fleet_liveness,
)
from repro.store.segments import LogDir, LogDirError
from repro.store.ship import Bundle, CheckpointShipper
from repro.store.store import Store
from repro.store.wal import WalError

logger = logging.getLogger(__name__)


def fleet_log_root(state_dir) -> Path:
    """The process journal's segmented log directory,
    ``<state_dir>/fleet-log/`` — its own directory so it can never
    collide with a coordinator store sharing the state dir."""
    root = Path(state_dir) / "fleet-log"
    root.mkdir(parents=True, exist_ok=True)
    return root


def fleet_shipper() -> CheckpointShipper:
    """The bundle builder/installer for fleet intake journals."""
    return CheckpointShipper(liveness=fleet_liveness, kind="fleet")


class _IntakeStore(Store):
    """Per-process store: journal accepted intake envelopes (the only
    hook :class:`ServerNode` calls) to the process journal."""

    enabled = True

    def __init__(self, wal: Optional[LogDir]):
        self.wal = wal

    def envelope_accepted(self, env, group) -> None:
        if self.wal is not None and not self.replaying:
            self.wal.append(REC_ENVELOPE, env.to_bytes(group), env.round_id)


class FleetServer:
    """One plan-named fleet process; :meth:`serve_forever` is main()."""

    def __init__(self, plan, name: str):
        self.plan = plan
        self.spec = plan.process(name)
        self.config = plan.serve_config()
        # The deployment supplies the directory (fleet/beacon wiring
        # identical to the coordinator's) and the group backend; its
        # transport/store are never touched in serve mode.
        self.deployment = AtomDeployment(self.config)
        self.group = self.deployment.group
        #: serializes dispatch: the protocol relies on strict request
        #: ordering, and controller probes may arrive concurrently
        self.lock = threading.Lock()
        self.nodes: Dict[Tuple[int, int], ServerNode] = {}
        self.contexts = None
        #: (epoch_round, seed, counter) the current contexts derive from
        self.epoch: Optional[Tuple[int, bytes, int]] = None
        self.wal: Optional[LogDir] = None
        self.store = _IntakeStore(None)
        self.ready = False
        self.draining = threading.Event()
        self._listener: Optional[socket.socket] = None

    # -- round lifecycle ----------------------------------------------

    def _derive_contexts(self, epoch_round: int, seed: bytes, counter: int):
        mark = (epoch_round, seed, counter)
        if self.epoch != mark:
            rng = DeterministicRng.at(seed, counter)
            self.contexts = self.deployment.directory.form_groups(
                epoch_round, self.config.num_groups, rng
            )
            self.epoch = mark
            logger.info(
                "%s: derived %d contexts from epoch (round=%d, counter=%d)",
                self.spec.name, len(self.contexts), epoch_round, counter,
            )

    def _open_round(
        self,
        round_id: int,
        fresh: bool,
        epoch_round: int,
        seed: bytes,
        counter: int,
    ) -> None:
        self._derive_contexts(epoch_round, seed, counter)
        # Drop any earlier generation of this round (abort retry/rekey
        # rebuilds the Round object; stale intake must not survive).
        self._drop_round(round_id)
        for gid in self.spec.gids:
            self.nodes[(round_id, gid)] = ServerNode(
                self.contexts[gid],
                round_id,
                self.config.variant,
                store=self.store,
            )

    def _drop_round(self, round_id: int) -> None:
        for key in [k for k in self.nodes if k[0] == round_id]:
            del self.nodes[key]

    # -- WAL -----------------------------------------------------------

    def _open_wal(self) -> None:
        if self.spec.state_dir is None:
            return
        root = fleet_log_root(self.spec.state_dir)
        self._attach_wal(root, fresh=not LogDir.present(root))

    def _attach_wal(self, root: Path, fresh: bool) -> None:
        """Replay the journal under ``root`` (unless starting fresh)
        and keep appending to it."""
        if not fresh:
            self._replay_records(LogDir.scan_dir(root).records)
        self.wal = self.store.wal = LogDir(
            root,
            fresh=fresh,
            segment_bytes=self.config.wal_segment_bytes,
            segment_records=self.config.wal_segment_records,
        )

    def _install_bundle(self, data: bytes) -> int:
        """BUNDLE_INSTALL: replace whatever journal this (fresh)
        process holds with the shipped live suffix, then replay it.
        Returns the number of restored records."""
        bundle = Bundle.from_bytes(data)
        if self.spec.state_dir is None:
            # no disk: restore in memory only (still byte-identical —
            # replay is a pure function of the records)
            if bundle.kind != "fleet":
                raise ValueError(f"bundle kind {bundle.kind!r} is not 'fleet'")
            self._replay_records(bundle.records)
            return len(bundle.records)
        if self.wal is not None:
            self.wal.close()
            self.wal = self.store.wal = None
        root = fleet_log_root(self.spec.state_dir)
        # wipe the fresh (empty or superseded) layout: the bundle is
        # the authoritative state now
        for path in [root / "wal.manifest", root / "wal.manifest.tmp",
                     *root.glob("wal-*.seg")]:
            path.unlink(missing_ok=True)
        fleet_shipper().install(root, bundle)
        self.nodes.clear()
        self.epoch = None
        self._attach_wal(root, fresh=False)
        return len(bundle.records)

    def _build_bundle(self) -> Tuple[bytes, int]:
        """BUNDLE_FETCH: distill this process's live suffix."""
        if self.spec.state_dir is None or self.wal is None:
            raise ValueError("process has no state dir; nothing to bundle")
        self.wal.sync()
        bundle = fleet_shipper().build(fleet_log_root(self.spec.state_dir))
        return bundle.to_bytes(), len(bundle.records)

    def _replay_records(self, records) -> None:
        """Rebuild per-round state from the journal: for every round
        still open, re-derive contexts from its (latest) journaled mark
        and re-handle the accepted intake envelopes under their
        original request ids — decoding only what ``fleet_liveness``
        keeps, never a closed round's envelopes."""
        rounds: Dict[int, Tuple[ev.RoundOpen, List[Envelope]]] = {}
        for rec, live in zip(records, fleet_liveness(records)):
            if not live:
                continue
            rid = rec.round_id
            if rec.type == REC_OPEN:
                # a re-open supersedes all earlier state for the round
                rounds.pop(rid, None)
                rounds[rid] = (ev.RoundOpen.table.decode(rec.payload), [])
            elif rec.type == REC_CLOSE:
                rounds.pop(rid, None)
            elif rec.type == REC_ENVELOPE and rid in rounds:
                rounds[rid][1].append(Envelope.from_bytes(rec.payload, self.group))
        self.store.replaying = True
        try:
            for rid, (mark, envs) in rounds.items():
                self._open_round(
                    rid, mark.fresh, mark.epoch_round, mark.seed, mark.counter
                )
                for env in envs:
                    node = self.nodes.get((rid, env.dest))
                    if node is not None:
                        node.handle(env)
                logger.info(
                    "%s: replayed round %d (%d intake envelopes)",
                    self.spec.name, rid, len(envs),
                )
        finally:
            self.store.replaying = False

    # -- dispatch ------------------------------------------------------

    def _handle_control(self, env: Envelope) -> List[Envelope]:
        kind = env.kind
        if kind is ev.Kind.ROUND_OPEN:
            p = env.payload
            if self.wal is not None:
                self.wal.append(REC_OPEN, p.table.encode(p), env.round_id)
                self.wal.sync()
            self._open_round(
                env.round_id, p.fresh, p.epoch_round, p.seed, p.counter
            )
            return [self._ok(env)]
        if kind is ev.Kind.ROUND_CLOSE:
            if self.wal is not None:
                self.wal.append(REC_CLOSE, b"", env.round_id)
                self.wal.sync()  # the close itself must be durable
                try:
                    enforce_retention(
                        self.wal, self.config.wal_retain_segments,
                        fleet_liveness,
                    )
                except (OSError, LogDirError, WalError):
                    # disk-footprint upkeep never fails the close; a
                    # programming error propagates as a FAULT
                    logger.exception(
                        "%s: journal compaction failed", self.spec.name
                    )
            self._drop_round(env.round_id)
            return [self._ok(env)]
        # (a handler that raises is answered with a transport-error
        # FAULT carrying its repr: framing.serve)
        if kind is ev.Kind.BUNDLE_INSTALL:
            count = self._install_bundle(env.payload.data)
            logger.info(
                "%s: installed checkpoint bundle (%d live records)",
                self.spec.name, count,
            )
            return [self._ok(env)]
        if kind is ev.Kind.BUNDLE_FETCH:
            data, records = self._build_bundle()
            return [
                ev.wrap(
                    ev.BundleData(data=data, records=records),
                    env.round_id, ev.CONTROL, env.sender,
                )
            ]
        if kind is ev.Kind.FLEET_STATUS:
            reply = ev.FleetStatusReply(
                name=self.spec.name,
                ready=self.ready,
                pid=os.getpid(),
                gids=tuple(self.spec.gids),
                open_rounds=tuple(sorted({rid for rid, _ in self.nodes})),
            )
            return [ev.wrap(reply, env.round_id, ev.CONTROL, env.sender)]
        if kind is ev.Kind.FLEET_SHUTDOWN:
            self._start_drain("FLEET_SHUTDOWN")
            return [self._ok(env)]
        raise ValueError(f"unexpected control kind {kind.name}")

    @staticmethod
    def _ok(env: Envelope) -> Envelope:
        return ev.wrap(ev.ControlOk(), env.round_id, ev.CONTROL, env.sender)

    def _dispatch(self, env: Envelope) -> List[Envelope]:
        with self.lock:
            if env.dest == ev.CONTROL:
                return self._handle_control(env)
            node = self.nodes.get((env.round_id, env.dest))
            if node is None:
                return [
                    framing.transport_fault(
                        env,
                        f"no node {env.dest} open for round {env.round_id} "
                        f"on process {self.spec.name!r}",
                    )
                ]
            return node.handle(env)

    # -- socket loop ---------------------------------------------------

    def _start_drain(self, why: str) -> None:
        if not self.draining.is_set():
            logger.info("%s: draining (%s)", self.spec.name, why)
            framing.stop_serving(self._listener, self.draining)

    def serve_forever(self) -> int:
        try:
            self._open_wal()
        except Exception as exc:
            print(
                f"[serve:{self.spec.name}] state-dir unusable: {exc!r}",
                flush=True,
            )
            return 2
        try:
            listener = socket.create_server((self.spec.host, self.spec.port))
        except OSError as exc:
            print(
                f"[serve:{self.spec.name}] cannot bind "
                f"{self.spec.host}:{self.spec.port}: {exc}",
                flush=True,
            )
            return 3
        self._listener = listener
        signal.signal(
            signal.SIGTERM, lambda *_: self._start_drain("SIGTERM")
        )
        self.ready = True
        print(
            f"[serve:{self.spec.name}] ready on "
            f"{self.spec.host}:{self.spec.port} gids={list(self.spec.gids)} "
            f"pid={os.getpid()}",
            flush=True,
        )
        # Returns once drained: in-flight requests have been answered.
        framing.serve(listener, self.group, self._dispatch, self.draining)
        if self.wal is not None:
            self.wal.close()
        print(f"[serve:{self.spec.name}] drained, exiting", flush=True)
        return 0


def run_server(plan_path: str, name: str) -> int:
    from repro.fleet.plan import DeploymentPlan

    plan = DeploymentPlan.load(plan_path)
    return FleetServer(plan, name).serve_forever()
