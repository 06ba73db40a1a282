"""Spawn, probe, roll, and stop a fleet of ``repro serve`` processes.

The :class:`FleetController` is the operational half of the fleet
layer (state-model naming follows the deploy idiom:
Deployment/DeploymentPhase/DeploymentStatus/HealthCheck):

- ``up()`` — spawn one OS process per :class:`ProcessSpec` and gate on
  readiness: poll a FLEET_STATUS RPC under the plan's
  :class:`~repro.fleet.plan.HealthCheck` policy, failing loudly (with
  the child's log tail) if a child exits during spawn, its port is
  taken, or the health check never turns ready.
- ``roll()`` — rolling restart, one process at a time: drain
  (FLEET_SHUTDOWN + SIGTERM) → wait for exit → respawn → wait ready.
  With per-process state dirs the respawned process replays its WAL
  and rejoins the stream where it left off.
- ``replace()`` — node replacement via checkpoint shipping: build a
  bundle from the dead process's journal (live suffix only), archive
  the old layout, respawn, BUNDLE_INSTALL the bundle — O(state)
  restore instead of O(history) replay.
- ``status()`` / ``down()`` — probe or terminate the fleet.  Runtime
  state (pids, log paths) is kept in ``fleet.json`` next to the logs so
  a later CLI invocation can status/down a fleet it did not spawn.
"""

from __future__ import annotations

import enum
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.crypto.groups import get_group
from repro.fleet.plan import DeploymentPlan, ProcessSpec
from repro.net import envelopes as ev
from repro.net.framing import (
    FramedConnection,
    RetryableTransportError,
    TransportError,
)


class FleetError(RuntimeError):
    """A fleet operation failed (spawn, readiness, roll, ...)."""


class DeploymentPhase(str, enum.Enum):
    PENDING = "pending"
    STARTING = "starting"
    READY = "ready"
    DRAINING = "draining"
    STOPPED = "stopped"
    FAILED = "failed"


@dataclass
class ProcessStatus:
    name: str
    phase: DeploymentPhase
    pid: Optional[int] = None
    detail: str = ""


@dataclass
class DeploymentStatus:
    phase: DeploymentPhase
    processes: List[ProcessStatus] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"fleet: {self.phase.value}"]
        for proc in self.processes:
            pid = f" pid={proc.pid}" if proc.pid else ""
            detail = f" ({proc.detail})" if proc.detail else ""
            lines.append(
                f"  {proc.name}: {proc.phase.value}{pid}{detail}"
            )
        return "\n".join(lines)


class FleetController:
    def __init__(
        self,
        plan: DeploymentPlan,
        runtime_dir: Optional[str] = None,
    ):
        if plan.path is None:
            raise FleetError(
                "the plan must be saved to disk (serve processes load "
                "it by path)"
            )
        self.plan = plan
        self.group = get_group(plan.config.crypto_group)
        base = runtime_dir or str(Path(plan.path).parent / "fleet-run")
        self.runtime_dir = Path(base)
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        self._children: Dict[str, subprocess.Popen] = {}

    # -- spawn hooks (overridable in tests) ----------------------------

    def _command(self, spec: ProcessSpec) -> List[str]:
        return [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--plan",
            str(self.plan.path),
            "--name",
            spec.name,
        ]

    def _log_path(self, name: str) -> Path:
        return self.runtime_dir / f"{name}.log"

    def _spawn(self, spec: ProcessSpec) -> subprocess.Popen:
        log = open(self._log_path(spec.name), "ab")
        try:
            child = subprocess.Popen(
                self._command(spec),
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()
        self._children[spec.name] = child
        return child

    def _log_tail(self, name: str, lines: int = 6) -> str:
        try:
            text = self._log_path(name).read_text(errors="replace")
        except OSError:
            return "<no log>"
        tail = text.strip().splitlines()[-lines:]
        return "\n".join(tail) if tail else "<empty log>"

    # -- runtime state file --------------------------------------------

    @property
    def _state_path(self) -> Path:
        return self.runtime_dir / "fleet.json"

    def _save_state(self) -> None:
        state = {
            name: child.pid for name, child in self._children.items()
        }
        self._state_path.write_text(json.dumps(state, indent=2))

    def _load_pids(self) -> Dict[str, int]:
        pids = {
            name: child.pid for name, child in self._children.items()
        }
        if not pids and self._state_path.exists():
            pids = json.loads(self._state_path.read_text())
        return pids

    # -- probes --------------------------------------------------------

    def _rpc(
        self,
        spec: ProcessSpec,
        payload,
        expect: "ev.Kind",
        timeout: Optional[float] = None,
    ):
        """One control RPC on a throwaway connection; returns the reply
        payload.  An unreachable process raises
        :class:`~repro.net.framing.RetryableTransportError`; one that
        answered with a fault or the wrong kind raises
        :class:`FleetError` quoting it."""
        conn = FramedConnection(
            (spec.host, spec.port), self.group, f"fleet process {spec.name!r}"
        )
        if timeout is None:
            timeout = self.plan.health.probe_timeout_s
        try:
            replies = conn.request(
                ev.wrap(payload, 0, ev.COORDINATOR, ev.CONTROL), timeout
            )
        except RetryableTransportError:
            raise
        except TransportError as exc:
            raise FleetError(str(exc)) from exc
        finally:
            conn.drop()
        if not replies or replies[0].kind is not expect:
            got = replies[0].kind.name if replies else "nothing"
            raise FleetError(
                f"process {spec.name!r} answered {payload.kind.name} "
                f"with {got}"
            )
        return replies[0].payload

    def _probe(self, spec: ProcessSpec):
        """One FLEET_STATUS RPC; returns the FleetStatusReply payload."""
        return self._rpc(spec, ev.FleetStatus(), ev.Kind.FLEET_STATUS_REPLY)

    def _wait_ready(self, spec: ProcessSpec) -> None:
        """Poll until ready or fail loudly: child exit and deadline
        overrun both name the process and quote its log tail."""
        health = self.plan.health
        deadline = time.monotonic() + health.timeout_s
        while True:
            child = self._children.get(spec.name)
            if child is not None and child.poll() is not None:
                raise FleetError(
                    f"fleet process {spec.name!r} exited with code "
                    f"{child.returncode} during startup; log tail:\n"
                    f"{self._log_tail(spec.name)}"
                )
            try:
                status = self._probe(spec)
                if status.ready:
                    if status.name != spec.name:
                        raise FleetError(
                            f"port {spec.port} answered as "
                            f"{status.name!r}, expected {spec.name!r} — "
                            "is another fleet using this port?"
                        )
                    return
            except RetryableTransportError:
                pass  # not up yet (conn refused / partial) — keep polling
            if time.monotonic() > deadline:
                raise FleetError(
                    f"fleet process {spec.name!r} never became ready "
                    f"within {health.timeout_s:.1f}s; log tail:\n"
                    f"{self._log_tail(spec.name)}"
                )
            time.sleep(health.interval_s)

    # -- operations ----------------------------------------------------

    def up(self) -> DeploymentStatus:
        """Spawn every process, then gate on readiness.  Any failure
        tears the partial fleet down before raising."""
        for spec in self.plan.processes:
            self._spawn(spec)
        self._save_state()
        try:
            for spec in self.plan.processes:
                self._wait_ready(spec)
        except FleetError:
            self.down()
            raise
        return self.status()

    def status(self) -> DeploymentStatus:
        pids = self._load_pids()
        procs: List[ProcessStatus] = []
        worst = DeploymentPhase.READY
        for spec in self.plan.processes:
            pid = pids.get(spec.name)
            try:
                reply = self._probe(spec)
                phase = (
                    DeploymentPhase.READY
                    if reply.ready
                    else DeploymentPhase.STARTING
                )
                procs.append(
                    ProcessStatus(
                        spec.name,
                        phase,
                        pid=reply.pid,
                        detail=(
                            f"gids={list(reply.gids)} "
                            f"open_rounds={list(reply.open_rounds)}"
                        ),
                    )
                )
            except RetryableTransportError as exc:
                procs.append(
                    ProcessStatus(
                        spec.name,
                        DeploymentPhase.STOPPED,
                        pid=pid,
                        detail=str(exc),
                    )
                )
                worst = DeploymentPhase.STOPPED
            else:
                if procs[-1].phase is not DeploymentPhase.READY:
                    worst = DeploymentPhase.STARTING
        return DeploymentStatus(phase=worst, processes=procs)

    def roll(self) -> None:
        """Rolling restart: one process (= one slice of groups) at a
        time, so a stream driving the fleet keeps making progress."""
        for spec in self.plan.processes:
            self._stop_process(spec)
            self._spawn(spec)
            self._save_state()
            self._wait_ready(spec)

    def replace(self, name: str) -> int:
        """Replace one (typically dead) process via checkpoint
        shipping: distill its state dir's journal into a bundle —
        O(state): the compaction liveness rules keep only what a
        restore can need — archive the old layout, respawn, and ship
        the bundle to the fresh process (BUNDLE_INSTALL), which
        replays it and rejoins the stream.  Returns the number of
        shipped records (0 when the process had no state dir: plain
        respawn, mid-round healing stays the heartbeat+buddy path).
        """
        from repro.fleet.server import fleet_log_root, fleet_shipper
        from repro.store.segments import LogDir

        spec = self.plan.process(name)
        self._stop_process(spec)  # no-op beyond probing when already dead
        bundle = None
        if spec.state_dir is not None:
            root = fleet_log_root(spec.state_dir)
            if LogDir.present(root):
                bundle = fleet_shipper().build(root)
                # Archive the dead layout: the fresh process must start
                # empty (restoring from the bundle, never from a full
                # history replay) and the old segments stay inspectable.
                n = 0
                while True:
                    suffix = f"-replaced{n}" if n else "-replaced"
                    backup = root.with_name(root.name + suffix)
                    if not backup.exists():
                        break
                    n += 1
                root.rename(backup)
        self._spawn(spec)
        self._save_state()
        self._wait_ready(spec)
        if bundle is None:
            return 0
        self._rpc(
            spec,
            ev.BundleInstall(data=bundle.to_bytes()),
            ev.Kind.CONTROL_OK,
            timeout=max(30.0, self.plan.health.timeout_s),
        )
        return len(bundle.records)

    def _stop_process(self, spec: ProcessSpec, timeout_s: float = 10.0):
        pid = self._load_pids().get(spec.name)
        child = self._children.get(spec.name)
        # Socket-level drain first (portable flush of in-flight work),
        # then SIGTERM for processes we cannot reach.
        try:
            self._rpc(spec, ev.FleetShutdown(), ev.Kind.CONTROL_OK)
        except (TransportError, FleetError):
            pass
        if pid is not None:
            try:
                os.kill(pid, signal.SIGTERM)
            except (OSError, ProcessLookupError):
                pass
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if child is not None:
                if child.poll() is not None:
                    return
            elif pid is None or not _pid_alive(pid):
                return
            time.sleep(0.05)
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
        if child is not None:
            child.wait(timeout=5)

    def kill(self, name: str) -> None:
        """SIGKILL one process (failure injection for tests): the
        heartbeat detector + buddy recovery must heal the stream."""
        spec = self.plan.process(name)
        pid = self._load_pids().get(spec.name)
        if pid is None:
            raise FleetError(f"no running pid recorded for {name!r}")
        os.kill(pid, signal.SIGKILL)
        child = self._children.get(name)
        if child is not None:
            child.wait(timeout=5)

    def down(self) -> None:
        for spec in self.plan.processes:
            self._stop_process(spec)
        self._children.clear()
        if self._state_path.exists():
            self._state_path.unlink()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True
