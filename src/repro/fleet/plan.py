"""Declarative fleet deployment plans.

A :class:`DeploymentPlan` is the single source of truth a fleet shares:
the protocol :class:`~repro.core.protocol.DeploymentConfig`, one
:class:`ProcessSpec` per server OS process (name, loopback port, the
group ids it hosts, an optional per-process state dir for the intake
write-ahead log), and the :class:`HealthCheck` policy the controller
gates readiness on.  Plans serialize to JSON so ``repro serve`` and
``repro fleet`` invocations in different processes agree byte-for-byte
on the deployment.

Groups *not* assigned to any process stay hosted inside the
coordinator process (as does the trustee), so a plan can shard any
subset of the mixnet.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.protocol import DeploymentConfig


class PlanError(ValueError):
    """Raised on malformed or inconsistent deployment plans."""


@dataclass(frozen=True)
class HealthCheck:
    """Readiness gating policy (named per the deploy-state idiom:
    Deployment/DeploymentPhase/DeploymentStatus/HealthCheck)."""

    #: poll cadence while waiting for a process to become ready
    interval_s: float = 0.1
    #: per-process readiness deadline; exceeding it fails the rollout
    timeout_s: float = 15.0
    #: socket deadline of one STATUS probe RPC
    probe_timeout_s: float = 2.0


@dataclass(frozen=True)
class ProcessSpec:
    """One server OS process: which groups it hosts and where."""

    name: str
    port: int
    gids: Tuple[int, ...]
    host: str = "127.0.0.1"
    #: directory for the process's intake WAL; None = volatile process
    state_dir: Optional[str] = None


@dataclass
class DeploymentPlan:
    config: DeploymentConfig
    processes: List[ProcessSpec]
    health: HealthCheck = field(default_factory=HealthCheck)
    #: where this plan was loaded from / saved to (for engine_config)
    path: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    # -- consistency ---------------------------------------------------

    def validate(self) -> None:
        if not self.processes:
            raise PlanError("a fleet plan needs at least one process")
        names = [p.name for p in self.processes]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate process names in plan: {names}")
        if any(not name for name in names):
            raise PlanError("process names must be non-empty")
        ports = [(p.host, p.port) for p in self.processes]
        if len(set(ports)) != len(ports):
            raise PlanError(f"duplicate (host, port) pairs in plan: {ports}")
        seen: Dict[int, str] = {}
        for proc in self.processes:
            if not proc.gids:
                raise PlanError(f"process {proc.name!r} hosts no groups")
            for gid in proc.gids:
                if not 0 <= gid < self.config.num_groups:
                    raise PlanError(
                        f"process {proc.name!r} hosts gid {gid}, outside "
                        f"0..{self.config.num_groups - 1}"
                    )
                if gid in seen:
                    raise PlanError(
                        f"gid {gid} assigned to both {seen[gid]!r} "
                        f"and {proc.name!r}"
                    )
                seen[gid] = proc.name

    # -- lookups -------------------------------------------------------

    @property
    def placement(self) -> Dict[int, str]:
        """gid -> owning process name (unassigned gids are absent)."""
        return {
            gid: proc.name for proc in self.processes for gid in proc.gids
        }

    def process(self, name: str) -> ProcessSpec:
        for proc in self.processes:
            if proc.name == name:
                return proc
        raise PlanError(
            f"no process {name!r} in plan "
            f"(have {[p.name for p in self.processes]})"
        )

    def engine_config(self) -> DeploymentConfig:
        """The coordinator-side config driving this plan: identical
        protocol parameters, transport switched to the fleet."""
        if self.path is None:
            raise PlanError("plan must be saved before engine_config()")
        return dataclasses.replace(
            self.config, transport="fleet", fleet_plan=str(self.path)
        )

    def serve_config(self) -> DeploymentConfig:
        """The config a ``repro serve`` process instantiates: the same
        protocol parameters with all coordinator-side runtime wiring
        (fleet transport, durable store, chaos plans, heartbeats)
        stripped — the serve process journals its own intake WAL."""
        return dataclasses.replace(
            self.config,
            transport="inproc",
            fleet_plan=None,
            state_dir=None,
            net_faults=None,
            heartbeat=False,
        )

    # -- JSON ----------------------------------------------------------

    def to_json(self) -> str:
        cfg = {}
        for f in dataclasses.fields(DeploymentConfig):
            value = getattr(self.config, f.name)
            if isinstance(value, bytes):
                value = {"__bytes__": value.hex()}
            cfg[f.name] = value
        obj = {
            "config": cfg,
            "health": dataclasses.asdict(self.health),
            "processes": [dataclasses.asdict(p) for p in self.processes],
        }
        return json.dumps(obj, indent=2)

    def save(self, path) -> "DeploymentPlan":
        Path(path).write_text(self.to_json())
        self.path = str(path)
        return self

    @classmethod
    def from_json(cls, text: str, path: Optional[str] = None):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"plan is not valid JSON: {exc}") from exc
        known = {f.name for f in dataclasses.fields(DeploymentConfig)}
        cfg = {}
        for name, value in obj.get("config", {}).items():
            if name not in known:
                raise PlanError(f"unknown config field {name!r} in plan")
            if isinstance(value, dict) and "__bytes__" in value:
                value = bytes.fromhex(value["__bytes__"])
            cfg[name] = value
        try:
            config = DeploymentConfig(**cfg)
            processes = [
                ProcessSpec(
                    name=p["name"],
                    port=p["port"],
                    gids=tuple(p["gids"]),
                    host=p.get("host", "127.0.0.1"),
                    state_dir=p.get("state_dir"),
                )
                for p in obj.get("processes", [])
            ]
            health = HealthCheck(**obj.get("health", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"malformed plan: {exc}") from exc
        return cls(
            config=config, processes=processes, health=health, path=path
        )

    @classmethod
    def load(cls, path) -> "DeploymentPlan":
        return cls.from_json(Path(path).read_text(), path=str(path))

    # -- construction helper -------------------------------------------

    @classmethod
    def build(
        cls,
        config: DeploymentConfig,
        num_processes: int,
        base_port: int = 9500,
        ports: Optional[List[int]] = None,
        state_root: Optional[str] = None,
        health: Optional[HealthCheck] = None,
    ) -> "DeploymentPlan":
        """Split ``num_groups`` round-robin over ``num_processes``
        loopback processes — the shape the scaling benchmark and the
        smoke scripts use."""
        if not 1 <= num_processes <= config.num_groups:
            raise PlanError(
                f"need 1..{config.num_groups} processes for "
                f"{config.num_groups} groups, got {num_processes}"
            )
        assignments: List[List[int]] = [[] for _ in range(num_processes)]
        for gid in range(config.num_groups):
            assignments[gid % num_processes].append(gid)
        processes = []
        for i, gids in enumerate(assignments):
            state_dir = (
                str(Path(state_root) / f"p{i}") if state_root else None
            )
            port = ports[i] if ports else base_port + i
            processes.append(
                ProcessSpec(
                    name=f"p{i}", port=port, gids=tuple(gids),
                    state_dir=state_dir,
                )
            )
        return cls(
            config=config,
            processes=processes,
            health=health or HealthCheck(),
        )
