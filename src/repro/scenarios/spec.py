"""Declarative scenario specs (dataclass + JSON/dict grammar).

A :class:`ScenarioSpec` composes the pieces PRs 2–8 built into one
declarative, file-able unit:

- a :mod:`~repro.scenarios.traffic` model (who sends what, when),
- a :class:`~repro.core.pipeline.FaultSchedule` (server/user faults),
- a :class:`~repro.net.chaos.NetFaultPlan` (network chaos rules),
- :class:`~repro.core.protocol.DeploymentConfig` knobs (group backend,
  transport, state dir, WAL segmenting, ...).

Like ``NetFaultPlan``, the grammar round-trips: ``parse(describe())``
is the identity on the canonical form, and every unknown key is an
error.  A scenario file is the JSON form of :meth:`describe`::

    {
      "name": "black-friday-tamper-churn",
      "rounds": 6,
      "traffic": {"model": "bursty", "base": 4, "spike": 12, ...},
      "faults": "r2:tamper-group:1:0:replace_one",
      "net_faults": "",
      "deployment": {"num_groups": 2, "group_size": 3, "variant": "trap",
                      "message_size": 96, "crypto_group": "TOY"},
      "dialing": {"mailboxes": 4}
    }

The deployment section spells :class:`DeploymentConfig` field names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.core.pipeline import FaultSchedule, FaultScheduleError
from repro.scenarios.traffic import TrafficError, TrafficModel, parse_traffic


class ScenarioError(ValueError):
    """A scenario spec could not be parsed or validated."""


#: the DeploymentConfig fields a deployment section may set
_DEPLOY_FIELDS = {
    "num_groups", "group_size", "variant", "mode", "h", "iterations",
    "message_size", "crypto_group", "transport", "fleet_plan",
    "heartbeat", "rpc_timeout", "state_dir",
    "wal_segment_bytes", "wal_segment_records", "wal_retain_segments",
}
#: retired spellings -> the field to use instead
_RENAMED = {"groups": "num_groups", "group": "crypto_group"}

_DIALING_DEFAULTS = {"mailboxes": 8}


def _check_deploy_keys(keys, what: str) -> None:
    """Refuse keys that are not DeploymentConfig fields, naming the
    field to use for a retired spelling."""
    for key in sorted(keys):
        if key in _RENAMED:
            raise ScenarioError(
                f"deployment key {key!r} is spelled {_RENAMED[key]!r} "
                f"(the DeploymentConfig field name)"
            )
    unknown = set(keys) - _DEPLOY_FIELDS
    if unknown:
        raise ScenarioError(
            f"unknown {what} {sorted(unknown)} "
            f"(allowed: {sorted(_DEPLOY_FIELDS)})"
        )


_TOP_KEYS = {
    "name", "description", "rounds", "seed", "traffic", "faults",
    "net_faults", "deployment", "dialing",
}


@dataclass
class ScenarioSpec:
    """One declarative scenario: traffic x faults x chaos x deployment."""

    name: str
    traffic: TrafficModel
    description: str = ""
    rounds: int = 5
    #: default rng seed; `repro scenario run --seed` overrides it
    seed: str = "atom-rpc"
    #: FaultSchedule grammar ("" = fault-free)
    faults: str = ""
    #: NetFaultPlan grammar ("" = calm network)
    net_faults: str = ""
    #: DeploymentConfig fields (see _DEPLOY_FIELDS)
    deployment: Dict[str, object] = field(default_factory=dict)
    #: dialing-application knobs (mailbox count)
    dialing: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("a scenario needs a name")
        if self.rounds < 1:
            raise ScenarioError("rounds must be >= 1")
        _check_deploy_keys(self.deployment, "deployment keys")
        unknown = set(self.dialing) - set(_DIALING_DEFAULTS)
        if unknown:
            raise ScenarioError(
                f"unknown dialing keys {sorted(unknown)} "
                f"(allowed: {sorted(_DIALING_DEFAULTS)})"
            )
        # Parse eagerly so a bad schedule fails at spec time, like the
        # deployment's own NetFaultPlan validation.
        try:
            self.fault_schedule()
        except FaultScheduleError as exc:
            raise ScenarioError(f"bad fault schedule: {exc}") from exc
        if self.net_faults:
            from repro.net.chaos import NetFaultPlan, NetFaultPlanError

            try:
                NetFaultPlan.parse(self.net_faults)
            except NetFaultPlanError as exc:
                raise ScenarioError(f"bad net-fault plan: {exc}") from exc

    # -- derived objects -----------------------------------------------

    def fault_schedule(self) -> FaultSchedule:
        return FaultSchedule.parse(self.faults) if self.faults else FaultSchedule()

    def dialing_knob(self, key: str) -> float:
        return self.dialing.get(key, _DIALING_DEFAULTS[key])

    def deployment_config(self, **overrides):
        """Build the :class:`DeploymentConfig` this scenario runs on.

        ``overrides`` are DeploymentConfig fields (``transport``,
        ``crypto_group``, ...) and win over the file's deployment
        section — the CLI passes ``--transport``/``--state-dir`` through
        here.
        """
        from repro.core.protocol import DeploymentConfig

        _check_deploy_keys(overrides, "deployment overrides")
        fields = dict(self.deployment)
        fields.update((k, v) for k, v in overrides.items() if v is not None)
        groups = fields.setdefault("num_groups", 2)
        group_size = fields.setdefault("group_size", 3)
        fields["num_servers"] = max(groups * group_size, 2 * group_size)
        fields.setdefault("variant", "trap")
        # The deployment seed feeds the beacon and the chaos/rpc rngs;
        # deriving it from the scenario seed makes *everything* —
        # including injected network faults — a function of one seed.
        fields["seed"] = (self.seed + "/deploy").encode()
        if self.net_faults:
            fields["net_faults"] = self.net_faults
        try:
            return DeploymentConfig(**fields)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad deployment section: {exc}") from exc

    # -- grammar -------------------------------------------------------

    @classmethod
    def parse(cls, obj) -> "ScenarioSpec":
        """Build a spec from a dict (or a JSON string)."""
        if isinstance(obj, (str, bytes)):
            try:
                obj = json.loads(obj)
            except ValueError as exc:
                raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ScenarioError(
                f"scenario spec must be a dict, got {type(obj).__name__}"
            )
        unknown = set(obj) - _TOP_KEYS
        if unknown:
            raise ScenarioError(
                f"unknown scenario keys {sorted(unknown)} "
                f"(allowed: {sorted(_TOP_KEYS)})"
            )
        if "traffic" not in obj:
            raise ScenarioError("scenario needs a 'traffic' section")
        spec = dict(obj)
        try:
            traffic = parse_traffic(spec.pop("traffic"))
        except TrafficError as exc:
            raise ScenarioError(str(exc)) from exc
        try:
            return cls(traffic=traffic, **spec)
        except TypeError as exc:
            raise ScenarioError(f"bad scenario spec: {exc}") from exc

    def describe(self) -> Dict[str, object]:
        """Canonical dict form: ``parse(describe())`` round-trips."""
        return {
            "name": self.name,
            "description": self.description,
            "rounds": self.rounds,
            "seed": self.seed,
            "traffic": self.traffic.describe(),
            "faults": ";".join(
                ev.describe() for ev in self.fault_schedule().events
            ),
            "net_faults": self.net_faults,
            "deployment": {k: self.deployment[k] for k in sorted(self.deployment)},
            "dialing": {k: self.dialing[k] for k in sorted(self.dialing)},
        }

    def to_json(self) -> str:
        return json.dumps(self.describe(), indent=2) + "\n"

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        """Parse a scenario file."""
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
        return cls.parse(text)
