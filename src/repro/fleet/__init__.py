"""Multi-process fleet deployments: groups hosted by ``repro serve`` processes.

The paper's headline claim is *horizontal* scaling: throughput grows
with the number of real servers.  This package turns the single-process
deployment into a fleet of OS processes:

- :mod:`repro.fleet.plan` — the declarative :class:`DeploymentPlan`
  (which groups live in which process, on which port, under which
  health-check policy), JSON on disk.
- :mod:`repro.fleet.server` — the ``repro serve`` process: hosts the
  ServerNodes for its assigned groups behind a TCP socket, re-deriving
  their GroupContexts from the round's deterministic-rng epoch mark and
  journaling intake to a per-process write-ahead log so a respawn
  rejoins mid-stream.
- :mod:`repro.fleet.transport` — the coordinator-side
  :class:`FleetTransport`: routes envelopes to the owning process (or
  to in-coordinator nodes for unassigned groups / the trustee).
- :mod:`repro.fleet.controller` — the :class:`FleetController` behind
  ``repro fleet up|status|roll|down``: spawns processes, gates on
  readiness, and performs rolling restarts.
"""

from repro.fleet.controller import (
    DeploymentPhase,
    DeploymentStatus,
    FleetController,
    FleetError,
    ProcessStatus,
)
from repro.fleet.plan import DeploymentPlan, HealthCheck, ProcessSpec
from repro.fleet.transport import FleetTransport

__all__ = [
    "DeploymentPhase",
    "DeploymentPlan",
    "DeploymentStatus",
    "FleetController",
    "FleetError",
    "FleetTransport",
    "HealthCheck",
    "ProcessSpec",
    "ProcessStatus",
]
