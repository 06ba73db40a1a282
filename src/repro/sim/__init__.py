"""Calibrated performance simulator (paper §6).

The paper's evaluation runs on 1,024 EC2 machines with `tc`-injected
latencies; beyond 1,024 servers the *paper itself* switches to a
simulation that replaces crypto operations with the measured costs of
Table 3 (Figure 11).  This package applies that methodology to every
large-scale experiment:

- :mod:`repro.sim.costmodel` — per-primitive CPU costs: the paper's
  Table 3 numbers, scalable to other hardware.
- :mod:`repro.sim.machines` — heterogeneous fleets (the §6.2 core and
  bandwidth mixes) and an Amdahl parallelism model (Figure 7).
- :mod:`repro.sim.network` — pairwise latencies (40–160 ms clustered
  topology of Figure 8), bandwidth-limited transfer times, and TLS
  connection-setup overhead (the Figure 11 sub-linearity).
- :mod:`repro.sim.mixnet` — single-group iteration model (Figures 5–7,
  Table 4).
- :mod:`repro.sim.runner` — end-to-end round simulation over the full
  topology (Figures 9–11, Table 12, bandwidth accounting).
- :mod:`repro.sim.pipeline` — §4.7 pipelined scheduling: the analytic
  throughput model, plus :func:`reconcile_with_engine` checking it
  against the real stream engine's measured intake/mix overlap.
- :mod:`repro.sim.scenario` — :func:`reconcile_with_traffic` replaying
  a scenario's traffic model analytically against the measured
  :class:`~repro.scenarios.metrics.ScenarioMetrics`.
"""

from repro.sim.costmodel import PrimitiveCosts
from repro.sim.pipeline import (
    PipelinedAtomSimulator,
    PipelineResult,
    reconcile_with_engine,
)
from repro.sim.machines import Fleet, MachineSpec, amdahl_speedup
from repro.sim.network import NetworkModel
from repro.sim.mixnet import GroupMixModel, group_setup_latency
from repro.sim.runner import AtomSimulator, SimConfig, SimResult
from repro.sim.scenario import reconcile_with_traffic

__all__ = [
    "PrimitiveCosts",
    "Fleet",
    "MachineSpec",
    "amdahl_speedup",
    "NetworkModel",
    "GroupMixModel",
    "group_setup_latency",
    "AtomSimulator",
    "SimConfig",
    "SimResult",
    "PipelinedAtomSimulator",
    "PipelineResult",
    "reconcile_with_engine",
    "reconcile_with_traffic",
]
