"""Scenario engine: declarative workloads driving the real apps.

The subsystem behind ``repro scenario run|describe|list``:
seed-deterministic :mod:`traffic <repro.scenarios.traffic>`
models, a declarative :mod:`spec <repro.scenarios.spec>` composing
traffic x faults x network chaos x deployment, a
:mod:`runner <repro.scenarios.runner>` that drives the microblogging
and dialing applications over the StreamEngine, and conservation-
checked :mod:`metrics <repro.scenarios.metrics>`.
"""

from repro.scenarios.bundled import list_bundled, load_scenario
from repro.scenarios.metrics import ConservationError, RoundMetrics, ScenarioMetrics
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioError, ScenarioSpec
from repro.scenarios.traffic import (
    Arrival,
    ArrivalBatch,
    BurstyTraffic,
    ConstantTraffic,
    DiurnalTraffic,
    TrafficError,
    TrafficModel,
    TRAFFIC_MODELS,
    parse_traffic,
)

__all__ = [
    "Arrival",
    "ArrivalBatch",
    "BurstyTraffic",
    "ConservationError",
    "ConstantTraffic",
    "DiurnalTraffic",
    "RoundMetrics",
    "ScenarioError",
    "ScenarioMetrics",
    "ScenarioRunner",
    "ScenarioSpec",
    "TrafficError",
    "TrafficModel",
    "TRAFFIC_MODELS",
    "list_bundled",
    "load_scenario",
    "parse_traffic",
]
