"""End-to-end Atom round simulation (paper §6.2, Figures 9–11, Table 12).

The simulator follows the paper's own Figure 11 methodology — replace
cryptographic work with measured per-primitive costs — extended with
the round structure, fleet heterogeneity, staggering, network latency,
bandwidth, and the connection-setup overheads that cause the sub-linear
scaling beyond 1,024 servers.

Model summary (derivation and calibration in EXPERIMENTS.md):

- G groups of k servers on a width-G square network, T iterations.
- Per iteration, a group is a sequential chain of k steps; each step is
  per-server compute (Amdahl-scaled by cores), batch serialization at
  the sender's bandwidth, and an intra-group network hop.
- With staggered placement (§4.7) the chains of the ~G·k/N groups each
  server serves interleave, so the iteration wall-clock is
  ``max(slowest chain, aggregate-capacity bound)``; without staggering
  the effective capacity drops by ~k (idle-time, the §4.7 motivation).
- The trap variant doubles the ciphertext count; dialing adds the
  differential-privacy dummies (µ per trustee-group server, §6.2).
- Sub-linear terms (Figure 11): per-round trustee connection handling
  (G·k reports into one group) and per-server inter-group connection
  setup (~G²/N).
- ``calibration``: a single multiplicative systems-overhead factor
  (serialization, GC, stragglers, TLS record overhead) fit once so the
  1M-message/1,024-server microblogging point matches the paper's 28
  minutes, then held fixed for every other experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.costmodel import PrimitiveCosts
from repro.sim.machines import Fleet, MachineSpec
from repro.sim.mixnet import GroupMixModel, group_setup_latency
from repro.sim.network import NetworkModel

#: Group-element payload capacity used for sizing (31 bytes/element,
#: matching P-256 point embedding) — the paper's; the live embedding
#: carries 29 B/element, see tests/sim/test_simulator.py
#: (``TestSizingMatchesTheLiveSpec``).
ELEMENT_PAYLOAD_BYTES = 31
#: Wire size of one (R, c, Y) ciphertext element.
ELEMENT_WIRE_BYTES = 3 * 33
#: IND-CCA2 envelope overhead for trap-variant inner ciphertexts — the
#: paper's (32 B point + 16 B MAC); the live envelope is 54 B on P-256
#: (33 B point, 16 B tag, 1 B kind, 2 + 2 B lengths), see the same test.
CCA2_OVERHEAD_BYTES = 48
#: Calibration factor: systems overhead over the analytic model, fit to
#: the paper's 1M-message / 1,024-server / 28-minute point (§6.2).
DEFAULT_CALIBRATION = 3.156


@dataclass
class SimConfig:
    """Configuration of one simulated deployment."""

    num_servers: int = 1024
    num_groups: int = 1024
    group_size: int = 32
    iterations: int = 10
    variant: str = "trap"
    message_size: int = 160  # bytes (microblogging: 160, dialing: 80)
    application: str = "microblog"  # or "dialing"
    dialing_dummies: int = 13_000 * 32  # µ = 13k per server, 32 servers (§6.2)
    staggered: bool = True
    calibration: float = DEFAULT_CALIBRATION
    costs: PrimitiveCosts = field(default_factory=PrimitiveCosts.paper_table3)
    network: NetworkModel = field(default_factory=NetworkModel)
    fleet: Optional[Fleet] = None

    def resolved_fleet(self) -> Fleet:
        return self.fleet if self.fleet is not None else Fleet.paper_mix(self.num_servers)

    def elements_per_message(self) -> int:
        """Group elements per mixed ciphertext."""
        payload = self.message_size
        if self.variant == "trap":
            payload += CCA2_OVERHEAD_BYTES  # inner-ciphertext envelope
        return max(1, math.ceil(payload / ELEMENT_PAYLOAD_BYTES))


@dataclass
class SimResult:
    """Timing breakdown of one simulated round."""

    total_s: float
    per_iteration_s: float
    entry_s: float
    exit_s: float
    overhead_s: float
    setup_s: float
    ciphertexts_routed: int
    per_server_bandwidth_bytes_s: float

    @property
    def total_minutes(self) -> float:
        return self.total_s / 60

    @property
    def total_hours(self) -> float:
        return self.total_s / 3600


class AtomSimulator:
    """Simulate the latency of one Atom round."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.fleet = config.resolved_fleet()

    # -- workload ---------------------------------------------------------

    def total_ciphertexts(self, num_messages: int) -> int:
        """Mixnet load: trap doubling plus dialing dummies."""
        cfg = self.config
        total = num_messages
        if cfg.application == "dialing":
            total += cfg.dialing_dummies
        if cfg.variant == "trap":
            total *= 2
        return total

    def load_per_group(self, num_messages: int) -> float:
        return self.total_ciphertexts(num_messages) / self.config.num_groups

    # -- building blocks -----------------------------------------------------

    def _chain_time(self, load: float) -> float:
        """Wall time of one group's mixing chain for one iteration,
        assuming its servers are free when their step arrives
        (perfect staggering)."""
        cfg = self.config
        elements = cfg.elements_per_message()
        per_msg = (
            cfg.costs.nizk_mix_per_message()
            if cfg.variant == "nizk"
            else cfg.costs.trap_mix_per_message()
        )
        compute_per_server = load * elements * per_msg
        batch_bytes = load * elements * ELEMENT_WIRE_BYTES

        # A chain samples the fleet mix: weight step times by population.
        total = 0.0
        hop = self.config.network.mean_latency()
        for machine in self._representative_chain():
            total += compute_per_server / machine.effective_cores(cfg.variant)
            total += cfg.network.transfer_time(batch_bytes, machine)
            total += hop
        return total - hop  # k-1 hops, not k

    def _representative_chain(self) -> List[MachineSpec]:
        """k machines sampled deterministically from the fleet mix."""
        k = self.config.group_size
        n = len(self.fleet)
        return [self.fleet.machines[(i * max(1, n // k) + i) % n] for i in range(k)]

    def _capacity_bound(self, load: float) -> float:
        """Aggregate-compute lower bound on the iteration wall time."""
        cfg = self.config
        elements = cfg.elements_per_message()
        per_msg = (
            cfg.costs.nizk_mix_per_message()
            if cfg.variant == "nizk"
            else cfg.costs.trap_mix_per_message()
        )
        work = cfg.num_groups * cfg.group_size * load * elements * per_msg
        capacity = self.fleet.total_effective_cores(cfg.variant)
        if not cfg.staggered:
            # Naive placement: only ~1/k of the fleet active at a time.
            capacity /= cfg.group_size
        return work / capacity

    def iteration_time(self, num_messages: int) -> float:
        load = self.load_per_group(num_messages)
        return max(self._chain_time(load), self._capacity_bound(load))

    # -- entry / exit / overheads ----------------------------------------------

    def entry_time(self, num_messages: int) -> float:
        """EncProof verification of submissions at entry groups."""
        cfg = self.config
        load = self.load_per_group(num_messages)
        elements = cfg.elements_per_message()
        machine = self.fleet.percentile_machine(0.4)  # a typical 4-core box
        return (
            load
            * elements
            * cfg.costs.encproof_verify
            / machine.effective_cores(cfg.variant)
        )

    def exit_time(self, num_messages: int) -> float:
        """Trap checks, key release, inner-ciphertext decryption; or
        plain parsing for the basic/NIZK variants."""
        cfg = self.config
        if cfg.variant != "trap":
            return 0.0
        load = self.load_per_group(num_messages) / 2  # inner ciphertexts only
        machine = self.fleet.percentile_machine(0.4)
        decrypt = load * cfg.costs.enc  # KEM decap ~ one exponentiation
        return decrypt / machine.effective_cores(cfg.variant) + cfg.network.mean_latency() * 4

    def overhead_time(self) -> float:
        """Connection-scaling terms (Figure 11 sub-linearity)."""
        cfg = self.config
        connections = cfg.num_groups * cfg.group_size
        trustee = (
            cfg.costs.trustee_report * connections ** 1.5
            if cfg.variant == "trap"
            else 0.0
        )
        # Per-server inter-group connections: width-G square networking
        # gives each server ~G^2/N sessions, amortized over the round.
        conns_per_server = cfg.num_groups * cfg.num_groups / max(1, cfg.num_servers)
        conn_setup = cfg.costs.tls_setup * conns_per_server / 1000.0
        return trustee + conn_setup

    def setup_time(self) -> float:
        """Per-round group formation (DVSS), done in the background in
        steady state (§4.1) — reported separately, not added to the
        round latency."""
        return group_setup_latency(self.config.group_size, self.config.costs)

    # -- top level -------------------------------------------------------------

    def simulate_round(self, num_messages: int) -> SimResult:
        if num_messages < 0:
            raise ValueError("message count must be >= 0")
        cfg = self.config
        per_iter = self.iteration_time(num_messages)
        entry = self.entry_time(num_messages)
        exit_ = self.exit_time(num_messages)
        overhead = self.overhead_time()
        mixing = per_iter * cfg.iterations
        total = (entry + mixing + exit_) * cfg.calibration + overhead

        elements = cfg.elements_per_message()
        bytes_per_server = (
            self.total_ciphertexts(num_messages)
            * elements
            * ELEMENT_WIRE_BYTES
            * cfg.group_size  # every member of the chain forwards the batch
            * cfg.iterations
            / max(1, cfg.num_servers)
        )
        return SimResult(
            total_s=total,
            per_iteration_s=per_iter * cfg.calibration,
            entry_s=entry * cfg.calibration,
            exit_s=exit_ * cfg.calibration,
            overhead_s=overhead,
            setup_s=self.setup_time(),
            ciphertexts_routed=self.total_ciphertexts(num_messages),
            per_server_bandwidth_bytes_s=bytes_per_server / max(total, 1e-9),
        )

    def latency_minutes(self, num_messages: int) -> float:
        return self.simulate_round(num_messages).total_minutes
