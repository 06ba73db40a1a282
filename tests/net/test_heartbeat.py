"""Heartbeat failure detection, end to end.

Unit level: the coordinator's pre-layer PING probes must count
consecutive misses against a dark endpoint and surface the declaration
as ``GroupStalled`` (the signal §4.5 buddy recovery already consumes),
and a PONG reporting a lost quorum must stall immediately.

Acceptance level (the ISSUE 6 criterion): a seeded TCP stream under a
drop+delay+duplicate chaos plan with one *undeclared* mid-stream server
kill — no FaultSchedule entry, nothing tells the engine — completes
with the identical per-round payload to the fault-free run, with the
kill detected by heartbeats and healed by buddy recovery.
"""

import pytest

from repro.core import AtomDeployment, Client, DeploymentConfig
from repro.core.group import GroupStalled
from repro.core.pipeline import StreamConfig, StreamEngine
from repro.crypto.groups import DeterministicRng


def _round_config(**overrides):
    base = dict(
        num_servers=6,
        num_groups=2,
        group_size=2,
        variant="basic",
        iterations=3,
        message_size=8,
        crypto_group="TOY",
        nizk_rounds=4,
        heartbeat=True,
    )
    base.update(overrides)
    return DeploymentConfig(**base)


def _primed_round(dep):
    rng = DeterministicRng(b"heartbeat-setup")
    rnd = dep.start_round(0, rng=rng)
    client = Client(dep.group, rng)
    for i in range(4):
        dep.submit_plain(rnd, b"hb-%d" % i, i % 2, client)
    return rnd


class TestDetector:
    def test_dark_endpoint_declared_after_misses(self):
        config = _round_config(net_faults="c>1/ping:kill:1")
        with AtomDeployment(config) as dep:
            rnd = _primed_round(dep)
            run = dep.begin_mixing(rnd, DeterministicRng(b"hb-mix"))
            with pytest.raises(GroupStalled) as excinfo:
                run.run_layer()
            assert excinfo.value.gid == 1
            tracker = rnd.coordinator.suspicion
            assert tracker.declared == [1]

    def test_healthy_round_probes_without_suspicion(self):
        with AtomDeployment(_round_config()) as dep:
            rnd = _primed_round(dep)
            result = dep.run_round(rnd, DeterministicRng(b"hb-mix"))
            assert result.ok
            assert rnd.coordinator.suspicion.declared == []

    def test_lost_quorum_stalls_via_pong(self):
        """The endpoint answers, but the PONG says the group is below
        threshold: same GroupStalled, better diagnosis — and *zero*
        recorded misses, since the node did respond."""
        with AtomDeployment(_round_config()) as dep:
            rnd = _primed_round(dep)
            for server in rnd.contexts[1].servers:
                server.failed = True
            run = dep.begin_mixing(rnd, DeterministicRng(b"hb-mix"))
            with pytest.raises(GroupStalled) as excinfo:
                run.run_layer()
            assert excinfo.value.gid == 1
            assert excinfo.value.alive == 0
            assert rnd.coordinator.suspicion.declared == []

    def test_heartbeat_off_means_no_tracker(self):
        with AtomDeployment(_round_config(heartbeat=False)) as dep:
            rnd = _primed_round(dep)
            assert rnd.coordinator.suspicion is None
            assert dep.run_round(rnd, DeterministicRng(b"hb-mix")).ok


#: drop + delay + duplicate background noise, plus one undeclared kill:
#: the first round-1 heartbeat to group 1 turns its endpoint dark.
CHAOS_NOISE = "*:drop:2%;*:delay:2:10%;*:dup:1%"
CHAOS_KILL = CHAOS_NOISE + ";r1/c>1/ping:kill:1"


def _stream(net_faults=None, heartbeat=False):
    config = DeploymentConfig(
        num_servers=8,
        num_groups=2,
        group_size=4,
        h=2,
        mode="manytrust",
        variant="trap",
        iterations=3,
        message_size=8,
        crypto_group="TOY",
        nizk_rounds=4,
        transport="tcp",
        net_faults=net_faults,
        heartbeat=heartbeat,
    )
    engine = StreamEngine(
        config,
        stream=StreamConfig(rounds=3, users_per_round=4, seed=b"chaos-stream"),
    )
    return engine.run()


class TestChaosStreamAcceptance:
    @pytest.mark.slow
    def test_undeclared_kill_detected_and_healed(self):
        """The PR's acceptance criterion, end to end over TCP."""
        clean = _stream()
        chaotic = _stream(net_faults=CHAOS_KILL, heartbeat=True)
        assert clean.ok and chaotic.ok
        # The kill was healed by buddy recovery, in the round it hit.
        assert chaotic.total_recoveries == 1
        assert chaotic.rounds[1].recovered_gids == [1]
        # Recovery redraws group sub-seeds, so the comparison is the
        # per-round delivered payload (order-free), not raw bytes.
        assert [
            (r.round_id, r.ok, sorted(r.messages)) for r in chaotic.rounds
        ] == [(r.round_id, r.ok, sorted(r.messages)) for r in clean.rounds]

    @pytest.mark.slow
    def test_pure_chaos_stream_is_order_identical(self):
        """Without the kill, drop/delay/dup noise must be *completely*
        invisible: same payloads in the same order as the calm network."""
        clean = _stream()
        noisy = _stream(net_faults=CHAOS_NOISE, heartbeat=True)
        assert noisy.ok and noisy.total_recoveries == 0
        assert [
            (r.round_id, r.ok, r.messages) for r in noisy.rounds
        ] == [(r.round_id, r.ok, r.messages) for r in clean.rounds]
