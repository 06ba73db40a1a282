"""Tests of the benchmark itself (collected by tier-1, a few seconds).

The smoke test runs the full timed + traced path in-process on the TOY
workload shrunk to four rounds; the fleet path is covered by running
the benchmark, not here.
"""

import dataclasses
import json
import re
import time
from pathlib import Path

from bench import layers, run, stream
from bench.metrics import END_TO_END, PER_LAYER, percentile, spread, tail_percentile
from bench.trace import Tracer, covered, outermost, self_times
from bench.workloads import WORKLOADS, message, payload_digest

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_percentile_rule():
    # the highest percentile with >= 10 samples beyond it ...
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1_000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(100) == 90.0
    # ... and the median only when nothing higher qualifies
    assert tail_percentile(99) == 50.0
    assert tail_percentile(4) == 50.0
    values = [float(v) for v in range(1, 201)]
    assert percentile(values, 95.0) == 190.0  # ten samples lie beyond it
    assert percentile(values, 50.0) == 100.0
    assert percentile([3.0], 99.0) == 3.0


def test_quiet_decile_is_the_minimum_below_eleven_samples():
    assert run.quiet([5.0, 3.0, 4.0]) == 3.0
    assert run.quiet([float(v) for v in range(10, 0, -1)]) == 1.0
    assert run.quiet([float(v) for v in range(1, 12)]) == 2.0
    assert run.quiet([float(v) for v in range(1, 101)]) == 10.0


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0]) == 0.0
    assert spread([9.0, 10.0, 11.0]) == 0.2
    assert spread([10.0] * 10) == 0.0


def test_span_self_time_on_a_synthetic_tree():
    #  root 0..10
    #    a 1..4        (self 3 - 1 = 2)
    #      a1 2..3     (self 1)
    #    b 5..9        (self 4)
    #  lone 20..21     (top level, another thread)
    root = ["net.x", 0.0, 10.0, None, 1, 0]
    a = ["crypto.a", 1.0, 4.0, root, 1, 0]
    a1 = ["crypto.a", 2.0, 3.0, a, 1, 7]
    b = ["store.b", 5.0, 9.0, root, 1, 0]
    lone = ["crypto.a", 20.0, 21.0, None, 2, 0]
    spans = [root, a, a1, b, lone]
    selfs = self_times(spans)
    assert selfs[id(root)] == 10.0 - 3.0 - 4.0
    assert selfs[id(a)] == 2.0 and selfs[id(a1)] == 1.0 and selfs[id(b)] == 4.0
    assert sum(selfs.values()) == 10.0 + 1.0  # nothing counted twice
    # nested calls of one kind count once
    assert outermost(spans, ("crypto.a",)) == [a, lone]
    assert covered([(0.0, 10.0), (5.0, 9.0), (20.0, 21.0)], 2.0, 20.5) == 8.5


def test_messages_are_a_pure_function_of_the_seed():
    inproc, fleet = WORKLOADS["trap_p256_inproc"], WORKLOADS["trap_p256_fleet2"]
    assert inproc.messages("s") == inproc.messages("s")
    assert inproc.messages("s") != inproc.messages("t")
    # the fleet workload carries the in-process workload's stream
    assert inproc.messages("s") == fleet.messages("s")
    assert message("s", 16, 1, 2) == message("s", 32, 1, 2)[:16]
    flat = [m for rnd in inproc.messages("s") for m in rnd]
    assert len(set(flat)) == len(flat) and {len(m) for m in flat} == {32}
    # the digest ignores order within a round, not between rounds
    assert payload_digest([[b"a", b"b"], [b"c"]]) == payload_digest([[b"b", b"a"], [b"c"]])
    assert payload_digest([[b"a", b"b"], [b"c"]]) != payload_digest([[b"c"], [b"a", b"b"]])


def test_benchmark_json_matches_the_catalogue():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in BENCHMARK[key]]
    assert len(set(names)) == len(names)
    assert all(name.fullmatch(n) for n in names)
    assert all(unit.fullmatch(m.unit) and m.better in ("higher", "lower")
               for m in END_TO_END + PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert BENCHMARK["paths"] == [Path(run.__file__).parent.name]


def _patched_now():
    """What every traced boundary currently resolves to."""
    tracer = Tracer()
    layers.install(tracer)
    try:
        return list(tracer._patches)
    finally:
        tracer.uninstall()


def test_smoke_emits_every_metric_and_removes_every_wrapper(tmp_path):
    originals = _patched_now()
    workload = dataclasses.replace(WORKLOADS["ctl_toy_tcp_wal"], rounds=4)
    results = []
    for traced in (False, True):
        tmp = tmp_path / str(traced)
        tmp.mkdir()
        results.append(
            stream.run_stream(workload, "smoke", traced, tmp, time.perf_counter())
        )
    timed, traced = results
    assert timed["correct"] and traced["correct"]
    assert timed["attempted"] == traced["attempted"] == 4 * 16
    assert timed["failed"] == traced["failed"] == 0
    assert timed["digest"] == traced["digest"] == payload_digest(workload.messages("smoke"))
    # rounds 1..R-2 are the steady ones
    assert len(timed["round_gaps_s"]) == len(timed["round_latencies_s"]) == 2
    setup = stream.run_stream(
        workload, "smoke", False, tmp_path, time.perf_counter(), setup_only=True
    )
    assert set(setup) == {"setup_s"} and setup["setup_s"] > 0

    assert set(run.end_to_end([timed], [setup])) == {m.name for m in END_TO_END}
    values = run.per_layer([timed], [traced], base=timed)
    assert set(values) == {m.name for m in PER_LAYER}
    assert all(v > 0 for v in run.end_to_end([timed]).values())
    # the workload's predictions, in their weakest form
    assert values["core.protocol.pad_dummies_per_round"] == 0
    assert values["net.transport.retries"] == 0
    assert values["crypto.exp_count_per_msg"] > 0
    assert values["net.envelopes.count_per_round"] > 0
    assert values["store.fsyncs_per_round"] > 0
    assert values["trace.coverage"] > 0.9
    assert values["fleet.scaleout_ratio"] == 1.0

    # every wrapper is gone: each boundary is the object it was before
    for owner, attr, original in originals:
        now = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        assert now is original, (owner, attr)
