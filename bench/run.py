"""The benchmark's one command.

    python3 -m bench.run --workload W --seed S --seconds N --trace 0|1

runs workload ``W`` for about ``N`` seconds and prints every metric by
name with its unit, then — as the last line — one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics (tracing off); ``--trace 1`` gives the per-layer
metrics (untraced reference streams, then traced streams, same seed).

Without ``--workload`` every workload runs, without ``--trace`` both
kinds; ``--repeats`` repeats each and ``--out FILE`` writes all results
with a host block, which ``--compare A.json B.json`` reads back.

A run is made of whole streams (``bench.stream``, one fresh child
process each).  Each workload has a fixed number of streams sized to
take the nominal 24 s on a 2-core box; ``--seconds`` scales that number
(at least one stream always runs), so every run at the same
``--seconds`` does the same work however fast the box is that minute.

Timings are taken at the run's *quiet decile*.  On the shared 2-vCPU
boxes this runs on, interference is one-sided: the same loop runs at a
steady floor (+-1.5 %) or, for stretches of 1-30 s, about 1.45x slower,
and how much of a run is slow changes from minute to minute, so means
and medians of a 24 s run move by 10-30 % between runs while the floor
does not.  The per-round samples of all the run's streams are pooled
and the nearest-rank 10th percentile is reported (the minimum, below
eleven samples); ``metrics.py`` has the exact definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench import compare
from bench.metrics import END_TO_END, PER_LAYER, percentile, tail_percentile
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TMP = ROOT / ".bench_tmp"
DEFAULT_SEED = "atom-bench-1"
DEFAULT_SECONDS = 24
#: a stream takes 5-26 s here; the driver allows a whole run 180 s
STREAM_TIMEOUT_S = 150
#: set-up-only children per timed run, so that with the run's streams
#: setup_s is the median of at least three set-ups
SETUP_SAMPLES = 2


def spawn_stream(
    workload: str, seed: str, traced: bool, setup_only: bool = False
) -> Dict:
    """Run one stream in a fresh child (its own process group, so a
    hung child and its serve processes can be killed together)."""
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP))
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    child = subprocess.Popen(
        [
            sys.executable, "-m", "bench.stream",
            "--workload", workload, "--seed", seed,
            "--traced", str(int(traced)),
            "--tmp", str(tmp), "--out", str(tmp / "result.json"),
            "--spawned-at", repr(time.perf_counter()),
            *(["--setup-only"] if setup_only else []),
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=STREAM_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(
                f"stream {workload} exited {child.returncode}:\n{output[-4000:]}"
            )
        return json.loads((tmp / "result.json").read_text())
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the usual case: the child and its fleet are gone
        child.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def run_streams(workload: str, seed: str, seconds: float, traced: bool) -> List[Dict]:
    count = max(1, round(WORKLOADS[workload].streams * seconds / DEFAULT_SECONDS))
    return [spawn_stream(workload, seed, traced) for _ in range(count)]


def _pooled(streams: List[Dict], key: str) -> List[float]:
    return [sample for stream in streams for sample in stream[key]]


def quiet(samples: List[float]) -> float:
    """The quiet decile of a run's timing samples (module docstring)."""
    return percentile(samples, 10.0)


def end_to_end(streams: List[Dict], setups: Sequence[Dict] = ()) -> Dict[str, float]:
    """The end-to-end metrics of a run's untraced streams (plus its
    set-up-only children, which only add set-up samples)."""
    return {
        "setup_s": statistics.median(
            s["setup_s"] for s in [*streams, *setups]
        ),
        "msgs_per_s": streams[0]["users"] / quiet(_pooled(streams, "round_gaps_s")),
        "round_latency_s": quiet(_pooled(streams, "round_latencies_s")),
        "cpu_s_per_msg": quiet([s["cpu_s_per_msg"] for s in streams]),
        "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in streams),
    }


def per_layer(
    reference: List[Dict], traced: List[Dict], base: Optional[Dict] = None
) -> Dict[str, float]:
    """The per-layer metrics of a traced run: span-derived numbers from
    the traced streams, pipeline numbers and the latency tail from the
    untraced reference streams, and — given ``base``, an untraced
    ``trap_p256_inproc`` stream of the same seed — the scale-out ratio."""
    values = {
        name: statistics.median(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    for name in reference[0]["layers"]:
        values[name] = statistics.median(s["layers"][name] for s in reference)
    latencies = _pooled(reference, "round_latencies_s")
    tail = tail_percentile(len(latencies))
    rate = end_to_end(reference)["msgs_per_s"]
    values.update({
        "core.pipeline.round_latency_tail_s": percentile(latencies, tail),
        "core.pipeline.round_latency_tail_pct": tail,
        "trace.overhead_ratio": end_to_end(traced)["msgs_per_s"] / rate,
        "fleet.scaleout_ratio":
            rate / end_to_end([base])["msgs_per_s"] if base else 0.0,
    })
    return values


def measure(workload: str, seed: str, seconds: float, trace: int) -> Dict:
    """One run: the contract's result object for one workload."""
    streams = run_streams(workload, seed, seconds, traced=False)
    if trace == 0:
        setups = [
            spawn_stream(workload, seed, traced=False, setup_only=True)
            for _ in range(SETUP_SAMPLES)
        ]
        catalogue, values = END_TO_END, end_to_end(streams, setups)
    else:
        traced = run_streams(workload, seed, seconds, traced=True)
        # the fleet workload carries trap_p256_inproc's stream: one
        # untraced run of that is the base of the scale-out ratio
        base = (
            spawn_stream("trap_p256_inproc", seed, traced=False)
            if workload == "trap_p256_fleet2" else None
        )
        catalogue, values = PER_LAYER, per_layer(streams, traced, base)
        streams = streams + traced + ([base] if base else [])
    return {
        # one digest: every stream delivered the same, correct payloads
        # (traced == timed, fleet == in-process)
        "correct": all(s["correct"] for s in streams)
        and len({s["digest"] for s in streams}) == 1,
        "attempted": sum(s["attempted"] for s in streams),
        "failed": sum(s["failed"] for s in streams),
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue
        },
    }


def host_block() -> Dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
            # never look for a repository above the checkout
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", help="write every run's result here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    host = host_block()
    runs = []
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        for repeat in range(args.repeats):
            for trace in (0, 1) if args.trace is None else (args.trace,):
                run = measure(workload, args.seed, args.seconds, trace)
                for name, metric in run["metrics"].items():
                    print(f"{workload:18s} {name:40s} "
                          f"{metric['value']:14.6g} {metric['unit']}")
                print(f"{workload:18s} attempted={run['attempted']} "
                      f"failed={run['failed']} correct={run['correct']}")
                runs.append(
                    {"workload": workload, "repeat": repeat, "trace": trace, **run}
                )
    if args.out:
        Path(args.out).write_text(json.dumps({
            "host": host, "seed": args.seed, "seconds": args.seconds,
            "runs": runs,
        }, indent=1))
    if len(runs) == 1:
        summary = {k: runs[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {
                f"{run['workload']}/{name}#{run['repeat']}": metric
                for run in runs for name, metric in run["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
