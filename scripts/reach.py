#!/usr/bin/env python3
"""reach: list the functions in ``src/`` that no production path runs.

Runs, one process at a time, every ``repro`` CLI subcommand (``store``
and ``fleet`` included), the examples, the persist / chaos / fleet /
store / scenario smokes and the four bench workloads at ``--seconds
8``, with ``scripts/reach_hook`` first on ``PYTHONPATH``.  Its
``sitecustomize`` records every function under ``src/`` that any of
those processes (serve and bench children too) entered.  Then it
prints the functions that none entered, largest first, and the
never-run function lines per package.

A function nested in a never-run function is counted inside it and
not listed again.  Function lines run from the first decorator to the
last line of the body; the total counts functions not nested in
another function (methods included).

Everything runs in a temporary directory (``TMPDIR`` points there
too), which is removed at the end; every step runs in its own process
group, and every group is killed before ``reach`` exits.  Takes
~8 min on two cores.

Run:  make reach          (or: python scripts/reach.py)
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HOOK = ROOT / "scripts" / "reach_hook"
ENV = "REPRO_REACH_DIR"
#: no single step takes this long unless it hangs
STEP_TIMEOUT_S = 900

Key = Tuple[str, int]  # (path under src/, first line)


@dataclass
class Step:
    """One child process; ``{tmp}`` in ``argv`` is the work dir."""

    label: str
    argv: Sequence[str]
    #: its processes must outlive it (a fleet that later steps drive)
    keep: bool = False


def cli(label: str, *args: str, keep: bool = False) -> Step:
    return Step(label, (sys.executable, "-m", "repro.cli", *args), keep=keep)


def script(label: str, path: str) -> Step:
    return Step(label, (sys.executable, str(ROOT / path)))


#: SIGKILL fleet member p1, so ``fleet replace`` restores a dead
#: process from its shipped journal
KILL_P1 = """\
import json, os, signal, sys
pids = json.load(open(sys.argv[1] + "/fleet-run/fleet.json"))
os.kill(pids["p1"], signal.SIGKILL)
"""


#: a saved two-process plan (free loopback ports picked as it is written)
PLAN = """\
import socket, sys
from repro.core import DeploymentConfig
from repro.fleet.plan import DeploymentPlan
socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]
ports = [s.getsockname()[1] for s in socks]
for s in socks:
    s.close()
config = DeploymentConfig(num_servers=8, num_groups=2, group_size=4, h=2,
    mode="manytrust", variant="trap", iterations=3, message_size=8,
    crypto_group="TOY", nizk_rounds=4)
tmp = sys.argv[1]
DeploymentPlan.build(
    config, 2, ports=ports, state_root=tmp + "/fleet-state"
).save(tmp + "/plan.json")
"""


def steps() -> List[Step]:
    """Every production entry point, cheapest shape that reaches it."""
    net = "*:drop:2%;*:delay:20:10%;*:dup:1%"
    fleet = ("--plan", "{tmp}/plan.json", "--runtime-dir", "{tmp}/fleet-run")
    bench = [
        Step(
            f"bench {w}",
            (sys.executable, "-m", "bench.run", "--workload", w,
             "--seconds", "8"),
        )
        for w in ("trap_p256_inproc", "nizk_p256_inproc",
                  "trap_p256_fleet2", "ctl_toy_tcp_wal")
    ]
    return [
        cli("list-groups", "list-groups"),
        cli("list-transports", "list-transports"),
        cli("group-size", "group-size"),
        cli("group-size many-trust", "group-size", "--h", "2"),
        cli("costs", "costs"),
        cli("simulate", "simulate"),
        cli("simulate dialing nizk", "simulate", "--application", "dialing",
            "--variant", "nizk"),
        cli("simulate basic", "simulate", "--variant", "basic"),
        cli("round basic", "round", "--variant", "basic"),
        cli("round nizk", "round", "--variant", "nizk", "--group", "p256",
            "--users", "4", "--iterations", "2"),
        cli("round trap", "round", "--variant", "trap", "--seed", "reach"),
        cli("round p256", "round", "--group", "p256", "--users", "4",
            "--iterations", "2"),
        cli("round tcp p256", "round", "--transport", "tcp", "--group",
            "p256", "--users", "4", "--groups", "2", "--iterations", "3"),
        cli("round tcp chaos heartbeat", "round", "--transport", "tcp",
            "--net-faults", net, "--heartbeat", "--rpc-timeout", "10"),
        cli("round durable", "round", "--group", "p256", "--users", "4",
            "--iterations", "2", "--seed", "smoke", "--state-dir",
            "{tmp}/round-state"),
        cli("resume clean", "resume", "--state-dir", "{tmp}/round-state"),
        cli("run-stream manytrust", "run-stream", "--rounds", "9"),
        cli("run-stream anytrust", "run-stream", "--rounds", "3", "--mode",
            "anytrust", "--h", "1", "--fault-schedule", ""),
        cli("run-stream p256", "run-stream", "--rounds", "3", "--group",
            "p256"),
        cli("run-stream durable", "run-stream", "--rounds", "4",
            "--fault-schedule", "", "--state-dir", "{tmp}/stream-state",
            "--wal-segment-records", "8", "--wal-retain-segments", "1"),
        cli("store info", "store", "info", "--state-dir",
            "{tmp}/stream-state"),
        cli("store compact", "store", "compact", "--state-dir",
            "{tmp}/stream-state"),
        cli("resume finished", "resume", "--state-dir", "{tmp}/stream-state"),
        cli("scenario list", "scenario", "list"),
        cli("scenario describe", "scenario", "describe", "diurnal"),
        cli("scenario run steady", "scenario", "run", "steady", "--json",
            "{tmp}/steady.json", "--state-dir", "{tmp}/scenario-state"),
        Step("fleet plan", (sys.executable, "-c", PLAN, "{tmp}")),
        cli("fleet up", "fleet", "up", *fleet, keep=True),
        cli("fleet status", "fleet", "status", *fleet),
        cli("fleet roll", "fleet", "roll", *fleet, keep=True),
        Step("fleet kill p1", (sys.executable, "-c", KILL_P1, "{tmp}")),
        cli("fleet replace", "fleet", "replace", "--name", "p1", *fleet,
            keep=True),
        cli("store info fleet", "store", "info", "--fleet", "--state-dir",
            "{tmp}/fleet-state/p0"),
        cli("fleet down", "fleet", "down", *fleet),
        cli("store compact fleet", "store", "compact", "--fleet",
            "--state-dir", "{tmp}/fleet-state/p0"),
        cli("fleet status down", "fleet", "status", *fleet),
        cli("scenario smoke", "scenario", "run", "black-friday-tamper-churn",
            "--seed", "atom-rpc", "--transport", "tcp"),
        script("persist smoke", "scripts/persist_smoke.py"),
        script("chaos smoke", "scripts/chaos_smoke.py"),
        script("fleet smoke", "scripts/fleet_smoke.py"),
        script("store smoke", "scripts/store_smoke.py"),
        *(script(f"example {p.stem}", f"examples/{p.name}")
          for p in sorted((ROOT / "examples").glob("*.py"))),
        *bench,
    ]


# -- collection --------------------------------------------------------


@dataclass
class Collection:
    reached: Set[Key] = field(default_factory=set)
    pgids: List[int] = field(default_factory=list)


def _env(tmp: Path, out: Path) -> Dict[str, str]:
    paths = [str(HOOK), str(SRC), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(paths),
        TMPDIR=str(tmp),
        **{ENV: str(out)},
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_steps(
    todo: Sequence[Step], tmp: Path, log=print
) -> Collection:
    """Run ``todo`` in order under the hook; return what they reached.
    A step that exits non-zero stops the pass: a list from a partial
    run would condemn code that only the failed step reaches."""
    out = tmp / "reach-records"
    out.mkdir()
    env = _env(tmp, out)
    result = Collection()
    try:
        for step in todo:
            start = time.monotonic()
            argv = [a.replace("{tmp}", str(tmp)) for a in step.argv]
            with open(tmp / "step.log", "w") as sink:
                child = subprocess.Popen(
                    argv, cwd=tmp, env=env, stdout=sink,
                    stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                    start_new_session=True,
                )
                result.pgids.append(child.pid)
                try:
                    code = child.wait(timeout=STEP_TIMEOUT_S)
                finally:
                    if not step.keep:
                        _kill_group(child.pid)
                    child.wait()
            log(f"[reach] {step.label}: exit {code}, "
                f"{time.monotonic() - start:.1f}s")
            if code != 0:
                tail = (tmp / "step.log").read_text(errors="replace")
                raise RuntimeError(
                    f"step {step.label!r} exited {code}:\n{tail[-3000:]}"
                )
    finally:
        for pgid in result.pgids:
            _kill_group(pgid)
    for record in sorted(out.glob("*.reach")):
        for line in record.read_text().splitlines():
            path, _, first = line.rpartition(":")
            result.reached.add((path, int(first)))
    return result


# -- analysis ----------------------------------------------------------


@dataclass
class Func:
    path: str  # under src/
    first: int  # first decorator, as co_firstlineno counts it
    last: int
    name: str  # Class.method, outer.inner
    parent: Optional["Func"]

    @property
    def key(self) -> Key:
        return (self.path, self.first)

    @property
    def lines(self) -> int:
        return self.last - self.first + 1

    @property
    def package(self) -> str:
        parts = self.path.split("/")
        return parts[1] + "/" if len(parts) > 2 else parts[-1]


def functions(src: Path = SRC) -> List[Func]:
    """Every ``def`` under ``src/``, in file order."""
    found: List[Func] = []

    def walk(node, prefix: str, parent: Optional[Func], path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                func = Func(path, first, child.end_lineno,
                            prefix + child.name, parent)
                found.append(func)
                walk(child, func.name + ".", func, path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", parent, path)
            else:
                walk(child, prefix, parent, path)

    for file in sorted(src.rglob("*.py")):
        path = file.relative_to(src).as_posix()
        walk(ast.parse(file.read_text(), str(file)), "", None, path)
    return found


def never_run(funcs: Sequence[Func], reached: Set[Key]) -> List[Func]:
    """Never-entered functions whose enclosing function (if any) ran,
    largest first."""
    missed = [
        f for f in funcs
        if f.key not in reached
        and (f.parent is None or f.parent.key in reached)
    ]
    return sorted(missed, key=lambda f: (-f.lines, f.path, f.first))


def report(funcs: Sequence[Func], reached: Set[Key], runs: int) -> str:
    missed = never_run(funcs, reached)
    total: Dict[str, int] = defaultdict(int)
    dead: Dict[str, int] = defaultdict(int)
    for f in funcs:
        if f.parent is None:
            total[f.package] += f.lines
    for f in missed:
        dead[f.package] += f.lines
    lines = [
        f"reach: {runs} runs; {sum(dead.values())} of {sum(total.values())} "
        "function lines in src/ never ran",
        "",
        "never-run functions, largest first:",
        "  lines  function",
    ]
    lines += [f"  {f.lines:5d}  {f.path}:{f.first}  {f.name}" for f in missed]
    lines += ["", "per package (never-run / function lines):"]
    for pkg in sorted(total, key=lambda p: (-dead[p], p)):
        lines.append(f"  {pkg:20s} {dead[pkg]:5d} / {total[pkg]:5d}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args(argv)
    todo = steps()
    bench_tmp = ROOT / ".bench_tmp"
    had_bench_tmp = bench_tmp.exists()
    tmp = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        collection = run_steps(
            todo, tmp, log=lambda m: print(m, file=sys.stderr, flush=True)
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not had_bench_tmp:
            shutil.rmtree(bench_tmp, ignore_errors=True)
    print(report(functions(), collection.reached, len(todo)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
