"""``scripts/reach.py`` on one short child: the hook on ``PYTHONPATH``
records what the child entered, and the report lists what it did not.

The full pass (``make reach``) takes ~8 min and is not tier-1; this
runs its collector on ``repro list-transports`` alone."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module  # its dataclasses resolve names there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules["reach"]


def test_one_child_is_recorded_and_reaped(reach, tmp_path):
    step = reach.cli("list-transports", "list-transports")
    collection = reach.run_steps([step], tmp_path, log=lambda line: None)

    funcs = {(f.path, f.name): f for f in reach.functions()}
    ran = funcs[("repro/cli.py", "cmd_list_transports")]
    never = funcs[("repro/cli.py", "cmd_fleet")]
    assert ran.key in collection.reached
    assert never.key not in collection.reached

    listed = reach.never_run(list(funcs.values()), collection.reached)
    assert never in listed and ran not in listed
    report = reach.report(list(funcs.values()), collection.reached, runs=1)
    assert f"repro/cli.py:{never.first}  cmd_fleet" in report
    assert "cmd_list_transports" not in report

    (pgid,) = collection.pgids
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)  # the child and its process group are gone


def test_nested_functions_count_inside_a_never_run_parent(reach):
    funcs = reach.functions()
    nested = [f for f in funcs if f.parent is not None]
    assert nested, "src/ has closures"
    child = nested[0]
    listed = reach.never_run(funcs, reached=set())
    assert child not in listed
    top = child.parent
    while top.parent is not None:
        top = top.parent
    assert top in listed
