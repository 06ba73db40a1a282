"""Every handler in ``src/`` that catches ``Exception`` is pinned here by
file and enclosing function, so a new swallowed error fails the build.
Narrow a new one to the exceptions the handler can act on, or add it
below with the reason it has to be broad.  ``except BaseException``
must re-raise, and a bare ``except:`` is never allowed."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: (file under src/, enclosing function) -> its ``except Exception`` handlers
ALLOWED = {
    # a sealed box that is a dummy or someone else's call fails to open
    ("repro/apps/dialing.py", "DialingService.receive"): 1,
    ("repro/scenarios/runner.py", "ScenarioRunner.receive"): 1,
    # the baseline drops malformed onions (noise from earlier hops)
    ("repro/baselines/vuvuzela.py", "VuvuzelaChain.run_round"): 1,
    # CLI boundaries: report and exit non-zero
    ("repro/fleet/server.py", "FleetServer.serve_forever"): 1,
    # both clean up the failed layer and re-raise
    ("repro/net/coordinator.py", "Coordinator.run_layer"): 2,
    # the accept loop answers any handler failure with a FAULT, logged
    ("repro/net/framing.py", "_serve_connection"): 1,
}


def _handlers():
    """``(file, enclosing function, handler)`` for every except clause."""
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                if isinstance(child, ast.ExceptHandler):
                    yield name, ".".join(scope), child
                yield from walk(child, inner)

        yield from walk(ast.parse(path.read_text(), str(path)), ())


def _catches(handler, name):
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(k, ast.Name) and k.id == name for k in kinds)


def test_broad_except_sites_are_the_pinned_allowlist():
    sites = Counter(
        (path, scope)
        for path, scope, handler in _handlers()
        if handler.type is not None and _catches(handler, "Exception")
    )
    assert dict(sites) == ALLOWED
    assert sum(ALLOWED.values()) == 7


def test_no_bare_except_and_base_exception_reraises():
    for path, scope, handler in _handlers():
        assert handler.type is not None, f"bare except in {path}:{scope}"
        if _catches(handler, "BaseException"):
            last = handler.body[-1]
            assert isinstance(last, ast.Raise) and last.exc is None, (
                f"except BaseException must re-raise in {path}:{scope}"
            )
