"""Server-side spans for the fleet workload without touching ``src/``.

:class:`TracedFleetController` overrides the controller's ``_command``
spawn hook so each fleet member runs this module instead of
``repro.cli serve``: it installs the same wrappers as the stream child,
runs the stock serve loop, and — once SIGTERM / FLEET_SHUTDOWN has
drained it — dumps its spans and ``getrusage`` next to its log.  The
timed runs use the stock ``FleetController``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import List

from repro.fleet.controller import FleetController


class TracedFleetController(FleetController):
    def _command(self, spec) -> List[str]:
        return [
            sys.executable, "-m", "bench.serve_traced",
            "--plan", str(self.plan.path),
            "--name", spec.name,
            "--dump", str(self.runtime_dir / f"{spec.name}.trace.json"),
        ]


def main(argv=None) -> int:
    from bench import layers
    from bench.trace import Tracer, export_spans
    from repro import cli

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    layers.install(tracer)
    try:
        code = cli.main(["serve", "--plan", args.plan, "--name", args.name])
    finally:
        tracer.uninstall()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        Path(args.dump).write_text(json.dumps({
            "spans": export_spans(tracer.spans),
            "rusage": {
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mib": usage.ru_maxrss / 1024.0,
            },
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
