"""Command-line interface for the Atom reproduction.

Usage (after ``pip install -e .``):

    python -m repro.cli round --users 8 --groups 2 --variant trap
    python -m repro.cli simulate --servers 1024 --messages 1048576
    python -m repro.cli group-size --f 0.2 --groups 1024 --h 2
    python -m repro.cli costs --cores 4
"""

from __future__ import annotations

import argparse
import sys


def _deployment_config(args: argparse.Namespace, **extra):
    """The DeploymentConfig ``round`` and ``run-stream`` build from the
    flags they share; ``extra`` adds fields only one of them sets."""
    from repro.core import DeploymentConfig

    return DeploymentConfig(
        num_servers=max(args.groups * args.group_size, 2 * args.group_size),
        num_groups=args.groups,
        group_size=args.group_size,
        variant=args.variant,
        iterations=args.iterations,
        message_size=args.message_size,
        crypto_group=args.crypto_group,
        transport=args.transport,
        state_dir=args.state_dir,
        net_faults=args.net_faults or None,
        rpc_timeout=args.rpc_timeout,
        heartbeat=args.heartbeat,
        wal_segment_bytes=args.wal_segment_bytes,
        wal_segment_records=args.wal_segment_records,
        wal_retain_segments=args.wal_retain_segments,
        **extra,
    )


def cmd_round(args: argparse.Namespace) -> int:
    """Run one protocol round: a one-round stream over the selected
    transport."""
    from repro.core import StreamConfig, StreamEngine

    seed = args.seed
    if seed is None:
        # Recovery replays the round's rng draws instead of storing
        # secret keys, so every round is seeded; generate one (it lands
        # in the write-ahead log's rng marks under --state-dir).
        import secrets as _secrets

        seed = _secrets.token_hex(8)
        print(f"(no --seed: using generated seed {seed})")
    try:
        engine = StreamEngine(
            _deployment_config(args),
            stream=StreamConfig(
                rounds=1, users_per_round=args.users, seed=seed.encode()
            ),
        )
    except ValueError as exc:  # bad knob values, --net-faults grammar
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with engine:
        (stats,) = engine.run().rounds
    spec = engine.deployment.spec
    status = "ok" if stats.ok else "ABORTED: " + stats.abort_reasons[-1]
    print(f"round: {status} ({args.transport} transport) "
          f"payload={spec.payload_size}B x {spec.elements_per_message} elements")
    _print_messages(stats.messages)
    return 0 if stats.ok else 1


def _print_messages(messages) -> None:
    """A round's delivered plaintexts as `round` and `resume` print
    them: the count, the first ten, then how many more."""
    print(f"messages out: {len(messages)}")
    for message in messages[:10]:
        print(" ", message)
    if len(messages) > 10:
        print(f"  ... and {len(messages) - 10} more")


#: demo schedule exercising the full robustness surface: a
#: beyond-threshold group stall (buddy recovery), a tampering server
#: (trap catch), and a double-writing malicious user (blame).
DEFAULT_STREAM_FAULTS = (
    "r2.i1:fail-group:0:2;"
    "r5:tamper-group:1:0:replace_one;"
    "r8:user:duplicate_inner@1"
)


def cmd_run_stream(args: argparse.Namespace) -> int:
    """Run a multi-round pipelined stream under a fault schedule."""
    from repro.core import FaultSchedule, StreamConfig, StreamEngine
    from repro.core.pipeline import FaultScheduleError

    try:
        config = _deployment_config(args, mode=args.mode, h=args.h)
        schedule = FaultSchedule.parse(args.fault_schedule)
        if args.variant != "trap" and schedule.has_user_events():
            # User attacks abuse trap submissions; keep the schedule's
            # churn/tampering events when the variant cannot host them.
            schedule.events = [ev for ev in schedule.events if ev.action != "user"]
            print(f"(dropping user-attack events: {args.variant} variant)")
        # Default seed chosen so the demo schedule's round-5 tampering
        # is caught by the traps, on the default group and on p256 (an
        # honest coin otherwise evades w.p. 1/2); the flag itself
        # defaults to None uniformly.
        seed = args.seed if args.seed is not None else "atom-48b"
        engine = StreamEngine(
            config,
            schedule,
            StreamConfig(
                rounds=args.rounds,
                users_per_round=args.users,
                seed=seed.encode(),
            ),
        )
    except (FaultScheduleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if schedule.events:
        print("fault schedule:")
        for event in schedule.events:
            print(f"  {event.describe()}")
    try:
        with engine:
            report = engine.run()
    except FaultScheduleError as exc:
        # e.g. an event addressing a server id that never existed —
        # only resolvable once the fleet is live
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.format_table())
    overlapped = len(report.overlapped_rounds())
    print(
        f"pipelining: intake of round r+1 overlapped round r's mixing in "
        f"{overlapped}/{max(1, len(report.rounds) - 1)} eligible rounds"
    )
    return 0 if report.ok else 1


def cmd_resume(args: argparse.Namespace) -> int:
    """Continue an interrupted run from its ``--state-dir``."""
    from repro.store.recovery import RecoveryError, RecoveryManager
    from repro.store.segments import LogDirError
    from repro.store.wal import WalError

    try:
        manager = RecoveryManager(args.state_dir)
    except (RecoveryError, WalError, LogDirError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"state dir: {manager.describe()}")
    if manager.clean_shutdown:
        print("nothing to resume (clean shutdown marker present)")
        return 0
    settled = manager.settled_rounds
    try:
        report = manager.resume_stream()
    except RecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for stats in report.rounds[settled:]:
        print(f"round {stats.round_id}:")
        _print_messages(stats.messages)
    print(report.format_table())
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Host one fleet process: the ServerNodes of the plan's groups
    behind a loopback TCP listener (see repro.fleet.server)."""
    from repro.fleet.server import run_server

    return run_server(args.plan, args.name)


def cmd_fleet(args: argparse.Namespace) -> int:
    """Operate a fleet: spawn it, probe it, roll it, replace a dead
    member from shipped state, tear it down."""
    from repro.fleet.controller import FleetController, FleetError
    from repro.fleet.plan import DeploymentPlan, PlanError

    try:
        plan = DeploymentPlan.load(args.plan)
        controller = FleetController(plan, runtime_dir=args.runtime_dir)
        if args.action == "up":
            status = controller.up()
            print(status.describe())
        elif args.action == "status":
            print(controller.status().describe())
        elif args.action == "roll":
            controller.roll()
            print(controller.status().describe())
        elif args.action == "replace":
            if not args.name:
                print("error: replace needs --name", file=sys.stderr)
                return 2
            shipped = controller.replace(args.name)
            print(
                f"{args.name}: replaced "
                + (
                    f"from shipped checkpoint bundle ({shipped} live records)"
                    if shipped
                    else "by plain respawn (no state dir to ship from)"
                )
            )
            print(controller.status().describe())
        else:  # down
            controller.down()
            print("fleet: stopped")
    except (OSError, PlanError, FleetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect or compact a state directory's segmented log."""
    from pathlib import Path

    from repro.store.compact import (
        compact_state_dir,
        deployment_liveness,
        fleet_liveness,
    )
    from repro.store.segments import LogDir, LogDirError
    from repro.store.wal import WalError

    root = Path(args.state_dir)
    liveness = deployment_liveness
    if args.fleet:
        # the process journal lives in its own subdirectory
        root, liveness = root / "fleet-log", fleet_liveness
    try:
        if not LogDir.present(root):
            print(f"error: no log under {root}", file=sys.stderr)
            return 2
        if args.action == "info":
            scan = LogDir.scan_dir(root)
        else:
            # compact — single-writer: only safe with the owning process down
            stats = compact_state_dir(root, liveness)
    except (LogDirError, WalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "info":
        print(f"{root}:")
        for name, count in scan.counts:
            size = (root / name).stat().st_size
            print(f"  {name:18s}  {count:7d} records  {size:10,d} bytes")
        state = "clean shutdown" if scan.clean_shutdown else "resumable"
        if scan.truncated:
            state += f", truncated ({scan.reason})"
        print(
            f"  total: {len(scan.records)} records, "
            f"{scan.disk_bytes:,} bytes ({state})"
        )
        return 0
    if stats.ran:
        print(
            f"compacted {root}: dropped {stats.dropped}/{stats.examined} "
            f"sealed records, removed {stats.segments_removed} segments, "
            f"{stats.bytes_before:,} -> {stats.bytes_after:,} bytes"
        )
    else:
        print(
            f"nothing to compact under {root} "
            f"({stats.examined} sealed records, all live)"
        )
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    """Run, describe, or list declarative workload scenarios."""
    from repro.scenarios import (
        ConservationError,
        ScenarioError,
        ScenarioRunner,
        list_bundled,
        load_scenario,
    )

    if args.action == "list":
        for name in list_bundled():
            spec = load_scenario(name)
            print(f"{name:26s}  {spec.rounds} rounds, "
                  f"{spec.traffic.kind} traffic, "
                  f"{spec.traffic.users} users")
            print(f"{'':26s}  {spec.description}")
        return 0
    if not args.scenario:
        print("error: scenario name or file required", file=sys.stderr)
        return 2
    try:
        spec = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "describe":
        print(spec.to_json(), end="")
        return 0
    overrides = {
        key: getattr(args, key)
        for key in ("transport", "state_dir", "crypto_group",
                    "wal_segment_bytes", "wal_segment_records",
                    "wal_retain_segments")
        if getattr(args, key) is not None
    }
    try:
        runner = ScenarioRunner(spec, seed=args.seed, **overrides)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        metrics = runner.run()
    except ConservationError as exc:
        print(f"error: conservation violated: {exc}", file=sys.stderr)
        return 1
    print(metrics.format_table())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(metrics.to_json())
        print(f"report written to {args.json_out}")
    return 0 if metrics.ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run the calibrated performance simulator."""
    from repro.sim import AtomSimulator, SimConfig

    try:
        sim = AtomSimulator(
            SimConfig(
                num_servers=args.servers,
                num_groups=args.servers,
                variant=args.variant,
                application=args.application,
                message_size=160 if args.application == "microblog" else 80,
            )
        )
        result = sim.simulate_round(args.messages)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.messages:,} messages on {args.servers} servers "
          f"({args.variant}, {args.application}):")
    print(f"  total latency: {result.total_minutes:.1f} min "
          f"({result.total_hours:.2f} hr)")
    print(f"  per iteration: {result.per_iteration_s:.1f} s, "
          f"entry {result.entry_s:.1f} s, exit {result.exit_s:.1f} s, "
          f"connection overhead {result.overhead_s:.1f} s")
    print(f"  ciphertexts routed: {result.ciphertexts_routed:,}")
    print(f"  per-server bandwidth: "
          f"{result.per_server_bandwidth_bytes_s / 1e6:.2f} MB/s")
    return 0


def cmd_group_size(args: argparse.Namespace) -> int:
    """Group-size math (§4.1 / Appendix B)."""
    from repro.analysis.groups_math import (
        manytrust_failure_probability,
        minimum_group_size,
    )

    try:
        k = minimum_group_size(args.f, args.groups, args.h, args.security)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prob = manytrust_failure_probability(k, args.f, args.h, args.groups)
    print(f"f={args.f}, G={args.groups}, h={args.h}, target 2^-{args.security}:")
    print(f"  required group size k = {k} (failure probability {prob:.2e})")
    print(f"  active servers per iteration: k-(h-1) = {k - (args.h - 1)}")
    return 0


def cmd_list_groups(args: argparse.Namespace) -> int:
    """List the groups and their element sizes."""
    from repro.crypto.groups import available_groups, get_group

    print(f"{'name':10s}  {'element':>7s}  {'scalar':>6s}  {'payload':>7s}")
    for name in available_groups():
        group = get_group(name)
        scalar_bytes = (group.q.bit_length() + 7) // 8
        print(
            f"{name:10s}  {group.element_bytes:6d}B  {scalar_bytes:5d}B  "
            f"{group.params.message_bytes:6d}B"
        )
    return 0


def cmd_list_transports(args: argparse.Namespace) -> int:
    """List transports (the `--transport` choices of `round` and
    `run-stream`)."""
    from repro.net.transport import TRANSPORTS

    descriptions = {
        "inproc": "zero-copy in-process dispatch (default)",
        "tcp": "every node behind one loopback TCP socket",
        "fleet": "groups hosted by separate OS processes "
                 "(DeploymentConfig.fleet_plan; `repro fleet up`)",
    }
    print("transports (--transport):")
    for name in TRANSPORTS + ("fleet",):
        print(f"  {name:8s}  {descriptions.get(name, '')}")
    return 0


def cmd_costs(args: argparse.Namespace) -> int:
    """§7 deployment cost estimate."""
    from repro.analysis.costs import estimate_server_cost

    try:
        est = estimate_server_cost(args.cores)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.cores}-core trap-variant server (§7 estimates):")
    print(f"  reencryption: {est.reencrypt_msgs_per_s:,.0f} msgs/s")
    print(f"  shuffling:    {est.shuffle_msgs_per_s:,.0f} msgs/s")
    print(f"  bandwidth:    {est.bandwidth_bytes_per_s / 1e3:.0f} KB/s")
    print(f"  compute:      ${est.compute_usd_month:,.0f}/month")
    print(f"  bandwidth:    ${est.bandwidth_usd_month:,.2f}/month")
    print(f"  total:        ${est.total_usd_month:,.2f}/month")
    return 0


#: single source of truth for the flag wording shared across
#: subcommands (`round`, `run-stream`, `resume`): keep `repro <cmd>
#: --help` saying the same thing everywhere
_STATE_DIR_HELP = (
    "directory for the durable state store (write-ahead log + "
    "checkpoints); an interrupted run continues with "
    "`repro resume --state-dir DIR`"
)
_SEED_HELP = (
    "deterministic rng seed (required for crash recovery; `round` "
    "generates one when omitted, `run-stream` falls back to its demo "
    "seed)"
)


def build_parser() -> argparse.ArgumentParser:
    from repro.crypto.groups import available_groups
    from repro.net.transport import TRANSPORTS

    parser = argparse.ArgumentParser(
        prog="repro", description="Atom (SOSP 2017) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One parent parser for every deployment-shaped command, so
    # --seed/--group/--transport/--state-dir are spelled, defaulted,
    # and documented identically on `round` and `run-stream`.
    deploy = argparse.ArgumentParser(add_help=False)
    deploy.add_argument(
        "--group",
        "--crypto-group",
        dest="crypto_group",
        type=str.upper,
        choices=available_groups(),
        default="TOY",
        help="crypto group (see `repro list-groups`)",
    )
    deploy.add_argument(
        "--transport",
        choices=list(TRANSPORTS),
        default="inproc",
        help="how nodes exchange envelopes: zero-copy in-process "
        "dispatch, or each node behind a loopback TCP socket "
        "(see `repro list-transports`)",
    )
    deploy.add_argument("--state-dir", default=None, help=_STATE_DIR_HELP)
    deploy.add_argument("--seed", default=None, help=_SEED_HELP)
    deploy.add_argument(
        "--wal-segment-bytes",
        type=int,
        default=8 * 1024 * 1024,
        metavar="BYTES",
        help="rotate the write-ahead log into a new segment file past "
        "this size (0: never by size) — bounds any single wal-*.seg",
    )
    deploy.add_argument(
        "--wal-segment-records",
        type=int,
        default=0,
        metavar="N",
        help="... or past this many records (0: never by count); small "
        "values force rotation on short streams",
    )
    deploy.add_argument(
        "--wal-retain-segments",
        type=int,
        default=4,
        metavar="N",
        help="compact once more than N sealed segments have piled up "
        "(0: never auto-compact) — bounds the state dir to roughly "
        "(N+2) segments plus the live suffix",
    )

    def add_net_args(p):
        p.add_argument(
            "--net-faults",
            default=None,
            metavar="PLAN",
            help="seed-deterministic network fault plan, e.g. "
            "'*:drop:2%%;*:delay:20:10%%;mix_batch:reorder:50%%' "
            "(see repro.net.chaos for the grammar)",
        )
        p.add_argument(
            "--rpc-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="base RPC deadline (mixing RPCs get 4x; default 30)",
        )
        p.add_argument(
            "--heartbeat",
            action="store_true",
            help="probe groups with PING before each mixing layer and "
            "surface sustained silence as GroupStalled (buddy recovery)",
        )

    p_round = sub.add_parser(
        "round", parents=[deploy], help="run a real protocol round"
    )
    p_round.add_argument("--users", type=int, default=8)
    p_round.add_argument("--groups", type=int, default=2)
    p_round.add_argument("--group-size", type=int, default=3)
    p_round.add_argument("--variant", choices=["basic", "nizk", "trap"], default="trap")
    p_round.add_argument("--iterations", type=int, default=4)
    p_round.add_argument("--message-size", type=int, default=24)
    add_net_args(p_round)
    p_round.set_defaults(func=cmd_round)

    p_stream = sub.add_parser(
        "run-stream",
        parents=[deploy],
        help="run N consecutive pipelined rounds under a fault schedule",
    )
    p_stream.add_argument("--rounds", type=int, default=20)
    p_stream.add_argument("--users", type=int, default=4)
    p_stream.add_argument("--groups", type=int, default=2)
    p_stream.add_argument("--group-size", type=int, default=4)
    p_stream.add_argument("--h", type=int, default=2)
    p_stream.add_argument("--mode", choices=["anytrust", "manytrust"], default="manytrust")
    p_stream.add_argument("--variant", choices=["basic", "nizk", "trap"], default="trap")
    p_stream.add_argument("--iterations", type=int, default=4)
    p_stream.add_argument("--message-size", type=int, default=24)
    p_stream.add_argument(
        "--fault-schedule",
        default=DEFAULT_STREAM_FAULTS,
        help="semicolon-separated fault events "
        "(e.g. 'r2.i1:fail-group:0:2;r5:tamper-group:1:0:replace_one;"
        "r8:user:duplicate_inner@1'); pass '' for a fault-free stream",
    )
    add_net_args(p_stream)
    p_stream.set_defaults(func=cmd_run_stream)

    p_resume = sub.add_parser(
        "resume",
        help="continue an interrupted stream from its state dir",
    )
    p_resume.add_argument("--state-dir", required=True, help=_STATE_DIR_HELP)
    p_resume.set_defaults(func=cmd_resume)

    p_serve = sub.add_parser(
        "serve",
        help="host one fleet process (spawned by `repro fleet up`)",
    )
    p_serve.add_argument(
        "--plan", required=True, help="path to a saved DeploymentPlan"
    )
    p_serve.add_argument(
        "--name", required=True, help="this process's name in the plan"
    )
    p_serve.set_defaults(func=cmd_serve)

    p_fleet = sub.add_parser(
        "fleet",
        help="operate a multi-process fleet from a deployment plan",
    )
    p_fleet.add_argument(
        "action",
        choices=["up", "status", "roll", "replace", "down"],
        help="up: spawn + readiness-gate; status: probe; "
        "roll: rolling restart; replace: restore one (dead) process "
        "from a shipped checkpoint bundle (--name); down: terminate",
    )
    p_fleet.add_argument(
        "--plan", required=True, help="path to a saved DeploymentPlan"
    )
    p_fleet.add_argument(
        "--runtime-dir",
        default=None,
        help="where pids and per-process logs live "
        "(default: <plan dir>/fleet-run)",
    )
    p_fleet.add_argument(
        "--name",
        default=None,
        help="plan name of the process to replace",
    )
    p_fleet.set_defaults(func=cmd_fleet)

    p_store = sub.add_parser(
        "store",
        help="inspect or compact a state dir's segmented write-ahead log",
    )
    p_store.add_argument(
        "action",
        choices=["info", "compact"],
        help="info: list segments/records and shutdown state; compact: "
        "rewrite sealed segments down to the live suffix (run only "
        "with the owning process stopped)",
    )
    p_store.add_argument(
        "--state-dir", required=True, help=_STATE_DIR_HELP
    )
    p_store.add_argument(
        "--fleet",
        action="store_true",
        help="operate on a fleet process's intake journal "
        "(<state-dir>/fleet-log) instead of a deployment store",
    )
    p_store.set_defaults(func=cmd_store)

    p_scn = sub.add_parser(
        "scenario",
        help="declarative workload scenarios driving the real apps "
        "(traffic model x faults x chaos x deployment, one file)",
    )
    p_scn.add_argument(
        "action",
        choices=["run", "describe", "list"],
        help="run: execute and report; describe: print the canonical "
        "spec; list: show the bundled scenarios",
    )
    p_scn.add_argument(
        "scenario",
        nargs="?",
        help="bundled scenario name (see `repro scenario list`) or a "
        "scenario file path",
    )
    p_scn.add_argument(
        "--seed", default=None,
        help="override the spec's rng seed (the whole run — traffic, "
        "keys, mixing, chaos — is a function of it)",
    )
    p_scn.add_argument(
        "--transport", choices=list(TRANSPORTS) + ["fleet"], default=None,
        help="override the spec's transport",
    )
    p_scn.add_argument(
        "--group", "--crypto-group", dest="crypto_group", type=str.upper,
        choices=available_groups(), default=None,
        help="override the spec's group backend",
    )
    p_scn.add_argument("--state-dir", default=None, help=_STATE_DIR_HELP)
    p_scn.add_argument(
        "--wal-segment-bytes", type=int, default=None, metavar="BYTES",
        help="override the spec's WAL segment size threshold",
    )
    p_scn.add_argument(
        "--wal-segment-records", type=int, default=None, metavar="N",
        help="override the spec's WAL segment record threshold",
    )
    p_scn.add_argument(
        "--wal-retain-segments", type=int, default=None, metavar="N",
        help="override the spec's sealed-segment retention bound",
    )
    p_scn.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="also write the machine-readable ScenarioMetrics report",
    )
    p_scn.set_defaults(func=cmd_scenario)

    p_sim = sub.add_parser("simulate", help="run the performance simulator")
    p_sim.add_argument("--servers", type=int, default=1024)
    p_sim.add_argument("--messages", type=int, default=2 ** 20)
    p_sim.add_argument("--variant", choices=["basic", "nizk", "trap"], default="trap")
    p_sim.add_argument(
        "--application", choices=["microblog", "dialing"], default="microblog"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_groups = sub.add_parser(
        "list-groups", help="list the crypto groups and their sizes"
    )
    p_groups.set_defaults(func=cmd_list_groups)

    p_transports = sub.add_parser(
        "list-transports",
        help="list transports (round/run-stream knobs)",
    )
    p_transports.set_defaults(func=cmd_list_transports)

    p_gs = sub.add_parser("group-size", help="anytrust/many-trust group sizing")
    p_gs.add_argument("--f", type=float, default=0.2)
    p_gs.add_argument("--groups", type=int, default=1024)
    p_gs.add_argument("--h", type=int, default=1)
    p_gs.add_argument("--security", type=int, default=64)
    p_gs.set_defaults(func=cmd_group_size)

    p_costs = sub.add_parser("costs", help="deployment cost estimate (§7)")
    p_costs.add_argument("--cores", type=int, default=4)
    p_costs.set_defaults(func=cmd_costs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
