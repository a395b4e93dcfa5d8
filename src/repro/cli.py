"""Command-line interface for the co-design flow and the experiments.

Examples
--------
Run the full co-design flow on PYNQ-Z1::

    repro-codesign codesign --device pynq-z1 --fps 10 15 20

Run the DNN search step with a pluggable exploration strategy and an
archivable journal::

    repro-codesign search --strategy evolutionary --journal out.json

Fan a device x strategy x latency-target sweep out across worker processes
with a persistent evaluation cache and a comparison report::

    repro-codesign sweep --devices pynq-z1,ultra96 --strategies scd,random \
        --workers 4 --cache-dir .sweep-cache --report sweep.json \
        --timeout-s 300 --retries 1

Resume a sweep that died mid-run (only the failed / missing grid cells
re-execute; checkpointed outcomes are reused verbatim)::

    repro-codesign sweep --devices pynq-z1,ultra96 --strategies scd,random \
        --workers 4 --cache-dir .sweep-cache --resume

Distribute a sweep across machines (coordinator owns the grid and the
checkpoint; workers connect from anywhere)::

    repro-codesign shard coordinator --bind 0.0.0.0:8765 \
        --devices pynq-z1,ultra96 --strategies scd,random \
        --cache-dir .sweep-cache --report sweep.json
    repro-codesign shard worker --connect coordinator-host:8765 --workers 4

Diff two saved sweep runs (result/report JSON or _checkpoint.jsonl)::

    repro-codesign compare --diff old-sweep.json new-sweep.json

Inspect or garbage-collect a persistent sweep cache::

    repro-codesign cache stats --cache-dir .sweep-cache
    repro-codesign cache gc --cache-dir .sweep-cache --max-age-days 30 --max-size-mb 64

Regenerate a specific paper artefact::

    repro-codesign experiment table2
    repro-codesign experiment fig4

Generate the accelerator C code for a reference design::

    repro-codesign codegen --design DNN1 --output ./generated
"""

from __future__ import annotations

import argparse
import os
import sys

import repro.telemetry as telemetry
from repro.backend import resolve_targets
from repro.core import CoDesignFlow, CoDesignInputs, LatencyTarget
from repro.core.auto_hls import AutoHLS
from repro.detection.task import DAC_SDC_TASK
from repro.hw.device import get_device, list_devices
from repro.search import SearchSession, available_strategies
from repro.utils.logging import configure_logging


# ------------------------------------------------------ argument validation
# argparse ``type=`` callables: a bad value dies as a clear two-line usage
# error at the parser, instead of a traceback deep inside the runner (or,
# worse, after worker processes already spawned).
def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _existing_path(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: '{text}'")
    return text


def _existing_checkpoint(text: str) -> str:
    if os.path.splitext(_existing_path(text))[1] != ".jsonl":
        raise argparse.ArgumentTypeError(
            f"'{text}' is not a checkpoint: resume from a _checkpoint.jsonl "
            "(compare --diff reads result JSON)"
        )
    return text


def _existing_dir(text: str) -> str:
    if not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"no such directory: '{text}'")
    return text


def _device_name(text: str) -> str:
    try:
        get_device(text)
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown device '{text}'; available: {', '.join(list_devices())}"
        ) from None
    return text


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got '{text}'") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got '{text}'") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {value}")
    return value


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    """Search-budget arguments shared by codesign / search / sweep."""
    parser.add_argument("--fps", type=_positive_float, nargs="+",
                        default=[10.0, 15.0, 20.0],
                        help="latency targets in frames per second")
    parser.add_argument("--tolerance-ms", type=_positive_float, default=8.0,
                        help="latency tolerance band")
    parser.add_argument("--top-bundles", type=_positive_int, default=5,
                        help="number of bundles to select")
    parser.add_argument("--candidates", type=_positive_int, default=2,
                        help="candidates per bundle per target")
    parser.add_argument("--iterations", type=_positive_int, default=120,
                        help="search iteration budget")
    parser.add_argument("--seed", type=int, default=2019, help="search seed")


def _target_spec(text: str) -> str:
    """Validate a ``--devices`` target-spec list at the parser.

    Each comma-separated token is ``[backend:]name`` (bare names are FPGA
    devices, ``all`` expands to a backend's whole catalogue).  Unknown
    backend prefixes and unknown per-backend device names die as usage
    errors listing the registered backends and their devices, before any
    worker process spawns.
    """
    try:
        resolve_targets(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    """Sweep-grid axes shared by ``sweep`` and ``shard coordinator``."""
    parser.add_argument("--devices", default="pynq-z1", type=_target_spec,
                        help="comma-separated target specs '[backend:]name', e.g. "
                             "'fpga:pynq-z1,gpu:jetson-tx2'; bare names are FPGA "
                             f"devices ('all' = {', '.join(list_devices())})")
    parser.add_argument("--strategies", default="scd",
                        help=f"comma-separated strategies ({', '.join(available_strategies())})")
    parser.add_argument("--clocks", type=_positive_float, nargs="+", default=None,
                        help="accelerator clock axis in MHz (default: device default clock)")
    parser.add_argument("--utilizations", type=_positive_float, nargs="+", default=[1.0],
                        help="resource-utilization-limit axis, each in (0, 1]")


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    """Timeout / retry knobs shared by ``sweep`` and ``shard coordinator``."""
    parser.add_argument("--timeout-s", type=_positive_float, default=None,
                        help="per-cell wall-clock timeout floor; a resume scales it up "
                             "for a cell from its recorded failed attempts")
    parser.add_argument("--timeout-scale", type=_positive_float, default=3.0,
                        help="multiplier over a cell's recorded duration when computing "
                             "its effective timeout (--timeout-s is the floor)")
    parser.add_argument("--retries", type=_non_negative_int, default=1,
                        help="retries per failed/timed-out cell before recording a failure")
    parser.add_argument("--retry-backoff-s", type=_non_negative_float, default=0.1,
                        help="base of the deterministic exponential retry backoff "
                             "(0 disables backoff)")


def _add_token_arg(parser: argparse.ArgumentParser) -> None:
    """Shared-secret flag accepted by every networked shard/service command."""
    parser.add_argument("--token", default=None, metavar="SECRET",
                        help="shared secret sent as the X-Repro-Token header "
                             "(default: $REPRO_SERVICE_TOKEN; '' disables auth)")


def _add_persistence_args(parser: argparse.ArgumentParser) -> None:
    """Cache / checkpoint / report args shared by ``sweep`` and the coordinator."""
    parser.add_argument("--resume", action="store_true",
                        help="resume from <cache-dir>/_checkpoint.jsonl: reuse completed "
                             "cells, re-run only failed/missing ones")
    parser.add_argument("--from", dest="resume_from", default=None, metavar="PATH",
                        type=_existing_checkpoint,
                        help="explicit resume source: a _checkpoint.jsonl, this "
                             "run's or another directory's (implies --resume)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent evaluation-cache directory (JSON-lines shards)")
    parser.add_argument("--report", default=None,
                        help="write the comparison report JSON to this path")


def _common_flags() -> argparse.ArgumentParser:
    """Logging / telemetry flags accepted by every subcommand.

    The flags use ``default=argparse.SUPPRESS`` so a subparser never
    overwrites a value given before the subcommand
    (``repro-codesign -v sweep`` and ``repro-codesign sweep -v`` both work);
    ``main`` reads them with ``getattr`` fallbacks.
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("logging / telemetry")
    group.add_argument("-v", "--verbose", action="store_true",
                       default=argparse.SUPPRESS,
                       help="enable INFO logging (shortcut for --log-level info)")
    group.add_argument("--log-level", default=argparse.SUPPRESS,
                       choices=["debug", "info", "warning", "error"],
                       help="console log level for the repro logger tree")
    group.add_argument("--telemetry", action="store_true",
                       default=argparse.SUPPRESS,
                       help="enable metrics/tracing; sweeps write a "
                            "_telemetry.jsonl sidecar next to the checkpoint")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="repro-codesign",
        description="FPGA/DNN co-design (DAC 2019) reproduction",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    codesign = sub.add_parser("codesign", help="run the full co-design flow",
                              parents=[common])
    codesign.add_argument("--device", default="pynq-z1", type=_device_name,
                          help=f"target device ({', '.join(list_devices())})")
    _add_budget_args(codesign)

    search = sub.add_parser("search", help="run the DNN search with a pluggable strategy",
                            parents=[common])
    search.add_argument("--strategy", default="scd", choices=available_strategies(),
                        help="exploration strategy")
    search.add_argument("--journal", default=None,
                        help="write the SearchSession journal JSON to this path")
    search.add_argument("--device", default="pynq-z1", type=_device_name,
                        help=f"target device ({', '.join(list_devices())})")
    _add_budget_args(search)

    sweep = sub.add_parser(
        "sweep", help="fan a device x strategy x target grid across worker processes",
        parents=[common],
    )
    _add_grid_args(sweep)
    sweep.add_argument("--workers", type=_positive_int, default=1,
                       help="long-lived worker processes (1 = in-process serial)")
    _add_resilience_args(sweep)
    _add_persistence_args(sweep)
    _add_budget_args(sweep)

    shard = sub.add_parser(
        "shard", help="distribute one sweep grid across machines (lease-based)"
    )
    shard_sub = shard.add_subparsers(dest="role", required=True)

    coordinator = shard_sub.add_parser(
        "coordinator",
        help="own the grid: lease cells to workers, merge + checkpoint results",
        parents=[common],
    )
    coordinator.add_argument("--bind", default="127.0.0.1:8765", metavar="HOST:PORT",
                             help="address to listen on (0.0.0.0:PORT for all interfaces)")
    coordinator.add_argument("--lease-ttl-s", type=_positive_float, default=30.0,
                             help="requeue a cell when its worker misses heartbeats "
                                  "for this long")
    coordinator.add_argument("--heartbeat-s", type=_positive_float, default=5.0,
                             help="heartbeat period suggested to workers "
                                  "(must be below --lease-ttl-s)")
    _add_token_arg(coordinator)
    _add_grid_args(coordinator)
    _add_resilience_args(coordinator)
    _add_persistence_args(coordinator)
    _add_budget_args(coordinator)

    worker = shard_sub.add_parser(
        "worker", help="execute leased cells for a coordinator and stream results back",
        parents=[common],
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address (http:// is implied)")
    worker.add_argument("--workers", type=_positive_int, default=1,
                        help="concurrent cells on this machine "
                             "(1 = serial in-process, N = long-lived worker processes)")
    worker.add_argument("--cache-dir", default=None,
                        help="this machine's persistent evaluation-cache directory")
    worker.add_argument("--name", default=None,
                        help="worker display name (default: hostname-pid)")
    worker.add_argument("--idle-timeout-s", type=_positive_float, default=None,
                        help="against a multi-job service: exit 0 after this long "
                             "with no lease granted (default: wait forever)")
    _add_token_arg(worker)

    status = shard_sub.add_parser(
        "status",
        help="query a live coordinator's /v1/metrics (lease counters, workers)",
        parents=[common],
    )
    status.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address (http:// is implied)")
    status.add_argument("--json", action="store_true",
                        help="print the raw /v1/metrics JSON payload")
    status.add_argument("--watch", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="refresh the status display every SECONDS until "
                             "interrupted (or the coordinator reports done)")

    serve = sub.add_parser(
        "serve",
        help="run a persistent multi-tenant job service (submit sweeps with "
             "'submit'; workers connect with 'shard worker')",
        parents=[common],
    )
    serve.add_argument("--root", required=True, metavar="DIR",
                       help="service root directory (journal, per-job dirs, "
                            "shared estimator cache)")
    serve.add_argument("--bind", default="127.0.0.1:8765", metavar="HOST:PORT",
                       help="address to listen on (0.0.0.0:PORT for all interfaces)")
    serve.add_argument("--lease-ttl-s", type=_positive_float, default=30.0,
                       help="requeue a cell when its worker misses heartbeats "
                            "for this long")
    serve.add_argument("--heartbeat-s", type=_positive_float, default=5.0,
                       help="heartbeat period suggested to workers "
                            "(must be below --lease-ttl-s)")
    serve.add_argument("--max-active", type=_positive_int, default=4,
                       help="jobs allowed in preparing/running at once "
                            "(the rest wait queued)")
    _add_token_arg(serve)

    submit = sub.add_parser(
        "submit",
        help="submit one sweep job to a running service (same grid/budget "
             "flags as 'sweep')",
        parents=[common],
    )
    submit.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="service coordinator address (http:// is implied)")
    submit.add_argument("--name", default=None,
                        help="job display name (slugged into the job uid)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job settles, streaming progress")
    submit.add_argument("--wait-timeout-s", type=_positive_float, default=None,
                        help="give up --wait after this long (job keeps running)")
    _add_token_arg(submit)
    _add_grid_args(submit)
    _add_resilience_args(submit)
    _add_budget_args(submit)

    jobs_cmd = sub.add_parser(
        "jobs", help="list a service's jobs and their progress",
        parents=[common],
    )
    jobs_cmd.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="service coordinator address (http:// is implied)")
    jobs_cmd.add_argument("--json", action="store_true",
                          help="print the raw job summaries as JSON")
    _add_token_arg(jobs_cmd)

    job_cmd = sub.add_parser(
        "job", help="inspect, cancel or fetch the result of one service job",
        parents=[common],
    )
    job_sub = job_cmd.add_subparsers(dest="action", required=True)
    for action, blurb in (("status", "one job's state and per-cell progress"),
                          ("cancel", "cancel a queued or running job"),
                          ("result", "fetch a settled job's sweep result")):
        action_parser = job_sub.add_parser(action, help=blurb, parents=[common])
        action_parser.add_argument("uid", help="job uid (as printed by submit/jobs)")
        action_parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                                   help="service coordinator address "
                                        "(http:// is implied)")
        action_parser.add_argument("--json", action="store_true",
                                   help="print the raw JSON payload")
        _add_token_arg(action_parser)
        if action == "result":
            action_parser.add_argument("--output", default=None, metavar="PATH",
                                       help="write the result JSON here ("
                                            "readable by 'compare --diff')")

    telemetry_cmd = sub.add_parser(
        "telemetry", help="inspect the telemetry recorded by a sweep",
        parents=[common],
    )
    telemetry_sub = telemetry_cmd.add_subparsers(dest="action", required=True)
    tele_report = telemetry_sub.add_parser(
        "report",
        help="summarise a sweep's checkpoint + _telemetry.jsonl sidecar",
        parents=[common],
    )
    tele_report.add_argument("--cache-dir", required=True, type=_existing_dir,
                             help="sweep cache directory (holds the checkpoint "
                                  "and telemetry sidecar)")
    tele_report.add_argument("--top", type=_positive_int, default=5,
                             help="how many slowest cells to list")
    tele_report.add_argument("--json", action="store_true",
                             help="print the report as JSON instead of text")

    compare_cmd = sub.add_parser(
        "compare", help="diff two saved sweep runs (results, reports or checkpoints)",
        parents=[common],
    )
    compare_cmd.add_argument("--diff", nargs=2, required=True, metavar=("A", "B"),
                             type=_existing_path,
                             help="two sweep result/report JSONs or _checkpoint.jsonl files")
    compare_cmd.add_argument("--only-changed", action="store_true",
                             help="list only the cells that differ")
    compare_cmd.add_argument("--report", default=None,
                             help="write the diff as JSON to this path")

    cache = sub.add_parser(
        "cache", help="inspect or compact a persistent sweep evaluation-cache directory",
        parents=[common],
    )
    cache.add_argument("action", choices=["stats", "gc"],
                       help="stats: summarise the directory; gc: compact and evict")
    cache.add_argument("--cache-dir", required=True, type=_existing_dir,
                       help="cache directory to operate on")
    cache.add_argument("--max-age-days", type=_positive_float, default=None,
                       help="gc: evict entries older than this many days")
    cache.add_argument("--max-size-mb", type=_positive_float, default=None,
                       help="gc: evict oldest entries until the directory fits this budget")

    lint = sub.add_parser(
        "lint",
        help="run the repro.analysis invariant linter over the source tree",
        parents=[common],
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: the src/ tree, or the installed package)")
    lint.add_argument("--rule", action="append", dest="rules", default=None,
                      metavar="RULE",
                      help="run only this rule (repeatable); "
                           "see --list-rules for the registry")
    lint.add_argument("--json", action="store_true",
                      help="print the full report as JSON (findings and "
                           "suppressions)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules and the contracts "
                           "they encode")

    experiment = sub.add_parser("experiment", help="regenerate a paper artefact",
                                parents=[common])
    experiment.add_argument("name", choices=["fig4", "fig5", "fig6", "table2", "ablations"],
                            help="which table / figure to regenerate")

    codegen = sub.add_parser("codegen", help="generate accelerator C code for a reference design",
                             parents=[common])
    codegen.add_argument("--design", choices=["DNN1", "DNN2", "DNN3"], default="DNN1")
    codegen.add_argument("--device", default="pynq-z1", type=_device_name)
    codegen.add_argument("--clock", type=float, default=100.0)
    codegen.add_argument("--output", default="./generated", help="output directory")

    bundles = sub.add_parser("bundles", help="list the default bundle catalogue",
                             parents=[common])
    del bundles
    return parser


def _build_flow(args: argparse.Namespace, **flow_kwargs) -> CoDesignFlow:
    """Construct the co-design flow shared by the codesign / search commands."""
    device = get_device(args.device)
    targets = tuple(
        LatencyTarget(fps=f, clock_mhz=device.default_clock_mhz, tolerance_ms=args.tolerance_ms)
        for f in args.fps
    )
    inputs = CoDesignInputs(task=DAC_SDC_TASK, device=device, latency_targets=targets)
    return CoDesignFlow(
        inputs,
        candidates_per_bundle=args.candidates,
        top_n_bundles=args.top_bundles,
        scd_iterations=args.iterations,
        rng=args.seed,
        **flow_kwargs,
    )


def _run_codesign(args: argparse.Namespace) -> int:
    flow = _build_flow(args)
    result = flow.run()
    print(result.summary())
    return 0


def _run_search(args: argparse.Namespace) -> int:
    from repro.core.auto_dnn import AutoDNN

    flow = _build_flow(args, search_strategy=args.strategy)
    session = SearchSession(
        name=f"search-{args.strategy}",
        metadata={
            "strategy": args.strategy,
            "seed": args.seed,
            "device": args.device,
            "fps": list(args.fps),
            "tolerance_ms": args.tolerance_ms,
            "iterations": args.iterations,
        },
    )
    flow.step1_modeling()
    _, _, selected = flow.step2_bundle_selection()
    candidates = flow.step3_search(selected, session=session)
    best = AutoDNN.best_per_target(candidates, flow.inputs.latency_targets)

    print(f"Search strategy '{args.strategy}' on {flow.inputs.device.name}")
    print(f"  selected bundles  : {[b.bundle_id for b in selected]}")
    print(f"  explored DNNs     : {len(candidates)}")
    print(f"  {flow.auto_dnn.cache.stats().summary()}")
    for target, candidate in best.items():
        if candidate is None:
            print(f"  {target}: no candidate met the target")
        else:
            print(f"  {target}: {candidate.summary()}")
    print(session.summary())
    if args.journal:
        path = session.save(args.journal)
        print(f"Journal written to {path}")
    return 0


def _resume_lacks_source(args: argparse.Namespace, command: str) -> bool:
    """True, after printing a usage error, when ``--resume`` has no checkpoint
    to read: neither ``--cache-dir`` nor ``--from``."""
    if not args.resume or args.resume_from or args.cache_dir is not None:
        return False
    print(
        f"repro-codesign {command}: error: argument --resume: needs --cache-dir "
        "(the checkpoint lives there) or an explicit --from <_checkpoint.jsonl>",
        file=sys.stderr,
    )
    return True


def _resolve_resume_source(args: argparse.Namespace):
    """Where a ``--resume`` run reads prior outcomes from (None = fresh)."""
    import pathlib

    from repro.sweep import CHECKPOINT_FILENAME

    if args.resume_from:
        return args.resume_from
    if not args.resume:
        return None
    checkpoint = pathlib.Path(args.cache_dir) / CHECKPOINT_FILENAME
    if not checkpoint.exists():
        # First run of a resumable pipeline: nothing to resume yet.
        print(f"No checkpoint at {checkpoint}; starting a fresh sweep.")
        return None
    return str(checkpoint)


def _build_sweep_runner(args: argparse.Namespace, transport=None):
    """Grid + runner construction shared by ``sweep`` and ``shard coordinator``."""
    from repro.sweep.spec import SweepSpec

    spec = SweepSpec.from_args(args)
    spec.build_tasks()  # a grid error comes before any --resume message
    return spec.build_runner(
        cache_dir=args.cache_dir,
        workers=getattr(args, "workers", 1),
        transport=transport,
        resume_from=_resolve_resume_source(args),
    )


def _lease_surface_bind(args: argparse.Namespace, command: str):
    """``--bind`` parsed, or ``None`` after a usage error (exit 2) was printed.

    Also checks ``--heartbeat-s < --lease-ttl-s``: cross-field and bind-spec
    validation that argparse types cannot express.
    """
    from repro.shard.protocol import parse_bind

    try:
        bind = parse_bind(args.bind)
    except ValueError as exc:
        print(f"repro-codesign {command}: error: argument --bind: {exc}", file=sys.stderr)
        return None
    if args.heartbeat_s >= args.lease_ttl_s:
        print(
            f"repro-codesign {command}: error: argument --heartbeat-s: must be "
            f"below --lease-ttl-s ({args.heartbeat_s:g} >= {args.lease_ttl_s:g})",
            file=sys.stderr,
        )
        return None
    return bind


def _report_sweep_result(result, args: argparse.Namespace) -> int:
    """Print summary + comparison, write the report file, pick the exit code."""
    from repro.sweep import compare
    from repro.utils.serialization import dump_json

    comparison = compare(result) if result.outcomes else None
    print(result.summary())
    print()
    if comparison is not None:
        print(comparison.render())
    else:
        print("No surviving cells to compare.")
    if args.report:
        payload = {"sweep": result.as_dict()}
        if comparison is not None:
            payload["comparison"] = comparison.as_dict()
        path = dump_json(payload, args.report)
        print(f"Report written to {path}")
    return 0 if result.ok else 1


def _run_sweep(args: argparse.Namespace) -> int:
    if _resume_lacks_source(args, "sweep"):
        return 2
    runner = _build_sweep_runner(args)
    try:
        result = runner.run()
    except OSError as exc:  # a checkpoint append failed (a full disk)
        print(f"repro-codesign sweep: error: {exc}", file=sys.stderr)
        return 1
    return _report_sweep_result(result, args)


def _run_shard(args: argparse.Namespace) -> int:
    if args.role == "coordinator":
        from repro.shard import LeaseCoordinator
        from repro.shard.protocol import resolve_token

        bind = _lease_surface_bind(args, "shard coordinator")
        if bind is None or _resume_lacks_source(args, "shard coordinator"):
            return 2
        try:
            # The run's cache dir doubles as the cache-exchange hub.
            coordinator = LeaseCoordinator(
                bind, token=resolve_token(args.token), lease_ttl_s=args.lease_ttl_s,
                heartbeat_s=args.heartbeat_s, cache_dir=args.cache_dir)
        except OSError as exc:  # the address is taken or not this host's
            print(f"repro-codesign shard coordinator: error: {exc}", file=sys.stderr)
            return 1
        try:
            runner = _build_sweep_runner(args, transport=coordinator)
            coordinator.start()
            print(f"Coordinator listening on {coordinator.url} "
                  f"(lease TTL {args.lease_ttl_s:g}s); waiting for workers...", flush=True)
            result = runner.run()
        except OSError as exc:  # a checkpoint append failed (a full disk)
            print(f"repro-codesign shard coordinator: error: {exc}", file=sys.stderr)
            return 1
        finally:
            # execute() closes it once the cells settled; this covers every other exit.
            coordinator.close()
        print(
            "Shard leases: granted={granted} completed={completed} "
            "requeued={requeued} expired={expired} revoked={revoked} "
            "duplicates={duplicates} failed={failed}".format(**coordinator.lease_metrics())
        )
        for entry in coordinator.workers.stats():
            print(
                f"  worker {entry['worker_id']} ({entry['name']}): "
                f"leased={entry['leased']} completed={entry['completed']} "
                f"errors={entry['errors']} busy={entry['busy_s']:.1f}s"
            )
        return _report_sweep_result(result, args)
    if args.role == "status":
        return _run_shard_status(args)
    if args.role == "worker":
        from repro.shard import ShardWorker
        from repro.shard.protocol import resolve_token

        worker = ShardWorker(
            args.connect,
            workers=args.workers,
            cache_dir=args.cache_dir,
            name=args.name,
            token=resolve_token(args.token),
            idle_timeout_s=args.idle_timeout_s,
        )
        code = worker.run()
        print(f"Worker {worker.name}: executed {worker.executed} cell(s), "
              f"{worker.reported_errors} error(s) reported, exit {code}")
        return code
    raise ValueError(f"Unknown shard role {args.role}")  # pragma: no cover


def _render_shard_metrics(base: str, payload: dict) -> None:
    counts = payload.get("counts") or {}
    lease = payload.get("lease_metrics") or {}
    kind = "Service" if payload.get("service") else "Coordinator"
    print(f"{kind} {base} (protocol v{payload.get('version', '?')})")
    print(
        "  cells: {cells} total, {pending} pending, {leased} leased, "
        "{settled} settled, {failed} failed".format(
            cells=counts.get("cells", 0), pending=counts.get("pending", 0),
            leased=counts.get("leased", 0), settled=counts.get("settled", 0),
            failed=counts.get("failed", 0),
        )
    )
    print(
        "  leases: granted={granted} completed={completed} requeued={requeued} "
        "expired={expired} revoked={revoked} duplicates={duplicates} "
        "failed={failed} heartbeats={heartbeats}".format(
            **{key: lease.get(key, 0) for key in (
                "granted", "completed", "requeued", "expired", "revoked",
                "duplicates", "failed", "heartbeats")}
        )
    )
    for entry in payload.get("workers") or []:
        print(
            f"  worker {entry.get('worker_id')} ({entry.get('name')}): "
            f"leased={entry.get('leased', 0)} completed={entry.get('completed', 0)} "
            f"errors={entry.get('errors', 0)} busy={entry.get('busy_s', 0.0):.1f}s "
            f"last seen {entry.get('last_seen_s', 0.0):.1f}s ago"
        )
    # A service coordinator reports per-job sections after the aggregates.
    for job in payload.get("jobs") or []:
        job_counts = job.get("counts") or {}
        line = (
            f"  job {job.get('job')} [{job.get('state')}]: "
            f"{job_counts.get('settled', 0)}/{job_counts.get('cells', 0)} settled, "
            f"{job_counts.get('leased', 0)} leased, "
            f"{job_counts.get('failed', 0)} failed"
        )
        if job.get("recovered"):
            line += " (recovered)"
        if job.get("error"):
            line += f" — {job['error']}"
        print(line)
    if payload.get("telemetry") is None:
        print("  telemetry: disabled on the coordinator")


def _run_shard_status(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from repro.shard.protocol import ShardProtocolError, connect_url, get_json

    base = connect_url(args.connect)
    while True:
        try:
            payload = get_json(base, "/v1/metrics")
        except ShardProtocolError as exc:
            print(f"repro-codesign shard status: cannot reach coordinator: {exc}",
                  file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            _render_shard_metrics(base, payload)
        counts = payload.get("counts") or {}
        if args.watch is None or counts.get("done"):
            return 0
        try:
            _time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0
        print()


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceCoordinator
    from repro.shard.protocol import resolve_token

    bind = _lease_surface_bind(args, "serve")
    if bind is None:
        return 2
    service = ServiceCoordinator(
        args.root,
        bind=bind,
        token=resolve_token(args.token),
        lease_ttl_s=args.lease_ttl_s,
        heartbeat_s=args.heartbeat_s,
        max_active=args.max_active,
    )
    service.start()
    queued = sum(1 for job in service.queue.jobs() if not job.terminal)
    print(f"Service listening on {service.url} (root {service.root}, "
          f"{queued} unfinished job(s) resumed); Ctrl-C to stop.", flush=True)
    try:
        while True:
            import time as _time

            _time.sleep(0.5)
    except KeyboardInterrupt:
        print("Stopping (unfinished jobs resume on the next serve)...")
    finally:
        service.stop()
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient
    from repro.shard.protocol import ShardProtocolError, connect_url, resolve_token
    from repro.sweep.spec import SweepSpec

    client = ServiceClient(connect_url(args.connect),
                           token=resolve_token(args.token))
    spec = SweepSpec.from_args(args)
    try:
        reply = client.submit(spec, name=args.name)
    except ShardProtocolError as exc:
        print(f"repro-codesign submit: {exc}", file=sys.stderr)
        return 1
    uid = reply.get("job")
    print(f"Submitted job {uid} ({reply.get('cells', '?')} cell(s), "
          f"state {reply.get('state')})")
    if not args.wait:
        return 0
    last = {"settled": -1}

    def _progress(summary: dict) -> None:
        counts = summary.get("counts") or {}
        settled = counts.get("settled", 0)
        if settled != last["settled"]:
            last["settled"] = settled
            print(f"  {uid}: {settled}/{counts.get('cells', '?')} settled "
                  f"[{summary.get('state')}]", flush=True)

    try:
        summary = client.wait(uid, timeout_s=args.wait_timeout_s,
                              on_progress=_progress)
    except ShardProtocolError as exc:
        print(f"repro-codesign submit: {exc}", file=sys.stderr)
        return 1
    state = summary.get("state")
    print(f"Job {uid} settled: {state}"
          + (f" ({summary.get('error')})" if summary.get("error") else ""))
    return 0 if state == "done" else 1


def _run_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceClient
    from repro.shard.protocol import ShardProtocolError, connect_url, resolve_token
    from repro.utils.tables import render_table

    client = ServiceClient(connect_url(args.connect),
                           token=resolve_token(args.token))
    try:
        jobs = client.jobs()
    except ShardProtocolError as exc:
        print(f"repro-codesign jobs: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    rows = []
    for job in jobs:
        counts = job.get("counts") or {}
        rows.append([
            job.get("job"), job.get("name"), job.get("state"),
            f"{counts.get('settled', 0)}/{counts.get('cells', 0)}",
            counts.get("failed", 0),
            "yes" if job.get("recovered") else "",
        ])
    print(render_table(["job", "name", "state", "settled", "failed", "recovered"],
                       rows, title=f"Jobs on {client.base_url}"))
    return 0


def _run_job(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceClient
    from repro.shard.protocol import ShardProtocolError, connect_url, resolve_token

    client = ServiceClient(connect_url(args.connect),
                           token=resolve_token(args.token))
    try:
        if args.action == "cancel":
            reply = client.cancel(args.uid)
            if args.json:
                print(json.dumps(reply, indent=2, sort_keys=True))
            elif reply.get("cancelled"):
                print(f"Job {args.uid}: {reply.get('state')}")
            else:
                print(f"Job {args.uid} is already {reply.get('state')}; "
                      "nothing to cancel")
            return 0
        if args.action == "result":
            reply = client.result(args.uid)
            if args.output:
                from repro.utils.serialization import dump_json

                # The payload nests the run under "sweep", the exact shape
                # `sweep --report` writes — compare --diff reads it as-is.
                path = dump_json({"sweep": reply["sweep"]}, args.output)
                print(f"Result of {args.uid} ({reply.get('state')}) "
                      f"written to {path}")
            else:
                print(json.dumps(reply, indent=2, sort_keys=True))
            return 0
        reply = client.status(args.uid)
        if args.json:
            print(json.dumps(reply, indent=2, sort_keys=True))
            return 0
        counts = reply.get("counts") or {}
        print(f"Job {reply.get('job')} ({reply.get('name')}): {reply.get('state')}"
              + (f" — {reply.get('error')}" if reply.get("error") else ""))
        print(f"  cells: {counts.get('settled', 0)}/{counts.get('cells', 0)} "
              f"settled, {counts.get('leased', 0)} leased, "
              f"{counts.get('failed', 0)} failed")
        for uid, cell in sorted((reply.get("cells_detail") or {}).items()):
            worker = f" on {cell.get('worker')}" if cell.get("worker") else ""
            attempts = cell.get("attempts") or 0
            extra = f" (attempt {attempts})" if attempts > 1 else ""
            print(f"    {uid}: {cell.get('status')}{worker}{extra}")
        return 0
    except ShardProtocolError as exc:
        print(f"repro-codesign job {args.action}: {exc}", file=sys.stderr)
        return 1


def _run_telemetry(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import build_report

    report = build_report(args.cache_dir)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(top=args.top))
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    from repro.sweep import diff_results
    from repro.utils.serialization import dump_json

    diff = diff_results(args.diff[0], args.diff[1])
    print(diff.render(only_changed=args.only_changed))
    if args.report:
        path = dump_json(diff.as_dict(), args.report)
        print(f"Diff written to {path}")
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    from repro.sweep import cache_dir_stats, compact_cache_dir
    from repro.utils.tables import render_table

    if args.action == "gc":
        report = compact_cache_dir(
            args.cache_dir,
            max_age_days=args.max_age_days,
            max_size_mb=args.max_size_mb,
        )
        print(report.summary())
        return 0
    stats = cache_dir_stats(args.cache_dir)
    rows = [
        [ns.namespace, ns.entries, ns.shards, ns.bytes]
        for ns in stats.namespaces
    ]
    print(render_table(
        ["namespace", "entries", "shards", "bytes"], rows,
        title=f"Cache directory {stats.directory}",
    ))
    print(
        f"Totals: {stats.entries} entries in {stats.total_shards} shards, "
        f"{stats.total_bytes} bytes, {stats.corrupt_lines} corrupt lines, "
        f"{stats.duplicates} duplicates"
    )
    if stats.checkpoint_records or stats.checkpoint_corrupt_lines:
        print(
            f"Checkpoint: {stats.checkpoint_outcomes} completed, "
            f"{stats.checkpoint_failures} failed cell(s) recorded"
            + (
                f", {stats.checkpoint_corrupt_lines} corrupt line(s)"
                if stats.checkpoint_corrupt_lines else ""
            )
        )
    if stats.corrupt_lines or stats.duplicates or stats.checkpoint_corrupt_lines:
        print("Hint: run 'repro-codesign cache gc --cache-dir ...' to repair and compact.")
    return 0


def _default_lint_paths() -> list[str]:
    """What ``lint`` scans when no paths are given.

    Prefer the working tree's ``src/repro`` (the common case: running at
    the repo root, as CI does); fall back to the installed package so the
    command still works from anywhere.
    """
    import pathlib

    tree = pathlib.Path("src") / "repro"
    if tree.is_dir():
        return [str(tree)]
    import repro

    return [str(pathlib.Path(repro.__file__).parent)]


def _run_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import all_checkers, lint_paths

    if args.list_rules:
        for rule, checker in sorted(all_checkers().items()):
            print(f"{rule}")
            print(f"  {checker.description}")
            print(f"  contract: {checker.contract}")
        return 0

    try:
        report = lint_paths(args.paths or _default_lint_paths(), rules=args.rules)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro-codesign lint: error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _run_experiment(name: str) -> int:
    if name == "fig4":
        from repro.experiments.fig4 import report_fig4, run_fig4
        print(report_fig4(run_fig4()).render())
    elif name == "fig5":
        from repro.experiments.fig5 import report_fig5, run_fig5
        print(report_fig5(run_fig5()).render())
    elif name == "fig6":
        from repro.experiments.fig6 import report_fig6, run_fig6
        print(report_fig6(run_fig6()).render())
    elif name == "table2":
        from repro.experiments.table2 import report_table2, run_table2
        print(report_table2(run_table2()).render())
    elif name == "ablations":
        from repro.experiments.ablations import (
            report_ablations,
            run_codesign_vs_topdown,
            run_quantization_sweep,
            run_scd_vs_random,
            run_tile_sweep,
        )
        report = report_ablations(
            run_scd_vs_random(),
            run_tile_sweep(),
            run_quantization_sweep(),
            run_codesign_vs_topdown(),
        )
        print(report.render())
    else:  # pragma: no cover - argparse already restricts choices
        raise ValueError(f"Unknown experiment '{name}'")
    return 0


def _run_codegen(args: argparse.Namespace) -> int:
    from repro.experiments.reference_designs import reference_dnn1, reference_dnn2, reference_dnn3

    design_map = {"DNN1": reference_dnn1, "DNN2": reference_dnn2, "DNN3": reference_dnn3}
    config = design_map[args.design]()
    device = get_device(args.device)
    engine = AutoHLS(device, clock_mhz=args.clock)
    result = engine.generate(config, clock_mhz=args.clock)
    paths = result.design.write_to(args.output)
    print(result.report.summary())
    print("Generated files:")
    for path in paths:
        print(f"  {path}")
    return 0


def _run_bundles() -> int:
    from repro.core.bundle_generation import default_bundle_catalog

    for bundle in default_bundle_catalog():
        print(f"{bundle.bundle_id:3d}  {bundle.signature}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-codesign`` console script.

    A reader that closes standard output early (``| head -1``) ends the
    command quietly with 141, the status of a process killed by SIGPIPE.
    """
    try:
        status = _dispatch(argv)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The interpreter flushes stdout once more at exit; let that succeed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _dispatch(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    log_level = getattr(args, "log_level", None)
    if log_level is not None:
        configure_logging(log_level)
    elif getattr(args, "verbose", False):
        configure_logging()
    if getattr(args, "telemetry", False):
        telemetry.enable()
    if args.command == "telemetry":
        return _run_telemetry(args)
    if args.command == "codesign":
        return _run_codesign(args)
    if args.command == "search":
        return _run_search(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "shard":
        return _run_shard(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "jobs":
        return _run_jobs(args)
    if args.command == "job":
        return _run_job(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "experiment":
        return _run_experiment(args.name)
    if args.command == "codegen":
        return _run_codegen(args)
    if args.command == "bundles":
        return _run_bundles()
    parser.error(f"Unknown command {args.command}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
