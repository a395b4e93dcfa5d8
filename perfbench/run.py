"""Repository benchmark: the paper grid cold, warm, in parallel and as service jobs.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload grid-warm --seed 2019 --seconds 25 --trace 0

``--trace 0`` times repetitions with nothing wrapped and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer self-time table.  ``--workload all``
(the default) runs every workload untraced, then traced, each in its own
process.  See ``perfbench/README.md`` for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("first_result_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, reported with ``--trace 1``.
PER_LAYER = (
    ("sweep.prep.calls", "count"),
    ("sweep.prep.s", "s"),
    ("sweep.cell.calls", "count"),
    ("sweep.cell.s", "s"),
    ("sweep.cell.unattributed_s", "s"),
    ("sweep.attributed_fraction", "fraction"),
    ("codesign.flow_init.s", "s"),
    ("codesign.fit.s", "s"),
    ("codesign.select.s", "s"),
    ("codesign.search.self_s", "s"),
    ("search.cache_key.calls", "count"),
    ("search.cache_key.s", "s"),
    ("search.mem_cache.hits", "count"),
    ("search.mem_cache.misses", "count"),
    ("search.mem_cache.hit_rate", "fraction"),
    ("hw.estimate_batch.calls", "count"),
    ("hw.estimate_batch.configs", "count"),
    ("hw.estimate_batch.s", "s"),
    ("hw.estimate.calls", "count"),
    ("hw.estimate.s", "s"),
    ("hw.estimator_calls", "count"),
    ("autohls.generate.calls", "count"),
    ("autohls.generate.s", "s"),
    ("detection.accuracy.calls", "count"),
    ("detection.accuracy.s", "s"),
    ("disk_cache.open.s", "s"),
    ("disk_cache.get.s", "s"),
    ("disk_cache.put.s", "s"),
    ("disk_cache.hits", "count"),
    ("disk_cache.misses", "count"),
    ("disk_cache.hit_rate", "fraction"),
    ("journal.serialise.s", "s"),
    ("journal.bytes", "bytes"),
    ("checkpoint.appends", "count"),
    ("checkpoint.append.s", "s"),
    ("dispatch.cells", "count"),
    ("dispatch.overhead_s", "s"),
    ("dispatch.parallel_efficiency", "fraction"),
    ("dispatch.extra_estimator_calls", "count"),
    ("http.lease.count", "count"),
    ("http.lease.rtt_s", "s"),
    ("http.report.count", "count"),
    ("http.report.rtt_s", "s"),
    ("http.heartbeat.count", "count"),
    ("http.cache.count", "count"),
    ("http.cache.rtt_s", "s"),
    ("http.bytes_per_cell", "bytes/cell"),
    ("service.time_to_first_lease_s", "s"),
    ("service.worker_idle_s", "s"),
    ("trace.overhead_fraction", "fraction"),
)

WORKLOAD_NAMES = ("grid-cold", "grid-warm", "grid-parallel", "service-2jobs")


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def measure_import_s(samples: int = 3) -> float:
    """Median wall time of a fresh interpreter importing everything the run uses."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-B", "-c", "import workloads"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return _median(times)


def measure(workload, seconds: float, trace: bool):
    """Repetitions until ``seconds`` would be exceeded (at least 3, or 1+1 traced)."""
    import tracer as tracing
    import workloads

    spans = tracing.Tracer(workload.workdir / "spill") if trace else None
    untraced, traced = [], []
    started = time.perf_counter()
    longest = 0.0
    while True:
        rep_start = time.perf_counter()
        if trace and len(traced) < len(untraced):
            traced.append(workloads.run_rep(workload, spans))
        else:
            untraced.append(workloads.run_rep(workload, None))
        longest = max(longest, time.perf_counter() - rep_start)
        done = len(untraced) + len(traced)
        if done >= (2 if trace else 3) and \
                time.perf_counter() - started + longest > seconds:
            return untraced, traced


def end_to_end(untraced, fixed_setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "wall_s": _median([rep.wall_s for rep in untraced]),
        "cpu_s": _median([rep.cpu_s for rep in untraced]),
        "first_result_s": _median([rep.first_result_s for rep in untraced]),
        "setup_s": fixed_setup_s + _median([rep.setup_s for rep in untraced]),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(rep, reference, *, cold_start: bool, untraced_wall_s: float) -> dict:
    """The per-layer table of one traced repetition."""
    from tracer import Layer

    def layer(name):
        return rep.layers.get(name) or Layer()

    cell, prep, cells = layer("sweep.cell"), layer("sweep.prep"), rep.cells
    metrics = {
        "sweep.prep.calls": prep.calls,
        "sweep.prep.s": prep.total_s,
        "sweep.cell.calls": cell.calls,
        "sweep.cell.s": cell.total_s,
        "sweep.cell.unattributed_s": cell.self_s,
        "sweep.attributed_fraction": 1.0 - _ratio(cell.self_s, cell.total_s),
        "codesign.flow_init.s": layer("codesign.flow_init").self_s,
        "codesign.fit.s": layer("codesign.fit").self_s,
        "codesign.select.s": layer("codesign.select").self_s,
        "codesign.search.self_s": layer("codesign.search").self_s,
        "search.cache_key.calls": layer("search.cache_key").calls,
        "search.cache_key.s": layer("search.cache_key").self_s,
        "search.mem_cache.hits": cells.memory_hits,
        "search.mem_cache.misses": cells.memory_misses,
        "search.mem_cache.hit_rate": _ratio(cells.memory_hits,
                                            cells.memory_hits + cells.memory_misses),
        "hw.estimate_batch.calls": layer("hw.estimate_batch").calls,
        "hw.estimate_batch.configs": layer("hw.estimate_batch").items,
        "hw.estimate_batch.s": layer("hw.estimate_batch").self_s,
        "hw.estimate.calls": layer("hw.estimate").calls,
        "hw.estimate.s": layer("hw.estimate").self_s,
        "hw.estimator_calls": cells.estimator_calls,
        "autohls.generate.calls": layer("autohls.generate").calls,
        "autohls.generate.s": layer("autohls.generate").self_s,
        "detection.accuracy.calls": layer("detection.accuracy").calls,
        "detection.accuracy.s": layer("detection.accuracy").self_s,
        "disk_cache.open.s": layer("disk_cache.open").self_s,
        "disk_cache.get.s": layer("disk_cache.get").self_s,
        "disk_cache.put.s": layer("disk_cache.put").self_s,
        "disk_cache.hits": cells.disk_hits,
        "disk_cache.misses": cells.disk_misses,
        "disk_cache.hit_rate": _ratio(cells.disk_hits, cells.disk_hits + cells.disk_misses),
        "journal.serialise.s": layer("journal.serialise").self_s,
        "journal.bytes": cells.journal_bytes,
        "checkpoint.appends": layer("checkpoint.append").calls,
        "checkpoint.append.s": layer("checkpoint.append").self_s,
        "dispatch.cells": layer("dispatch.child_cells").calls,
        "dispatch.overhead_s": rep.workers * rep.wall_s - cell.total_s - prep.total_s,
        "dispatch.parallel_efficiency": _ratio(reference.cell_s,
                                               rep.workers * untraced_wall_s),
        "dispatch.extra_estimator_calls":
            cells.estimator_calls - (reference.estimator_calls if cold_start else 0),
        "http.bytes_per_cell": _ratio(rep.wire_bytes, len(cells.digests)),
        "service.time_to_first_lease_s": rep.first_lease_s,
        # Only the service talks HTTP; its worker idles whenever no cell runs.
        "service.worker_idle_s": rep.wall_s - cell.total_s if rep.wire_bytes else 0.0,
    }
    for name in ("http.lease", "http.report", "http.heartbeat", "http.cache"):
        call = layer(name)
        metrics[f"{name}.count"] = call.calls
        if name != "http.heartbeat":
            metrics[f"{name}.rtt_s"] = _ratio(call.total_s, call.calls)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, budget=None,
                 import_s: float = 0.0) -> dict:
    """Run one workload; returns the result object the CLI prints last."""
    import oracle
    import workloads

    budget = budget or workloads.DEFAULT_BUDGET
    workdir = workloads.WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[name](seed, budget, workdir)
    try:
        prepare_start = time.perf_counter()
        workload.prepare()
        fixed_setup_s = import_s + time.perf_counter() - prepare_start
        untraced, traced = measure(workload, seconds, trace)
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        reference = workload.reference(untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workloads.WORK_ROOT.rmdir()
        except OSError:
            pass

    digests = None
    if seed == workloads.DEFAULT_SEED and budget == workloads.DEFAULT_BUDGET:
        digests = oracle.load_digests()
    problems, bad_cells = [], set()
    reps = untraced + traced
    for index, rep in enumerate(reps):
        found = oracle.check_digests(rep.cells.digests, reference.digests, digests)
        problems.extend(f"repetition {index + 1}: {line}" for line in found)
        bad_cells.update((index, line.split(":")[0]) for line in found)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps) + len(bad_cells)

    if trace:
        untraced_wall = _median([rep.wall_s for rep in untraced])
        per_rep = [
            layer_metrics(rep, reference, cold_start=name != "grid-warm",
                          untraced_wall_s=untraced_wall)
            for rep in traced
        ]
        values = {key: _median([m[key] for m in per_rep]) for key in per_rep[0]}
        values["trace.overhead_fraction"] = _ratio(
            _median([rep.wall_s for rep in traced]), untraced_wall) - 1.0
        units = dict(PER_LAYER)
        samples = {}
    else:
        values = end_to_end(untraced, fixed_setup_s, usage / 1024.0)
        units = dict(END_TO_END)
        samples = {key: [getattr(rep, key) for rep in untraced]
                   for key in ("wall_s", "cpu_s", "first_result_s")}
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        "problems": problems,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "samples": samples,
    }


def print_table(name: str, result: dict, trace: bool) -> None:
    reps = result["repetitions"]
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"{name}: {kind} metrics, {reps['untraced']} untraced + "
          f"{reps['traced']} traced repetition(s)")
    for key, metric in result["metrics"].items():
        line = f"  {key:<34} {metric['value']:>16.6g} {metric['unit']}"
        samples = result["samples"].get(key)
        if samples:
            line += f"  (median of {len(samples)}: {min(samples):.4g} .. {max(samples):.4g})"
        print(line)
    rate = _ratio(result["failed"], result["attempted"])
    print(f"  {'failure_rate':<34} {rate:>16.6g} fraction "
          f"({result['failed']}/{result['attempted']} cells)")


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            summary["correct"] = summary["correct"] and result["correct"] \
                and completed.returncode == 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import repro.telemetry as telemetry

    import_s = measure_import_s()
    telemetry.disable()  # the program's own telemetry stays off in every run
    logging.getLogger("repro").setLevel(logging.ERROR)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          import_s=import_s)
    if result["problems"]:
        print(f"{args.workload}: journal oracle FAILED", file=sys.stderr)
        for line in result["problems"]:
            print(f"  {line}", file=sys.stderr)
        result["metrics"] = {}
    else:
        print_table(args.workload, result, bool(args.trace))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
