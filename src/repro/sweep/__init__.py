"""Process-based multi-device sweep engine with resilient scheduling.

The sweep subsystem scales the co-design search along the axes the paper
leaves open — "devices with more resources", alternative exploration
strategies, several latency targets, clock frequencies and utilization
limits at once:

* :mod:`repro.sweep.runner` — :func:`build_grid` / :class:`SweepRunner`:
  fan a (target x clock x utilization x strategy x latency-target) grid
  out across worker processes under a two-phase schedule: per-target
  preparation (model fit + bundle selection on the FPGA backend, fit-free
  prep on the GPU one; once per target, in the parent, shipped as a
  :class:`PreparedTarget`) followed by a drain of the attempt ledger —
  in-process and in grid order at ``workers=1``, otherwise on long-lived
  worker processes in cost order — with per-task timeout, bounded retry
  and structured :class:`SweepFailure` records — one archivable journal
  per task.  Targets span backends (see :mod:`repro.backend`):
  ``fpga:pynq-z1`` and ``gpu:jetson-tx2`` mix in one grid,
* :mod:`repro.sweep.ledger` — :class:`~repro.sweep.ledger.LeaseBoard`, the
  attempt ledger a local sweep drains and :mod:`repro.shard` serves,
* :mod:`repro.sweep.disk_cache` — :class:`DiskEvaluationCache`: the
  in-memory :class:`~repro.search.cache.EvaluationCache` plus a JSON-lines
  tier that persists estimates across processes and runs, with
  :func:`compact_cache_dir` compaction / GC (dedup, corrupt-line repair,
  age and size eviction),
* :mod:`repro.sweep.checkpoint` — incremental sweep checkpoint
  (``_checkpoint.jsonl``, appended atomically as each cell settles), the
  one on-disk record of a settled cell; powers
  ``SweepRunner(resume_from=...)`` / ``repro-codesign sweep --resume``,
  whose re-run cells take their cost hints from its failure records,
* :mod:`repro.sweep.compare` — :func:`compare`: journal-driven
  cross-strategy / cross-device report (text and JSON), and
  :func:`diff_results`: checkpoint-aware per-uid delta table between two
  saved runs.

Cross-machine distribution lives in :mod:`repro.shard`: pass a started
``repro.shard.LeaseCoordinator`` as ``SweepRunner(transport=...)`` and the
same grid is leased to remote workers over stdlib HTTP, checkpointed into
the same ``_checkpoint.jsonl``, byte-identical to a local run.

Quickstart::

    from repro.sweep import SweepRunner, build_grid, compare

    tasks = build_grid("pynq-z1,ultra96", "scd,random", [20.0, 30.0])
    result = SweepRunner(tasks, workers=4, cache_dir=".sweep-cache",
                         timeout_s=300.0, retries=1).run()
    print(result.summary())          # includes any failed cells
    print(compare(result).render())

    # A sweep that died mid-run restarts from its checkpoint and re-runs
    # only the failed / missing cells (journals reused byte-identically):
    result = SweepRunner(tasks, workers=4, cache_dir=".sweep-cache",
                         resume_from=".sweep-cache/_checkpoint.jsonl").run()
"""

from repro.sweep.checkpoint import (
    CHECKPOINT_FILENAME,
    CheckpointStatus,
    CheckpointWriter,
    compact_checkpoint,
    load_checkpoint,
)
from repro.sweep.compare import (
    DeviceWinner,
    DiffRow,
    ParetoPoint,
    StrategySummary,
    SweepComparison,
    SweepDiff,
    compare,
    diff_results,
    load_run,
)
from repro.sweep.disk_cache import (
    CacheDirStats,
    CompactionReport,
    DiskEvaluationCache,
    NamespaceStats,
    cache_dir_stats,
    coefficients_fingerprint,
    compact_cache_dir,
    read_cache_records,
)
from repro.sweep.spec import SweepSpec
from repro.sweep.runner import (
    PreparedTarget,
    SweepFailure,
    SweepOutcome,
    SweepResult,
    SweepRunner,
    SweepTask,
    build_grid,
    expected_cost,
    prepare_device,
    run_sweep_task,
)

__all__ = [
    "SweepTask",
    "SweepOutcome",
    "SweepFailure",
    "SweepResult",
    "SweepRunner",
    "PreparedTarget",
    "build_grid",
    "expected_cost",
    "prepare_device",
    "run_sweep_task",
    "DiskEvaluationCache",
    "CacheDirStats",
    "NamespaceStats",
    "CompactionReport",
    "cache_dir_stats",
    "coefficients_fingerprint",
    "compact_cache_dir",
    "read_cache_records",
    "SweepSpec",
    "CHECKPOINT_FILENAME",
    "CheckpointStatus",
    "CheckpointWriter",
    "load_checkpoint",
    "compact_checkpoint",
    "SweepComparison",
    "StrategySummary",
    "DeviceWinner",
    "ParetoPoint",
    "compare",
    "SweepDiff",
    "DiffRow",
    "diff_results",
    "load_run",
]
