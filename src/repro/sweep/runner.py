"""Process-based multi-device sweep engine with resilient scheduling.

A sweep fans a (device x clock x utilization x strategy x latency-target)
grid out across **worker processes**.  Each search runs serially inside its
cell; the sweep parallelises whole co-design searches, which are CPU-bound
Python, so processes are the right executor.  Every ingredient of a task is a picklable primitive
(:class:`SweepTask` carries names, numbers and a seed; the worker rebuilds
devices, estimators and flows on its side), which keeps the fan-out
start-method agnostic.

Execution is a **two-phase schedule**:

1. **Preparation** — the per-device analytical-model fit (co-design step 1)
   and bundle selection (step 2) are deterministic per (device, clock,
   utilization, top-bundles) and independent of the strategy / latency
   target, so they run *once per device* in the parent and are shipped to
   workers as a serializable :class:`PreparedTarget` artifact instead of
   being recomputed in every grid cell.
2. **Execution** — one attempt ledger, :meth:`SweepRunner.board`, owns
   every cell's queue, retry backoff, attempts, **timeout** and
   **retry**-or-fail verdict, drained in process: ``workers=1`` without a
   timeout calls each cell in-process, in grid order; otherwise each
   attempt is a call on long-lived :class:`WorkerProcesses`, leased
   longest-expected-first to up to ``workers`` slots (work stealing), and
   a process whose lease was revoked for its timeout is killed.  At
   ``workers >= 2`` the stealing is device-affine (locality-guided, after
   Acar, Blelloch and Blumofe, SPAA 2000; see
   :meth:`~repro.sweep.ledger.LeaseBoard.lease`), so each process mostly
   warms one device's memo and cache index.  Expected costs come from a
   deterministic budget heuristic, except for the cells a resume re-runs
   after a recorded failure, which cost what their failed attempts took.

A cell that keeps failing (timeout, raise, crash or a garbage return
value) ends up as a structured :class:`SweepFailure` in the
:class:`SweepResult` — the sweep always completes and reports, it never
hangs or silently drops cells.

Each task runs the remaining co-design pipeline (strategy-driven DNN
search, Auto-HLS refinement) and produces a :class:`SweepOutcome`: the
archivable :class:`~repro.search.session.SearchSession` journal plus cache
and timing accounting.  A task's journal depends only on the task itself —
never on the worker count, the dispatch order or the warmth of the disk
cache — so ``workers=8`` and ``workers=1`` produce identical journals.

When a cache directory is given, each cell's evaluation cache is a
:class:`~repro.sweep.disk_cache.DiskEvaluationCache`, an in-memory cache with
a persistent tier, so repeated sweeps and re-runs skip estimator calls
entirely.

The cache directory also hosts the **incremental checkpoint**
(``_checkpoint.jsonl``, see :mod:`repro.sweep.checkpoint`), the one
on-disk record of each settled cell, which the parent appends to the
moment the cell settles.  A sweep that dies mid-run — OOM, preemption, a
poisoned cell exhausting its retries — is restarted with
``SweepRunner(resume_from=...)`` (CLI: ``repro-codesign sweep
--resume``): checkpointed outcomes are reused verbatim (byte-identical
journals) and only the failed and missing cells re-execute.  A failure
record carries the time its attempts took, so a cell that kept timing out
brings its real cost into the resume: it is dispatched first, its
timeout scales with the time per attempt (``timeout_s`` acts as a floor
under ``timeout_scale x recorded seconds``), and retries back off
exponentially (deterministic, no jitter).
"""

from __future__ import annotations

import functools
import math
import pathlib
import time
from contextlib import suppress
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

import repro.telemetry as telemetry
from repro.backend import backend_for, backend_name_for, resolve_targets
from repro.search import available_strategies
from repro.utils.logging import get_logger
from repro.utils.serialization import dump_json, load_json, to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.analytical import AnalyticalModelCoefficients
    from repro.sweep.ledger import LeaseBoard, WorkerRegistry

logger = get_logger(__name__)


def _fields_payload(cls, payload: Mapping) -> dict:
    """The subset of ``payload`` matching ``cls``'s dataclass fields.

    Round-tripped records carry a ``__type__`` tag (and possibly fields
    from a newer format version); both are dropped instead of breaking
    reconstruction.
    """
    names = {f.name for f in dataclass_fields(cls)}
    return {key: value for key, value in payload.items() if key in names}


@dataclass(frozen=True)
class SweepTask:
    """One cell of the sweep grid: device, clock, utilization, strategy, target.

    Deliberately made of picklable primitives only; the worker process
    rebuilds the heavyweight objects (device, estimator, flow) from them.
    ``clock_mhz=None`` means the device's default clock.
    """

    device: str
    strategy: str
    fps: float
    tolerance_ms: float = 8.0
    iterations: int = 120
    num_candidates: int = 2
    top_bundles: int = 5
    seed: int = 2019
    clock_mhz: Optional[float] = None
    utilization: float = 1.0

    @property
    def backend(self) -> str:
        """Backend name of this cell, derived from the device string.

        The device string *is* the backend axis: legacy FPGA cells carry
        bare display names (``PYNQ-Z1``), other backends a prefix
        (``gpu:jetson-tx2``) — so no new serialized field is needed and
        pre-backend checkpoints round-trip byte-identically.
        """
        return backend_name_for(self.device)

    @property
    def name(self) -> str:
        """Short display name: the grid axes a human sweeps over.

        Deliberately *not* unique across search budgets — two cells
        differing only in ``iterations`` or ``seed`` share a name.  Every
        persistent keying (disk-cache shards, checkpoints) uses
        :attr:`uid` instead.
        """
        name = f"{self.device}-{self.strategy}-{self.fps:g}fps"
        if self.clock_mhz is not None:
            name += f"-{self.clock_mhz:g}MHz"
        if self.utilization != 1.0:
            name += f"-u{self.utilization:g}"
        return name

    @property
    def uid(self) -> str:
        """Fully qualified cell identity: :attr:`name` plus the budget.

        Folds in every remaining field (``tolerance_ms``, ``iterations``,
        ``num_candidates``, ``top_bundles``, ``seed``) so tasks that
        differ *only* in those can never alias each other in the
        disk-cache shard names or the checkpoint records.
        """
        return (
            f"{self.name}-t{self.tolerance_ms:g}-i{self.iterations}"
            f"-c{self.num_candidates}-b{self.top_bundles}-s{self.seed}"
        )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepTask":
        """Rebuild a task from its JSON view (``to_jsonable`` round trip)."""
        data = _fields_payload(cls, payload)
        if data.get("clock_mhz") is not None:
            data["clock_mhz"] = float(data["clock_mhz"])
        return cls(**data)

    @property
    def prep_key(self) -> tuple:
        """Preparation cells with equal keys share one :class:`PreparedTarget`.

        The model fit and bundle selection depend on the device, the
        accelerator clock, the utilization limit and how many bundles are
        selected — not on the strategy, the latency target or the seed.
        """
        return (self.device, self.clock_mhz, self.utilization, self.top_bundles)


def build_grid(
    devices: Union[str, Sequence[str]],
    strategies: Union[str, Sequence[str]],
    fps_targets: Sequence[float],
    *,
    tolerance_ms: float = 8.0,
    iterations: int = 120,
    num_candidates: int = 2,
    top_bundles: int = 5,
    seed: int = 2019,
    clocks_mhz: Optional[Sequence[float]] = None,
    utilizations: Sequence[float] = (1.0,),
) -> list[SweepTask]:
    """Build the target x clock x utilization x strategy x fps task grid.

    ``devices`` accepts target specs (``backend:device``, e.g.
    ``fpga:pynq-z1`` or ``gpu:jetson-tx2``; bare names default to the fpga
    backend) as a comma-separated string or a sequence, so one grid can mix
    backends.  ``strategies`` likewise accepts a comma string or sequence.
    Both are validated eagerly — an unknown backend prefix or per-backend
    device name raises a :class:`ValueError` listing the registered
    backends and their devices before any worker is spawned.
    ``clocks_mhz=None`` (the default) keeps every target at its default
    clock; an explicit clock list is validated against each target's
    supported range.  ``utilizations`` restricts the usable fraction of the
    device resources per cell.  The grid order (targets outermost, fps
    innermost) is deterministic, and every axis is deduplicated — duplicate
    cells would run twice and make two workers append to the same
    disk-cache shard.
    """
    targets = resolve_targets(devices)
    if isinstance(strategies, str):
        strategy_names = [part.strip() for part in strategies.split(",") if part.strip()]
    else:
        strategy_names = [str(part).strip() for part in strategies if str(part).strip()]
    strategy_names = list(dict.fromkeys(strategy_names))
    if not strategy_names:
        raise ValueError("At least one strategy is required")
    known = set(available_strategies())
    for name in strategy_names:
        if name not in known:
            raise ValueError(
                f"Unknown search strategy '{name}'; available: {', '.join(sorted(known))}"
            )
    fps_values = list(dict.fromkeys(float(fps) for fps in fps_targets))
    if not fps_values:
        raise ValueError("At least one FPS target is required")
    if any(fps <= 0 for fps in fps_values):
        raise ValueError("FPS targets must be positive")
    if tolerance_ms <= 0:
        raise ValueError("tolerance_ms must be positive")
    if iterations <= 0 or num_candidates <= 0 or top_bundles <= 0:
        raise ValueError("iterations, num_candidates and top_bundles must be positive")

    if clocks_mhz is None:
        clock_values: list[Optional[float]] = [None]
    else:
        clock_values = list(dict.fromkeys(float(clock) for clock in clocks_mhz))
        if not clock_values:
            raise ValueError("At least one clock frequency is required")
        for target in targets:
            for clock in clock_values:
                target.backend.validate_clock(target.device, clock)
    utilization_values = list(dict.fromkeys(float(u) for u in utilizations))
    if not utilization_values:
        raise ValueError("At least one utilization limit is required")
    if any(not 0.0 < u <= 1.0 for u in utilization_values):
        raise ValueError("utilization limits must be in (0, 1]")

    return [
        SweepTask(
            device=target.canonical,
            strategy=strategy,
            fps=float(fps),
            tolerance_ms=tolerance_ms,
            iterations=iterations,
            num_candidates=num_candidates,
            top_bundles=top_bundles,
            seed=seed,
            clock_mhz=clock,
            utilization=utilization,
        )
        for target in targets
        for clock in clock_values
        for utilization in utilization_values
        for strategy in strategy_names
        for fps in fps_values
    ]


# ----------------------------------------------------------------- preparation
@dataclass(frozen=True)
class PreparedTarget:
    """Per-target preparation artifact shared by every cell of that target.

    Carries the result of co-design steps 1 and 2 (for the FPGA backend:
    fitted analytical-model coefficients and the selected bundle ids, in
    selection order; fit-free backends such as the GPU roofline carry
    ``coefficients=None`` and their deterministic selection) so the
    per-cell workers can jump straight to step 3.  Picklable, so it ships
    to worker processes unchanged — the coefficients are bit-exact, not a
    JSON round-trip.  ``backend`` tags which backend prepared it; the
    default keeps artifacts from pre-backend wire payloads valid.
    """

    device: str
    clock_mhz: float
    utilization: float
    top_bundles: int
    coefficients: Optional["AnalyticalModelCoefficients"]
    selected_bundle_ids: tuple[int, ...]
    fingerprint: str
    prep_duration_s: float = 0.0
    backend: str = "fpga"

    def matches(self, task: SweepTask) -> bool:
        """True when this artifact is valid for ``task``.

        A task without an explicit clock means the target default, so the
        artifact's clock must equal that default — an artifact fitted at
        another clock carries wrong coefficients and must be rejected.
        """
        if (
            task.device != self.device
            or task.utilization != self.utilization
            or task.top_bundles != self.top_bundles
        ):
            return False
        if task.clock_mhz is not None:
            return task.clock_mhz == self.clock_mhz
        try:
            task_backend = backend_for(task.device)
            default_clock = task_backend.default_clock_mhz(
                task_backend.device_of(task.device)
            )
        except (KeyError, ValueError):  # pragma: no cover - unknown device fails later
            return False
        return default_clock == self.clock_mhz

    def as_dict(self) -> dict:
        """Compact JSON view (the full coefficients stay pickle-only)."""
        return {
            "device": self.device,
            "clock_mhz": self.clock_mhz,
            "utilization": self.utilization,
            "top_bundles": self.top_bundles,
            "selected_bundle_ids": list(self.selected_bundle_ids),
            "fingerprint": self.fingerprint,
            "prep_duration_s": self.prep_duration_s,
            "backend": self.backend,
        }

    @property
    def wire_key(self) -> str:
        """Stable reference for shipping this artifact exactly once per key.

        Mirrors :attr:`SweepTask.prep_key` (not the coefficients
        fingerprint: two preparations differing only in ``top_bundles`` or
        ``utilization`` share a fit but select different bundles, so the
        fingerprint alone would alias them).  Floats are rendered with
        ``repr`` — exact, like ``prep_key``'s value equality — so two
        distinct preparations can never alias one key.
        """
        return (
            f"{self.device}|{self.clock_mhz!r}|{self.utilization!r}"
            f"|{self.top_bundles}"
        )

    def to_wire(self) -> dict:
        """Full JSON view, coefficients included, for cross-machine shipping.

        Unlike :meth:`as_dict`, every fitted coefficient travels along (for
        fit-free backends there are none and the key is absent).  Python's
        JSON encoder emits the shortest round-tripping ``repr`` of each
        float, so a ``to_wire`` → ``from_wire`` trip is bit-exact and a
        remote worker produces journals byte-identical to an in-process run
        with the pickled artifact.
        """
        from dataclasses import fields as coeff_fields

        payload = self.as_dict()
        if self.coefficients is not None:
            payload["coefficients"] = {
                field.name: float(getattr(self.coefficients, field.name))
                for field in coeff_fields(type(self.coefficients))
            }
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping) -> "PreparedTarget":
        """Rebuild a shipped artifact from its :meth:`to_wire` JSON view.

        The ``fpga`` backend needs its fitted coefficients; fit-free
        backends ship without them.
        """
        from repro.hw.analytical import AnalyticalModelCoefficients

        backend = str(payload["backend"])
        coefficients_payload = payload.get("coefficients")
        if isinstance(coefficients_payload, Mapping):
            coefficients: Optional[AnalyticalModelCoefficients] = (
                AnalyticalModelCoefficients(
                    **{str(k): float(v) for k, v in coefficients_payload.items()}
                )
            )
        elif backend == "fpga":
            raise ValueError("wire payload is missing the fitted coefficients")
        else:
            coefficients = None
        return cls(
            device=str(payload["device"]),
            clock_mhz=float(payload["clock_mhz"]),
            utilization=float(payload["utilization"]),
            top_bundles=int(payload["top_bundles"]),
            coefficients=coefficients,
            selected_bundle_ids=tuple(int(b) for b in payload["selected_bundle_ids"]),
            fingerprint=str(payload["fingerprint"]),
            prep_duration_s=float(payload.get("prep_duration_s", 0.0)),
            backend=backend,
        )


def _task_flow(task: SweepTask):
    """Build the co-design flow for one sweep task (target resolved inside)."""
    from repro.core import CoDesignFlow, CoDesignInputs, LatencyTarget
    from repro.detection.task import DAC_SDC_TASK

    backend = backend_for(task.device)
    device = backend.device_of(task.device)
    clock = backend.validate_clock(device, task.clock_mhz) if task.clock_mhz is not None \
        else backend.default_clock_mhz(device)
    target = LatencyTarget(fps=task.fps, clock_mhz=clock, tolerance_ms=task.tolerance_ms)
    inputs = CoDesignInputs(
        task=DAC_SDC_TASK,
        device=device,
        latency_targets=(target,),
        utilization_limit=task.utilization,
    )
    flow = CoDesignFlow(
        inputs,
        candidates_per_bundle=task.num_candidates,
        top_n_bundles=task.top_bundles,
        scd_iterations=task.iterations,
        rng=task.seed,
        search_strategy=task.strategy,
        clock_mhz=clock,
        backend=backend,
    )
    return flow, device, target


def prepare_device(task: SweepTask) -> PreparedTarget:
    """Run co-design steps 1 and 2 once for a task's preparation cell.

    Both steps are deterministic for a given (device, clock, utilization,
    top-bundles) tuple, so the resulting artifact is valid for every grid
    cell sharing the task's :attr:`SweepTask.prep_key`.  On fit-free
    backends step 1 is a no-op and the artifact carries no coefficients.
    """
    start = time.perf_counter()
    with telemetry.trace("sweep.prep.device", device=task.device,
                         clock_mhz=task.clock_mhz, top_bundles=task.top_bundles,
                         backend=task.backend):
        flow, _, _ = _task_flow(task)
        flow.step1_modeling()
        _, _, selected = flow.step2_bundle_selection()
    return PreparedTarget(
        device=task.device,
        clock_mhz=flow.auto_hls.clock_mhz,
        utilization=task.utilization,
        top_bundles=task.top_bundles,
        coefficients=flow.auto_hls.coefficients,
        selected_bundle_ids=tuple(b.bundle_id for b in selected),
        fingerprint=flow.backend.engine_fingerprint(flow.auto_hls),
        prep_duration_s=time.perf_counter() - start,
        backend=flow.backend.name,
    )


@dataclass
class SweepOutcome:
    """Everything one sweep task produced (picklable, JSON-able)."""

    task: SweepTask
    journal: dict
    selected_bundles: list[int]
    num_candidates: int
    best_latency_ms: Optional[float]
    best_gap_ms: Optional[float]
    evaluations: int
    memory_hits: int
    memory_misses: int
    disk_hits: int
    disk_misses: int
    estimator_calls: int
    duration_s: float
    attempts: int = 1
    used_shared_prep: bool = False

    @property
    def disk_hit_rate(self) -> float:
        """Fraction of disk-layer requests served from disk (0 when unused)."""
        total = self.disk_hits + self.disk_misses
        return self.disk_hits / total if total else 0.0

    def as_dict(self) -> dict:
        """``to_jsonable(self)``, inserting the already plain journal as is
        (the checkpoint line, the wire view and :meth:`SweepResult.as_dict`)."""
        payload = to_jsonable(replace(self, journal={}))
        payload["journal"] = self.journal
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepOutcome":
        """Rebuild an outcome from its JSON view, journal included.

        The journal is already pure-JSON at creation time (see
        :func:`run_sweep_task`), so a load -> dump round trip is
        byte-identical — the property checkpoint/resume relies on.
        """
        data = _fields_payload(cls, payload)
        task = data.get("task")
        if not isinstance(task, Mapping):
            raise ValueError("outcome record is missing its task")
        data["task"] = SweepTask.from_dict(task)
        if not isinstance(data.get("journal"), dict):
            raise ValueError("outcome record is missing its journal")
        data["selected_bundles"] = [int(b) for b in data.get("selected_bundles", [])]
        return cls(**data)

    def summary(self) -> str:
        gap = f"{self.best_gap_ms:.2f} ms gap" if self.best_gap_ms is not None else "no candidate"
        line = (
            f"{self.task.name}: {self.num_candidates} candidates ({gap}), "
            f"{self.evaluations} evaluations, {self.estimator_calls} estimator calls"
        )
        if self.disk_hits or self.disk_misses:
            line += f", disk cache {self.disk_hit_rate:.0%} hit rate"
        line += f", {self.duration_s:.2f}s"
        if self.attempts > 1:
            line += f" (attempt {self.attempts})"
        return line


@dataclass
class SweepFailure:
    """Structured record of one grid cell that exhausted its retries."""

    task: SweepTask
    kind: str  # "timeout" | "error" | "crash" | "invalid-result"
    error: str
    attempts: int
    duration_s: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.task.name}: FAILED ({self.kind}) after "
            f"{self.attempts} attempt{'s' if self.attempts != 1 else ''} — {self.error}"
        )

    def as_dict(self) -> dict:
        return {
            "task": to_jsonable(self.task),
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "duration_s": self.duration_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepFailure":
        """Rebuild a failure record from its JSON view."""
        data = _fields_payload(cls, payload)
        task = data.get("task")
        if not isinstance(task, Mapping):
            raise ValueError("failure record is missing its task")
        # A resume divides the duration by the attempts for the cell's cost hint.
        if not isinstance(data.get("attempts"), int) \
                or not isinstance(data.get("duration_s", 0.0), (int, float)):
            raise ValueError("failure record has a malformed attempt count or duration")
        data["task"] = SweepTask.from_dict(task)
        return cls(**data)


def run_sweep_task(
    task: SweepTask,
    cache_dir: Optional[str] = None,
    prepared: Optional[PreparedTarget] = None,
) -> SweepOutcome:
    """Execute one sweep task (this is the worker-process function).

    When ``prepared`` is given (and matches the task), co-design steps 1
    and 2 are skipped and the artifact's coefficients / bundle selection
    are applied instead; the journal is identical either way, because the
    preparation is deterministic and the search-side evaluation cache is
    reset when the search starts.
    """
    with telemetry.trace("sweep.cell", uid=task.uid, device=task.device,
                         strategy=task.strategy, backend=task.backend):
        return _run_sweep_task(task, cache_dir, prepared)


def _run_sweep_task(
    task: SweepTask,
    cache_dir: Optional[str],
    prepared: Optional[PreparedTarget],
) -> SweepOutcome:
    # Imported here so a forked/spawned worker resolves everything locally.
    from repro.core.auto_dnn import AutoDNN
    from repro.core.auto_hls import synthesis_estimate
    from repro.core.bundle_generation import get_bundle
    from repro.search import SearchSession
    from repro.sweep.disk_cache import DiskEvaluationCache

    start = time.perf_counter()
    flow, _, target = _task_flow(task)
    if prepared is not None and not prepared.matches(task):
        raise ValueError(
            f"PreparedTarget for {prepared.device}@{prepared.clock_mhz:g}MHz "
            f"does not match task {task.name}"
        )
    if prepared is not None:
        if prepared.coefficients is not None:
            flow.auto_hls.coefficients = prepared.coefficients
            if flow.evaluator is not None:
                flow.evaluator.coefficients = prepared.coefficients
        selected = [get_bundle(bundle_id) for bundle_id in prepared.selected_bundle_ids]
    else:
        flow.step1_modeling()
        _, _, selected = flow.step2_bundle_selection()

    # The disk cache can only exist after the model fit: its namespace
    # embeds the engine's model fingerprint (the fitted coefficients on the
    # FPGA backend, the roofline constants on the GPU one) so a refit can
    # never serve stale estimates.  The fit is deterministic per target, so
    # repeated sweeps land in the same namespace and hit.  The namespace
    # device is the task's canonical device string — identical to the
    # legacy display name for FPGA cells.  A synthesis report depends on no
    # coefficient, so step 3's synthesis results get one namespace per
    # device and clock; the outcome's counters count the estimates only.
    disk: Optional[DiskEvaluationCache] = None
    if cache_dir is not None:
        disk = DiskEvaluationCache(
            flow.auto_hls.estimate,
            cache_dir,
            device=task.device,
            clock_mhz=flow.auto_hls.clock_mhz,
            context=flow.backend.engine_fingerprint(flow.auto_hls),
            # Shards are uid-keyed: two cells differing only in the search
            # budget or seed must not append to the same shard file.
            shard=task.uid,
        )
        synthesis = None
        if getattr(flow.auto_hls, "generate", None) is not None:
            synthesis = DiskEvaluationCache(
                functools.partial(synthesis_estimate, flow.auto_hls),
                cache_dir,
                device=task.device,
                clock_mhz=flow.auto_hls.clock_mhz,
                context="synth",
                shard=task.uid,
            )
        flow.attach_evaluation_cache(disk, synthesis_cache=synthesis)

    # Journal metadata excludes worker count, dispatch order, preparation mode
    # and cache warmth on purpose: the journal of a task must be identical
    # across execution modes.  The device value is the canonical device
    # string (== the legacy display name for FPGA cells, byte-identical).
    session = SearchSession(
        name=task.name,
        metadata={
            "device": task.device,
            "strategy": task.strategy,
            "fps": task.fps,
            "tolerance_ms": task.tolerance_ms,
            "iterations": task.iterations,
            "num_candidates": task.num_candidates,
            "top_bundles": task.top_bundles,
            "seed": task.seed,
            "clock_mhz": flow.auto_hls.clock_mhz,
            "utilization": task.utilization,
        },
    )
    candidates = flow.step3_search(selected, session=session)

    best = AutoDNN.best_per_target(candidates, [target]).get(target)
    gaps = [abs(c.latency_ms - target.latency_ms) for c in candidates]
    memory_stats = flow.auto_dnn.cache.stats()
    disk_stats = disk.disk_stats() if disk is not None else None
    return SweepOutcome(
        task=task,
        journal=session.as_dict(),
        selected_bundles=[b.bundle_id for b in selected],
        num_candidates=len(candidates),
        best_latency_ms=best.latency_ms if best is not None else None,
        best_gap_ms=min(gaps) if gaps else None,
        evaluations=len(session.records),
        memory_hits=memory_stats.hits,
        memory_misses=memory_stats.misses,
        disk_hits=disk_stats.hits if disk_stats else 0,
        disk_misses=disk_stats.misses if disk_stats else 0,
        estimator_calls=disk_stats.misses if disk_stats else memory_stats.misses,
        duration_s=time.perf_counter() - start,
        used_shared_prep=prepared is not None,
    )


def expected_cost(task: SweepTask, hints: Optional[Mapping[str, float]] = None) -> float:
    """Expected wall-clock cost of one cell, for longest-expected-first order.

    A recorded time per attempt (``hints``, keyed by task uid: the failure
    records a resume read) wins when present; otherwise a deterministic
    budget heuristic — evaluation budget scaled by the candidate count —
    keeps the ordering stable across runs.
    """
    hinted = (hints or {}).get(task.uid)
    if isinstance(hinted, (int, float)) and not isinstance(hinted, bool):
        return float(hinted)
    return float(task.iterations * task.num_candidates * task.top_bundles)


@dataclass
class SweepResult:
    """Outcome of one :meth:`SweepRunner.run` call."""

    outcomes: list[SweepOutcome]
    workers: int
    cache_dir: Optional[str] = None
    wall_time_s: float = 0.0
    failures: list[SweepFailure] = field(default_factory=list)
    preparations: list[PreparedTarget] = field(default_factory=list)
    prep_time_s: float = 0.0
    #: Cells reused verbatim from a checkpoint (resume).
    reused: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def estimator_calls(self) -> int:
        return sum(outcome.estimator_calls for outcome in self.outcomes)

    @property
    def ok(self) -> bool:
        """True when every grid cell produced an outcome."""
        return not self.failures

    def summary(self) -> str:
        mode = f"{self.workers} process{'es' if self.workers != 1 else ''}"
        header = (
            f"Sweep: {len(self.outcomes)} tasks on {mode}, "
            f"{self.estimator_calls} estimator calls, {self.wall_time_s:.2f}s wall"
        )
        if self.reused:
            header += f" ({self.reused} reused from checkpoint)"
        if self.preparations:
            header += f" ({len(self.preparations)} shared preparations, {self.prep_time_s:.2f}s)"
        if self.failures:
            header += f", {len(self.failures)} FAILED"
        lines = [header]
        lines.extend(f"  {outcome.summary()}" for outcome in self.outcomes)
        lines.extend(f"  {failure.summary()}" for failure in self.failures)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "wall_time_s": self.wall_time_s,
            "prep_time_s": self.prep_time_s,
            "reused": self.reused,
            "preparations": [prep.as_dict() for prep in self.preparations],
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
            "failures": [failure.as_dict() for failure in self.failures],
        }

    def save(self, path):
        """Write the result (journals included) as deterministic JSON."""
        return dump_json(self.as_dict(), path)

    @classmethod
    def load(cls, path) -> "SweepResult":
        """Load a result previously written by :meth:`save`, for ``compare``.

        Outcomes and failures round-trip fully (journals included); a
        resume reads the checkpoint instead.  Also accepts the
        ``{"sweep": ..., "comparison": ...}`` report files the CLI writes.
        ``preparations`` are *not* reconstructed: the fitted coefficients
        are pickle-only and deliberately excluded from the JSON view.
        """
        payload = load_json(path)
        if not isinstance(payload, dict):
            raise ValueError(f"{path} does not contain a sweep result")
        if "outcomes" not in payload and isinstance(payload.get("sweep"), dict):
            payload = payload["sweep"]
        if not isinstance(payload.get("outcomes"), list):
            raise ValueError(f"{path} does not contain a sweep result")
        return cls(
            outcomes=[SweepOutcome.from_dict(o) for o in payload["outcomes"]],
            workers=int(payload.get("workers", 1)),
            cache_dir=payload.get("cache_dir"),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            failures=[SweepFailure.from_dict(f) for f in payload.get("failures", [])],
            prep_time_s=float(payload.get("prep_time_s", 0.0)),
            reused=int(payload.get("reused", 0)),
        )


def execute_cell(task_fn, task, cache_dir, prepared) -> tuple[str, object, float]:
    """Run one cell attempt; return ``(kind, value, duration_s)``: ``ok`` with
    the :class:`SweepOutcome`, else ``error`` (it raised an ``Exception``;
    Ctrl-C propagates) or ``invalid-result`` with a message."""
    start = time.perf_counter()
    try:
        value = task_fn(task, cache_dir, prepared)
    except Exception as exc:  # noqa: BLE001 - converted to a failure verdict
        return ("error", f"{type(exc).__name__}: {exc}", time.perf_counter() - start)
    if not isinstance(value, SweepOutcome):
        return (
            "invalid-result",
            f"worker returned {type(value).__name__!s} instead of SweepOutcome",
            time.perf_counter() - start,
        )
    return ("ok", value, time.perf_counter() - start)


def _serve(task_fn: Callable, conn, inherited) -> None:
    """Child loop of :class:`WorkerProcesses`: reply ``(kind, value,
    telemetry snapshot)`` per :func:`execute_cell`; return on the stop
    message, EOF, a broken pipe (the pool closed, or the parent died) or
    Ctrl-C while idle."""
    # A parent-side end left open here would keep its pipe alive after the
    # parent dies, and a child blocked on that pipe would never exit.
    for end in inherited:
        end.close()
    while True:
        try:
            args = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if args is None:
            return
        telemetry.reset()  # this call's measurements only; the parent merges them
        try:
            kind, value, _ = execute_cell(task_fn, *args)
        except BaseException as exc:  # noqa: BLE001 - Ctrl-C or exit mid-cell
            kind, value = "error", f"{type(exc).__name__}: {exc}"
        try:
            conn.send((kind, value, telemetry.snapshot()))
        except OSError:
            return
        except Exception as exc:  # unpicklable result: report instead of dying
            with suppress(OSError):
                conn.send(("error", f"unpicklable task result: {exc!r}", None))


def _reap(process, conn) -> None:
    """Join ``process`` (SIGKILL after a one-second grace) and close its pipe."""
    process.join(timeout=1.0)
    if process.is_alive():  # pragma: no cover - hard kill
        process.kill()
        process.join(timeout=5.0)
    conn.close()


class WorkerProcesses:
    """Long-lived forked processes, each running many attempts of one ``task_fn``.

    ``task_fn`` is bound as a ``Process`` argument when a process forks.
    An attempt goes to an idle process, the one that last ran its prep key
    if any; one forks only when none is idle, and a process is replaced
    only after it dies or is killed.  Per-process state (the evaluator
    memo, the cache index) thus carries over from cell to cell.
    :meth:`close` reaps every process, so their CPU time reaches the
    parent's ``RUSAGE_CHILDREN``.
    """

    def __init__(self, task_fn: Callable) -> None:
        import multiprocessing

        self._task_fn = task_fn
        self._context = multiprocessing.get_context()
        self._idle: list[tuple] = []  # (process, conn, prep key it last ran)
        self._busy: dict = {}  # key -> (process, conn, monotonic start, prep key)

    @property
    def busy(self) -> int:
        """Attempts in flight."""
        return len(self._busy)

    def free_keys(self, slots: int) -> list[Optional[tuple]]:
        """One entry per free slot, for :meth:`LeaseBoard.lease`: the prep key
        each idle process last ran, then ``None`` for each slot with no process."""
        keys = [prep_key for _, _, prep_key in self._idle]
        return keys + [None] * (slots - len(keys))

    def submit(self, key, task, cache_dir, prepared) -> None:
        """Start one attempt on an idle process, preferring the one that last
        ran ``task``'s prep key; fork one if none is idle."""
        if self._idle:
            position = next((i for i, idle in enumerate(self._idle)
                             if idle[2] == task.prep_key), -1)
            process, conn, _ = self._idle.pop(position)
        else:
            conn, child_end = self._context.Pipe()
            inherited = [conn] + [end for _, end, _, _ in self._busy.values()]
            process = self._context.Process(
                target=_serve, args=(self._task_fn, child_end, inherited), daemon=True)
            process.start()
            child_end.close()
        with suppress(OSError):  # it died while idle: wait() reads the EOF as a crash
            conn.send((task, cache_dir, prepared))
        self._busy[key] = (process, conn, time.monotonic(), task.prep_key)

    def wait(self, timeout: Optional[float] = None) -> list[tuple]:
        """Attempts settled within ``timeout``, as ``(key, kind, value, seconds)``:
        an :func:`execute_cell` kind, or ``crash`` for a process that died
        without a reply.  Each attempt's telemetry snapshot is merged here."""
        from multiprocessing import connection

        ready = connection.wait([conn for _, conn, _, _ in self._busy.values()], timeout)
        settled = []
        for key, (process, conn, started, prep_key) in list(self._busy.items()):
            # Re-poll the rest: a reply that landed after the wait() snapshot
            # must be reported before the timeout verdict the caller asks for next.
            if conn not in ready and not conn.poll():
                continue
            del self._busy[key]
            try:
                kind, value, snapshot = conn.recv()
            except (EOFError, OSError):
                _reap(process, conn)
                kind, value = "crash", "worker process died without a result"
            else:
                telemetry.merge(snapshot)
                self._idle.append((process, conn, prep_key))
            settled.append((key, kind, value, time.monotonic() - started))
        return settled

    def kill(self, key) -> None:
        """Stop the process running ``key``'s attempt; the next submit forks anew."""
        process, conn, _, _ = self._busy.pop(key)
        process.terminate()
        _reap(process, conn)

    def close(self) -> None:
        """Stop idle processes by message and busy ones by signal; reap all."""
        for _, conn, _ in self._idle:
            with suppress(OSError):
                conn.send(None)
        for key in list(self._busy):
            self.kill(key)
        for process, conn, _ in self._idle:
            _reap(process, conn)
        self._idle.clear()


class SweepRunner:
    """Fan a sweep grid out across worker processes, resiliently.

    ``workers=1`` (without a timeout) runs every task in-process, in grid
    order (serial, easiest to debug); otherwise the attempts run on
    :class:`WorkerProcesses`, up to ``workers`` long-lived processes reaped
    before :meth:`run` returns: cells go longest-expected-first, an idle
    process pulls the next one (at ``workers >= 2``, preferring one of the
    device it last ran), and each attempt runs under the per-task
    wall-clock ``timeout_s``.  Either way the run's :meth:`board` retries
    a failed attempt up to ``retries`` times, after a backoff.

    Preparation (model fit + bundle selection) runs serially in the parent
    before any worker forks, once per unique :attr:`SweepTask.prep_key`
    (see :class:`PreparedTarget`).  Results are collected in task order in
    every mode, and each task's journal is independent of the execution
    mode, so all modes are interchangeable.

    ``resume_from`` is a checkpoint file (``_checkpoint.jsonl``, this
    run's or another directory's): cells with a recorded outcome are
    reused verbatim and only the failed / missing cells execute, each
    recorded failure's time per attempt being that cell's cost hint.  A
    fresh run (``resume_from=None``) takes no hints.  ``retry_backoff_s``
    is the base of the deterministic exponential retry backoff (0
    disables it); ``timeout_scale`` scales the per-cell timeout from the
    cell's cost hint, with ``timeout_s`` as the floor.

    ``transport`` swaps the execution phase out without touching any of
    the surrounding machinery (grid validation, shared preparation,
    resume, checkpointing, cost hints, result assembly): an object with an
    ``execute(runner, order, preparations)`` method receives the cost-
    ordered cell indices still to run and returns
    ``(outcomes_by_index, failures_by_index)``.  ``transport=None`` (the
    default) drains ``runner.board(order, ...)`` in process; a started
    :class:`repro.shard.LeaseCoordinator` serves that same board to remote
    workers over HTTP instead and closes once it settled, so every mode
    shares one retry, backoff and timeout policy and streams each settled
    cell into the incremental checkpoint.

    :meth:`run` raises the ``OSError`` of the first checkpoint append that
    failed (a full disk) instead of returning a result the checkpoint lost.
    """

    #: Upper bound on one exponential retry-backoff delay (seconds).
    MAX_BACKOFF_S = 60.0

    #: Ceiling on hint-scaled timeouts, as a multiple of ``timeout_s``.
    #: A permanently stuck cell records ~its own timeout as the cost hint,
    #: so an uncapped ``timeout_scale x hint`` would grow geometrically
    #: across resumed runs; cells genuinely slower than this ceiling need a
    #: larger ``timeout_s``, not an unbounded one.
    MAX_TIMEOUT_GROWTH = 10.0

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        workers: int = 1,
        cache_dir: Optional[str] = None,
        *,
        timeout_s: Optional[float] = None,
        timeout_scale: float = 3.0,
        retries: int = 1,
        retry_backoff_s: float = 0.1,
        resume_from: Union[str, pathlib.Path, None] = None,
        task_fn: Callable[..., SweepOutcome] = run_sweep_task,
        transport=None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not tasks:
            raise ValueError("At least one sweep task is required")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if timeout_scale <= 0:
            raise ValueError("timeout_scale must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        seen: set[str] = set()
        for task in tasks:
            if task.uid in seen:
                raise ValueError(
                    f"duplicate sweep task '{task.uid}': identical cells would "
                    "race on the same cache shard and checkpoint record"
                )
            seen.add(task.uid)
        self.tasks = list(tasks)
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.timeout_s = timeout_s
        self.timeout_scale = timeout_scale
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        if resume_from is not None and pathlib.Path(resume_from).suffix != ".jsonl":
            raise ValueError(
                f"resume source {resume_from} is not a checkpoint: resume from "
                "a _checkpoint.jsonl (compare --diff reads result JSON)"
            )
        self.resume_from = resume_from
        self.task_fn = task_fn
        if transport is not None and not callable(getattr(transport, "execute", None)):
            raise TypeError(
                "transport must provide an execute(runner, order, preparations) method"
            )
        self.transport = transport
        if not callable(clock):
            raise TypeError("clock must be a callable returning seconds since the epoch")
        #: Wall-clock source for every persisted timestamp (checkpoint
        #: records, telemetry sidecar).  Injected so tests can
        #: freeze time and so telemetry ``ts`` values correlate with
        #: checkpoint ``ts`` values.
        self.clock = clock
        # Per-run state (filled by run()): the resumed failures' cost hints
        # that order board() and scale its timeouts, the incremental
        # checkpoint writer and the resume source.
        self._hints: dict[str, float] = {}
        self._writer = None
        self._write_error: Optional[OSError] = None
        self._resume_checkpoint: Optional[tuple[pathlib.Path, set[str]]] = None

    # ------------------------------------------------------- adaptive knobs
    def _effective_timeout(self, task: SweepTask, hints: Mapping[str, float]) -> Optional[float]:
        """Per-cell timeout: ``timeout_s`` floor, scaled from the cost hint.

        A flat per-sweep timeout punishes legitimately slow cells and
        wastes hours on cheap stuck ones.  When a real recorded duration
        exists for the cell, the effective timeout is
        ``max(timeout_s, timeout_scale * hint)``, capped at
        ``timeout_s * MAX_TIMEOUT_GROWTH``; the heuristic fallback of
        :func:`expected_cost` is *not* used here — it is a unitless budget,
        not seconds.
        """
        if self.timeout_s is None:
            return None
        hinted = hints.get(task.uid)
        if isinstance(hinted, (int, float)) and not isinstance(hinted, bool) and hinted > 0:
            return min(
                max(self.timeout_s, self.timeout_scale * float(hinted)),
                self.timeout_s * self.MAX_TIMEOUT_GROWTH,
            )
        return self.timeout_s

    def _backoff_delay(self, failed_attempts: int) -> float:
        """Deterministic exponential backoff before retry N (no jitter)."""
        if self.retry_backoff_s <= 0 or failed_attempts <= 0:
            return 0.0
        return min(self.retry_backoff_s * (2.0 ** (failed_attempts - 1)),
                   self.MAX_BACKOFF_S)

    # ------------------------------------------------------- resume support
    def _load_resume(self) -> dict[int, SweepOutcome]:
        """Map grid indices to checkpointed outcomes reused verbatim.

        Records whose uid is not in the current grid (the checkpoint
        belongs to a different / edited grid) are ignored with a warning;
        prior *failures* are never reused — those cells re-run, and each
        one's time per attempt becomes its cost hint.  A fresh run reads
        no checkpoint and takes no hints.
        """
        self._resume_checkpoint = None
        self._hints = {}
        if self.resume_from is None:
            return {}
        path = pathlib.Path(self.resume_from)
        if not path.exists():
            raise FileNotFoundError(f"resume source {path} does not exist")
        from repro.sweep.checkpoint import load_checkpoint

        status = load_checkpoint(path)
        prior = dict(status.outcomes)
        self._hints = {
            uid: failure.duration_s / failure.attempts
            for uid, failure in status.failures.items()
            if failure.duration_s > 0 and failure.attempts > 0
        }
        if status.grid and set(status.grid) != {t.uid for t in self.tasks}:
            logger.warning(
                "resume: checkpoint %s was written for a different grid "
                "(%d recorded vs %d current cells); only matching cells "
                "are reused", path, len(status.grid), len(self.tasks),
            )
        # Remember what the file holds so _open_checkpoint need not
        # parse it a second time when it is this run's checkpoint.
        self._resume_checkpoint = (path.resolve(), set(prior))
        by_uid = {task.uid: index for index, task in enumerate(self.tasks)}
        reused: dict[int, SweepOutcome] = {}
        unknown = 0
        for uid, outcome in prior.items():
            index = by_uid.get(uid)
            if index is None:
                unknown += 1
            else:
                reused[index] = outcome
        if unknown:
            logger.warning(
                "resume: ignoring %d recorded cell(s) not in the current grid "
                "(grid changed since the checkpoint was written)", unknown,
            )
        if reused:
            logger.info("resume: reusing %d/%d checkpointed cell(s)",
                        len(reused), len(self.tasks))
        return reused

    def _open_checkpoint(self, reused: Mapping[int, SweepOutcome]):
        """Start (or continue) the incremental checkpoint for this run."""
        if self.cache_dir is None:
            return None
        from repro.sweep.checkpoint import CHECKPOINT_FILENAME, CheckpointWriter

        path = pathlib.Path(self.cache_dir) / CHECKPOINT_FILENAME
        recorded = None
        if self._resume_checkpoint is not None \
                and self._resume_checkpoint[0] == path.resolve():
            recorded = self._resume_checkpoint[1]
        writer = CheckpointWriter(
            path,
            grid=[task.uid for task in self.tasks],
            fresh=self.resume_from is None,
            recorded=recorded,
            clock=self.clock,
        )
        # A resume from another directory's checkpoint leaves this one
        # without the reused cells; back them in so this run's checkpoint
        # is itself complete and resumable.
        for outcome in reused.values():
            if not writer.has_outcome(outcome.task.uid):
                writer.record_outcome(outcome)
        return writer

    def _checkpoint(self, record: Callable, settled) -> None:
        """Append one settled cell, keeping the first failed append for :meth:`run`."""
        try:
            record(settled)
        except OSError as exc:
            self._write_error = self._write_error or exc
            raise

    def settle_outcome(self, outcome: SweepOutcome) -> None:
        """Checkpoint one settled outcome (the :meth:`board`'s ``on_outcome``)."""
        if self._writer is not None:
            self._checkpoint(self._writer.record_outcome, outcome)
        reg = telemetry.registry()
        if reg is not None:
            reg.histogram("sweep.cell.duration_s").observe(outcome.duration_s)
            telemetry.event(
                "sweep.cell.completed", uid=outcome.task.uid,
                attempts=outcome.attempts, duration_s=round(outcome.duration_s, 6),
            )

    def settle_failure(self, failure: SweepFailure) -> None:
        """Checkpoint one settled failure (the :meth:`board`'s ``on_failure``)."""
        if self._writer is not None:
            self._checkpoint(self._writer.record_failure, failure)
        telemetry.event(
            "sweep.cell.failed", uid=failure.task.uid,
            kind=failure.kind, attempts=failure.attempts,
        )

    def board(
        self,
        order: Sequence[int],
        *,
        workers: "WorkerRegistry",
        lease_ttl_s: float,
        job: Optional[str] = None,
    ) -> "LeaseBoard":
        """The attempt ledger over ``order``'s cells, for the local drain and
        the lease coordinator alike: this run's retries, backoff and
        hint-scaled timeouts, settling into its checkpoint."""
        from repro.sweep.ledger import LeaseBoard

        return LeaseBoard(
            {index: self.tasks[index] for index in order},
            list(order),
            workers=workers,
            retries=self.retries,
            backoff=self._backoff_delay,
            timeouts={index: self._effective_timeout(self.tasks[index], self._hints)
                      for index in order},
            costs={index: expected_cost(self.tasks[index], self._hints) for index in order},
            lease_ttl_s=lease_ttl_s,
            on_outcome=lambda index, outcome: self.settle_outcome(outcome),
            on_failure=lambda index, failure: self.settle_failure(failure),
            job=job,
        )

    # ----------------------------------------------------------- preparation
    def _prepare_devices(self, tasks: Sequence[SweepTask]) -> dict[tuple, PreparedTarget]:
        """One :func:`prepare_device` per unique prep key, serially in the parent.

        It runs before any worker process forks, and it is cheap next to
        the cells (hundredths of a second per key on the paper grid).
        """
        unique: dict[tuple, SweepTask] = {}
        for task in tasks:
            unique.setdefault(task.prep_key, task)
        return {key: prepare_device(task) for key, task in unique.items()}

    # -------------------------------------------------------------- telemetry
    def _open_telemetry_sink(self):
        """Attach the ``_telemetry.jsonl`` sidecar when telemetry is on.

        Parent-process only: worker processes ship snapshots back over
        their result channels instead of writing to the file, so the
        sidecar sees one writer and each line is an atomic fsynced append.
        """
        if self.cache_dir is None or not telemetry.enabled():
            return None
        if telemetry.sink() is not None:
            # An outer owner (the job service's root sidecar) is already
            # attached; events keep flowing there — with job labels — and
            # this runner must not clobber or close it.
            return None
        from repro.telemetry import TELEMETRY_FILENAME, TelemetrySink

        path = pathlib.Path(self.cache_dir) / TELEMETRY_FILENAME
        sink = TelemetrySink(str(path), fresh=self.resume_from is None,
                             clock=self.clock)
        telemetry.set_sink(sink)
        return sink

    def _record_run_telemetry(self, result: SweepResult) -> None:
        """Run-level gauges plus a final full snapshot into the sidecar."""
        reg = telemetry.registry()
        if reg is None:
            return
        reg.gauge("sweep.cells.total").set(len(self.tasks))
        reg.gauge("sweep.cells.completed").set(len(result.outcomes))
        reg.gauge("sweep.cells.failed").set(len(result.failures))
        reg.gauge("sweep.cells.reused").set(result.reused)
        reg.gauge("sweep.workers").set(self.workers)
        reg.gauge("sweep.wall_time_s").set(result.wall_time_s)
        reg.gauge("sweep.prep_time_s").set(result.prep_time_s)
        sink = telemetry.sink()
        if sink is not None:
            sink.write_snapshot(reg.snapshot())

    # ------------------------------------------------------------- execution
    def run(self) -> SweepResult:
        sink = self._open_telemetry_sink()
        try:
            result = self._run()
            self._record_run_telemetry(result)
            return result
        finally:
            if sink is not None:
                telemetry.set_sink(None)

    def _run(self) -> SweepResult:
        start = time.perf_counter()

        reused = self._load_resume()
        to_run = [i for i in range(len(self.tasks)) if i not in reused]

        preparations: dict[tuple, PreparedTarget] = {}
        if to_run:
            with telemetry.trace("sweep.prep", cells=len(to_run)) as prep_span:
                preparations = self._prepare_devices([self.tasks[i] for i in to_run])
                prep_span.annotate(preparations=len(preparations))
        prep_time = time.perf_counter() - start

        order = sorted(
            to_run,
            key=lambda index: (-expected_cost(self.tasks[index], self._hints), index),
        )

        self._write_error = None
        self._writer = self._open_checkpoint(reused)
        try:
            if not to_run:
                outcomes_by_index: dict[int, SweepOutcome] = {}
                failures_by_index: dict[int, SweepFailure] = {}
            elif self.transport is not None:
                outcomes_by_index, failures_by_index = \
                    self.transport.execute(self, order, preparations)
            else:
                outcomes_by_index, failures_by_index = self._run_cells(order, preparations)
        finally:
            self._writer = None
        if self._write_error is not None:  # raised on a transport's thread
            raise self._write_error

        failures = [failures_by_index[i] for i in sorted(failures_by_index)]
        outcomes_by_index.update(reused)
        outcomes = [outcomes_by_index[i] for i in sorted(outcomes_by_index)]
        wall = time.perf_counter() - start
        logger.info(
            "sweep finished: %d/%d tasks in %.2fs (%d failed, %d reused)",
            len(outcomes), len(self.tasks), wall, len(failures), len(reused),
        )
        return SweepResult(
            outcomes=outcomes,
            workers=self.workers,
            cache_dir=self.cache_dir,
            wall_time_s=wall,
            failures=failures,
            preparations=list(preparations.values()),
            prep_time_s=prep_time,
            reused=len(reused),
        )

    def _run_cells(self, order, preparations):
        """Drain this run's :meth:`board` in process: lease, heartbeat, wait, report.

        ``workers=1`` without a timeout queues ``order`` in grid order and
        calls each cell in-process (anything but an ``Exception``, such as
        ``KeyboardInterrupt``, propagates); otherwise each attempt runs on
        one of ``workers`` :class:`WorkerProcesses` slots, which at
        ``workers >= 2`` lease by the prep key their processes last ran.
        The heartbeat after leasing returns revoked leases, whose processes
        are killed.  What settled is reported before the next heartbeat, so
        a reply that landed beats its timeout.
        """
        from repro.sweep.ledger import WAKE_SLACK_S, WorkerRegistry

        inline = self.workers == 1 and self.timeout_s is None
        registry = WorkerRegistry()
        # The drain heartbeats every pass, so its leases never expire.
        board = self.board(sorted(order) if inline else order,
                           workers=registry, lease_ttl_s=math.inf)
        worker = registry.register("local")
        pool = WorkerProcesses(self.task_fn)  # forks on the first submit
        running: dict[str, str] = {}  # lease id -> uid of each forked attempt
        try:
            while not board.done:
                settled = []  # (lease id, uid, kind, value, seconds)
                free = self.workers - len(running)
                keys = pool.free_keys(free) if self.workers > 1 else None
                for cell in board.lease(worker, free, keys):
                    args = (cell.task, self.cache_dir, preparations.get(cell.task.prep_key))
                    if inline:
                        settled.append((cell.lease_id, cell.task.uid,
                                        *execute_cell(self.task_fn, *args)))
                    else:
                        pool.submit(cell.lease_id, *args)
                        running[cell.lease_id] = cell.task.uid
                # After leasing, which can revoke too, so that every attempt
                # left running holds a live lease whose deadline bounds the wait.
                lost = board.heartbeat(worker, list(running))
                for lease_id in lost:
                    del running[lease_id]
                    pool.kill(lease_id)
                if not settled and not lost:
                    now = time.monotonic()
                    deadline = board.next_deadline(now)
                    wait_s = None if deadline is None \
                        else max(deadline - now, 0.0) + WAKE_SLACK_S
                    if running:
                        settled = [(lease_id, running.pop(lease_id), kind, value, seconds)
                                   for lease_id, kind, value, seconds in pool.wait(wait_s)]
                    elif wait_s is not None:  # every queued cell is backing off
                        time.sleep(wait_s)
                for lease_id, uid, kind, value, seconds in settled:
                    if kind == "ok":
                        board.report(worker, lease_id, uid, outcome=value, duration_s=seconds)
                    else:
                        board.report(worker, lease_id, uid, error=value, kind=kind,
                                     duration_s=seconds)
        finally:
            pool.close()
        return dict(board.outcomes), dict(board.failures)
