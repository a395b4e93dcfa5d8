"""Benchmark-side span tracer: self-times of the layers, timed from outside.

Nothing in ``src/`` is instrumented for this.  While a traced repetition
runs, :class:`Tracer` replaces a fixed list of public functions and methods
(plus the two disk-cache write helpers every public estimate path funnels
through) with wrappers that push a span on a per-thread stack.  When a span
ends, its duration goes to its parent's child total, and its *self time* —
duration minus the time its child spans covered — goes to the layer.
:meth:`Tracer.uninstall` restores every original, so untraced repetitions
in the same process run the unmodified program.

Grid cells that run in forked worker processes (the stealing scheduler and
pooled preparation) inherit the wrappers.  A child drops the parent's
totals on its first span and, after each top-level span, writes its own
totals to ``<spill_dir>/<pid>.json``; :meth:`Tracer.collect` folds those
files back in.  Under a non-fork start method the child-side spans are
simply missing from the totals.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import Callable, Optional

#: Path prefix of every worker-protocol route -> the layer it is counted as.
HTTP_LAYERS = {
    "/v1/lease": "http.lease",
    "/v1/report": "http.report",
    "/v1/heartbeat": "http.heartbeat",
    "/v1/cache/": "http.cache",
    "/v1/register": "http.register",
}


class Layer:
    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0

    def add(self, other: "Layer") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.items += other.items


class _ThreadState:
    __slots__ = ("stack", "layers")

    def __init__(self) -> None:
        self.stack: list[float] = []  # child seconds of each open span
        self.layers: dict[str, Layer] = {}


class Tracer:
    """Per-thread span stacks with process-wide, mergeable layer totals."""

    def __init__(self, spill_dir) -> None:
        self.spill_dir = pathlib.Path(spill_dir)
        self._pid = os.getpid()
        self._owner_pid = self._pid
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        #: ``time.perf_counter()`` of the first lease reply carrying cells.
        self.first_lease_at: Optional[float] = None
        self.wire_bytes = 0

    # ------------------------------------------------------------- spans
    def _state(self) -> _ThreadState:
        if os.getpid() != self._pid:
            # First span in a forked child: start from empty totals.
            self._pid = os.getpid()
            self._local = threading.local()
            self._states = []
            self._lock = threading.Lock()
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def span(self, name: str, fn: Callable, items: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``items(args, kwargs)`` optionally counts work units per call (for
        example the configs in one estimator batch).
        """
        tracer = self

        def traced(*args, **kwargs):
            state = tracer._state()
            state.stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = state.stack.pop()
                layer = state.layers.get(name)
                if layer is None:
                    layer = state.layers[name] = Layer()
                layer.calls += 1
                layer.total_s += elapsed
                layer.self_s += elapsed - children
                if items is not None:
                    layer.items += items(args, kwargs)
                if state.stack:
                    state.stack[-1] += elapsed
                elif os.getpid() != tracer._owner_pid:
                    tracer._spill()

        return traced

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        payload = {name: [layer.calls, layer.total_s, layer.self_s, layer.items]
                   for name, layer in self.totals().items()}
        path = self.spill_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.replace(path)

    def totals(self) -> dict[str, Layer]:
        merged: dict[str, Layer] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, layer in list(state.layers.items()):
                merged.setdefault(name, Layer()).add(layer)
        return merged

    def reset(self) -> None:
        """Forget all totals (the next traced repetition starts from zero)."""
        self._pid = self._owner_pid = os.getpid()
        self._local = threading.local()
        with self._lock:
            self._states = []
        self.first_lease_at = None
        self.wire_bytes = 0
        if self.spill_dir.exists():
            for path in self.spill_dir.glob("*.json"):
                path.unlink()

    def collect(self) -> dict[str, Layer]:
        """This process's totals plus those spilled by forked children."""
        merged = self.totals()
        child_cells = 0
        if self.spill_dir.exists():
            for path in sorted(self.spill_dir.glob("*.json")):
                payload = json.loads(path.read_text(encoding="utf-8"))
                for name, (calls, total_s, self_s, items) in payload.items():
                    layer = merged.setdefault(name, Layer())
                    layer.calls += calls
                    layer.total_s += total_s
                    layer.self_s += self_s
                    layer.items += items
                    if name == "sweep.cell":
                        child_cells += calls
        merged.setdefault("dispatch.child_cells", Layer()).calls = child_cells
        return merged

    # ----------------------------------------------------------- patching
    def patch(self, owner, attr: str, name: str, items: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, items))

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced layer entry point until :meth:`uninstall`."""
        import repro.core.scd as scd
        import repro.search.cache as search_cache
        import repro.shard.worker as shard_worker
        import repro.sweep.runner as runner
        from repro.core.auto_hls import AutoHLS
        from repro.core.codesign import CoDesignFlow
        from repro.detection.accuracy_model import AccuracyModel
        from repro.search.session import SearchSession
        from repro.sweep.checkpoint import CheckpointWriter
        from repro.sweep.disk_cache import DiskEvaluationCache

        assert not self._patches, "tracer already installed"
        self.patch(runner, "prepare_device", "sweep.prep")
        self.patch(CoDesignFlow, "__init__", "codesign.flow_init")
        self.patch(CoDesignFlow, "step1_modeling", "codesign.fit")
        self.patch(CoDesignFlow, "step2_bundle_selection", "codesign.select")
        self.patch(CoDesignFlow, "step3_search", "codesign.search")
        self.patch(AutoHLS, "estimate", "hw.estimate")
        self.patch(AutoHLS, "estimate_batch", "hw.estimate_batch",
                   items=lambda args, kwargs: len(args[1]))
        self.patch(AutoHLS, "generate", "autohls.generate")
        for model in _subclasses(AccuracyModel):
            if "predict" in model.__dict__:
                self.patch(model, "predict", "detection.accuracy")
        self.patch(SearchSession, "as_dict", "journal.serialise")
        self.patch(runner, "to_jsonable", "journal.serialise")
        self.patch(CheckpointWriter, "record_outcome", "checkpoint.append")
        self.patch(DiskEvaluationCache, "evaluate_with_info", "disk_cache.get")
        self.patch(DiskEvaluationCache, "estimate_batch", "disk_cache.get")
        self.patch(DiskEvaluationCache, "get_many", "disk_cache.get")
        self.patch(DiskEvaluationCache, "put_many", "disk_cache.put")
        self.patch(DiskEvaluationCache, "_append", "disk_cache.put")
        self.patch(DiskEvaluationCache, "_append_many", "disk_cache.put")

        # The cache key is bound as a default argument of both caches, so
        # the traced key function is handed to them at construction.
        key_fn = self.span("search.cache_key", search_cache.config_cache_key)
        self.replace(scd, "config_cache_key", key_fn)
        self.replace(search_cache.EvaluationCache, "__init__",
                     _with_key_fn(search_cache.EvaluationCache.__init__, key_fn, 1))
        disk_open = self.span("disk_cache.open", DiskEvaluationCache.__init__)
        self.replace(DiskEvaluationCache, "__init__", _with_key_fn(disk_open, key_fn, None))
        self.replace(shard_worker, "post_json", self._traced_post(shard_worker.post_json))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_post(self, post_json: Callable) -> Callable:
        spans = {prefix: self.span(name, post_json) for prefix, name in HTTP_LAYERS.items()}

        def traced_post(base_url, path, payload, *args, **kwargs):
            call = next((fn for prefix, fn in spans.items() if path.startswith(prefix)),
                        post_json)
            reply = call(base_url, path, payload, *args, **kwargs)
            self.wire_bytes += len(json.dumps(payload, default=str))
            self.wire_bytes += len(json.dumps(reply, default=str))
            if path == "/v1/lease" and reply.get("cells") and self.first_lease_at is None:
                self.first_lease_at = time.perf_counter()
            return reply

        return traced_post


def traced_cell(task, cache_dir, prepared):
    """``task_fn`` for traced repetitions: one ``sweep.cell`` span per cell.

    Module-level so the sweep and shard schedulers can ship it anywhere
    they ship the stock :func:`repro.sweep.runner.run_sweep_task`.
    """
    from repro.sweep.runner import run_sweep_task

    return ACTIVE.span("sweep.cell", run_sweep_task)(task, cache_dir, prepared)


#: The tracer of the running traced repetition (read by :func:`traced_cell`).
ACTIVE: Optional[Tracer] = None


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _with_key_fn(init: Callable, key_fn: Callable, position: Optional[int]) -> Callable:
    """``init`` with ``key_fn`` supplied unless the caller passed its own.

    ``position`` is the index of ``key_fn`` among the positional arguments
    after ``self`` (``None`` when it is keyword-only).
    """

    def init_with_key(self, *args, **kwargs):
        given = position is not None and len(args) > position
        if "key_fn" not in kwargs and not given:
            kwargs["key_fn"] = key_fn
        return init(self, *args, **kwargs)

    return init_with_key
