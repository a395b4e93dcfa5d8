"""Memoized evaluation cache for the exploration strategies.

Estimating a candidate DNN (building its workload, assembling the Tile-Arch
accelerator and running the analytical model) is the hot path of every search
strategy: the SCD unit alone re-estimates the *current* config on every loop
iteration plus one unit move per coordinate, and population-based strategies
revisit configurations constantly.  :class:`EvaluationCache` memoizes the
estimator on a structural key so identical configurations are estimated once
per search session.  A search reaches the estimator through two entry
points: :meth:`EvaluationCache.evaluate` for one config, and
:meth:`EvaluationCache.evaluate_batch` for a population, whose unique misses
go to the estimator's vectorized ``estimate_batch`` in one call.

The key builds on :meth:`DNNConfig.describe` but appends the exact
per-repetition channel-expansion and down-sampling vectors — ``describe()``
alone summarises them as "maximum N channels" and would alias distinct
configurations, which must never share a cache slot.

This module intentionally has no runtime import of :mod:`repro.core` so that
``repro.core.scd`` can depend on it without an import cycle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import repro.telemetry as telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.dnn_config import DNNConfig
    from repro.hw.analytical import PerformanceEstimate


def config_cache_key(config: "DNNConfig") -> str:
    """Structural cache key: ``describe()`` plus the exact Pi / X vectors.

    The detection task is part of the key (``describe()`` omits it): the
    input resolution changes every latency, so configs from different tasks
    must never share a slot — especially in the persistent disk cache, which
    outlives a single search.

    The key is kept in the config's ``__dict__``, as ``cached_property``
    does: configs are frozen, and ``with_updates`` builds a new object.
    """
    memo = config.__dict__
    key = memo.get("_cache_key")
    if key is None:
        pi = ",".join(f"{factor:g}" for factor in config.channel_expansion)
        x = ",".join(str(flag) for flag in config.downsample)
        c, h, w = config.task.input_shape
        key = memo["_cache_key"] = (
            f"{config.describe()} | Pi=[{pi}] X=[{x}] stem={config.stem_channels} "
            f"task={config.task.name}@{c}x{h}x{w}"
        )
    return key


def resolve_batch_estimator(
    estimator: Callable[["DNNConfig"], "PerformanceEstimate"],
) -> Optional[Callable[[Sequence["DNNConfig"]], list]]:
    """The batched entry point of an estimator, if it offers one.

    Accepts either a callable object with an ``estimate_batch`` method (e.g.
    :class:`repro.sweep.disk_cache.DiskEvaluationCache`) or a bound method
    whose owner has one (e.g. ``auto_hls.estimate`` — the form
    :class:`repro.core.auto_dnn.AutoDNN` wires up).  Returns ``None`` for
    plain scalar estimators, in which case callers fall back to a loop.
    """
    batch = getattr(estimator, "estimate_batch", None)
    if callable(batch):
        return batch
    owner = getattr(estimator, "__self__", None)
    batch = getattr(owner, "estimate_batch", None) if owner is not None else None
    return batch if callable(batch) else None


@dataclass(frozen=True)
class CacheStats:
    """Hit / miss accounting of one :class:`EvaluationCache`."""

    hits: int
    misses: int
    size: int

    @property
    def evaluations(self) -> int:
        """Total evaluation requests served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache (0 when unused)."""
        total = self.evaluations
        return self.hits / total if total else 0.0

    def summary(self) -> str:
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate, {self.size} entries)"
        )


class EvaluationCache:
    """Thread-safe memoization of ``Estimator`` calls.

    The cache is callable, so it can be passed anywhere a plain estimator is
    expected::

        cache = EvaluationCache(auto_hls.estimate)
        scd = SCDUnit(cache, target, constraint)

    ``misses`` always equals the number of underlying estimator invocations,
    which makes the cache's effect directly measurable.
    """

    def __init__(
        self,
        estimator: Callable[["DNNConfig"], "PerformanceEstimate"],
        key_fn: Callable[["DNNConfig"], str] = config_cache_key,
    ) -> None:
        self.estimator = estimator
        self.key_fn = key_fn
        self._store: dict[str, "PerformanceEstimate"] = {}
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------- evaluation
    def __call__(self, config: "DNNConfig") -> "PerformanceEstimate":
        return self.evaluate(config)

    def evaluate(self, config: "DNNConfig") -> "PerformanceEstimate":
        return self.evaluate_with_info(config)[0]

    def evaluate_with_info(self, config: "DNNConfig") -> tuple["PerformanceEstimate", bool]:
        """Evaluate one config; returns ``(estimate, served_from_cache)``."""
        key = self.key_fn(config)
        reg = telemetry.registry()
        with self._lock:
            cached = self._store.get(key)
            if cached is not None:
                self._hits += 1
                if reg is not None:
                    reg.counter("search.cache.hits").inc()
                return cached, True
        # Estimate outside the lock; a concurrent duplicate computation is
        # harmless because the estimator is deterministic.
        value = self.estimator(config)
        with self._lock:
            self._store[key] = value
            self._misses += 1
        if reg is not None:
            reg.counter("search.cache.misses").inc()
        return value, False

    def evaluate_batch(self, configs: Sequence["DNNConfig"], with_info: bool = False) -> list:
        """Evaluate a batch, estimating each *unique* missing config once.

        The missing configs go to the estimator's ``estimate_batch`` in one
        call when there are several and it offers one, so duplicates and
        already cached members cost nothing.
        """
        keys = [self.key_fn(config) for config in configs]
        results: list = [None] * len(configs)
        cached_flags = [False] * len(configs)
        missing: dict[str, int] = {}
        batch_hits = batch_misses = 0
        with self._lock:
            for index, key in enumerate(keys):
                value = self._store.get(key)
                if value is not None:
                    results[index] = value
                    cached_flags[index] = True
                    self._hits += 1
                    batch_hits += 1
                elif key not in missing:
                    missing[key] = index
                    self._misses += 1
                    batch_misses += 1
                else:
                    # Duplicate of a miss in the same batch: estimated once.
                    self._hits += 1
                    batch_hits += 1
                    cached_flags[index] = True
        reg = telemetry.registry()
        if reg is not None:
            if batch_hits:
                reg.counter("search.cache.hits").inc(batch_hits)
            if batch_misses:
                reg.counter("search.cache.misses").inc(batch_misses)
        representatives = [configs[index] for index in missing.values()]
        if representatives:
            batch_estimate = resolve_batch_estimator(self.estimator)
            if batch_estimate is not None and len(representatives) > 1:
                # Vectorized path: one call scores the whole generation.
                # Results are bit-identical to the scalar estimator, so
                # journals and checkpoints do not depend on which path ran.
                values = batch_estimate(representatives)
            else:
                values = [self.estimator(config) for config in representatives]
            with self._lock:
                for key, value in zip(missing, values):
                    self._store[key] = value
        with self._lock:
            for index, key in enumerate(keys):
                if results[index] is None:
                    results[index] = self._store[key]
        if with_info:
            return list(zip(results, cached_flags))
        return results

    # ------------------------------------------------------------ bookkeeping
    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses, size=len(self._store))

    def clear(self) -> None:
        """Drop all entries and reset the hit / miss counters."""
        with self._lock:
            self._store.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, config: "DNNConfig") -> bool:
        return self.key_fn(config) in self._store
