"""Memoized evaluation cache for the exploration strategies.

Estimating a candidate DNN (building its workload, assembling the Tile-Arch
accelerator and running the analytical model) is the hot path of every search
strategy: the ``scd`` explorer (Algorithm 1) re-estimates the *current*
config on every loop iteration plus one unit move per coordinate, and
population-based strategies revisit configurations constantly.
:class:`EvaluationCache` memoizes the estimator on a structural key so
identical configurations are estimated once per search session.  A search
reaches the estimator through :meth:`EvaluationCache.evaluate` for one
config and :meth:`EvaluationCache.evaluate_batch` for a population; both
run one routine, which scores each unique miss with one estimator call.  A
subclass adds a persistent tier through two hooks, ``get_many`` and
``put_many`` (:class:`repro.sweep.disk_cache.DiskEvaluationCache`).

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
from typing import TYPE_CHECKING, Callable, Sequence

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
    does, because configs are frozen.  It is a pure function of the fields,
    so it is built once per distinct config: ``with_updates`` returns the
    interned object (:meth:`DNNConfig.interned`), memo included, and a
    pickled config carries a key that holds in any interpreter.
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

    Explorers share one by taking it as ``cache``::

        cache = EvaluationCache(auto_hls.estimate)
        scd = create_explorer("scd", cache=cache, latency_target=target,
                              resource_constraint=constraint)

    It is also callable, so it can stand in for a plain estimator.

    Every request, single or batched, runs one routine: look the keys up in
    memory, ask :meth:`get_many` for the missing ones, estimate each *unique*
    remaining config once, hand those estimates to :meth:`put_many` and keep
    everything in memory.  The two tier hooks do nothing here;
    :class:`repro.sweep.disk_cache.DiskEvaluationCache` fills them in with a
    persistent tier.  ``hits``, ``misses`` and :meth:`stats` count the memory
    tier, so without a second tier ``misses`` equals the number of underlying
    estimator invocations, which makes the cache's effect directly measurable.
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
        return self.evaluate_batch((config,), with_info=True)[0]

    def evaluate_batch(self, configs: Sequence["DNNConfig"], with_info: bool = False) -> list:
        """Evaluate a batch, estimating each *unique* missing config once.

        A duplicate of a miss in the same batch counts as a hit.  Each config
        no tier holds is scored with one estimator call, and the fresh
        estimates reach :meth:`put_many` together.  ``with_info`` pairs each
        estimate with whether the memory tier served it.
        """
        keys = [self.key_fn(config) for config in configs]
        results: list = [None] * len(keys)
        cached = [True] * len(keys)
        missing: dict[str, "DNNConfig"] = {}
        with self._lock:
            for index, key in enumerate(keys):
                value = self._store.get(key)
                if value is not None:
                    results[index] = value
                elif key not in missing:
                    missing[key] = configs[index]
                    cached[index] = False
            hits = len(keys) - len(missing)
            self._hits += hits
            self._misses += len(missing)
        reg = telemetry.registry()
        if reg is not None:
            if hits:
                reg.counter("search.cache.hits").inc(hits)
            if missing:
                reg.counter("search.cache.misses").inc(len(missing))
        if missing:
            # Estimate outside the lock; a concurrent duplicate computation
            # is harmless because the estimator is deterministic.
            found = dict(zip(missing, self.get_many(list(missing))))
            fresh = {key: missing[key] for key, value in found.items() if value is None}
            if fresh:
                entries = [(key, self.estimator(config)) for key, config in fresh.items()]
                self.put_many(entries)
                found.update(entries)
            with self._lock:
                self._store.update(found)
            results = [found.get(key, value) for key, value in zip(keys, results)]
        if with_info:
            return list(zip(results, cached))
        return results

    # ------------------------------------------------------------- tier hooks
    def get_many(self, keys: Sequence[str]) -> list:
        """Another tier's estimates for ``keys``; ``None`` where it has none."""
        return [None] * len(keys)

    def put_many(self, entries: Sequence[tuple[str, "PerformanceEstimate"]]) -> None:
        """Hand another tier the ``(key, estimate)`` pairs just estimated."""

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
        """Drop the memory tier's entries and reset its hit / miss counters."""
        with self._lock:
            self._store.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, config: "DNNConfig") -> bool:
        return self.key_fn(config) in self._store
