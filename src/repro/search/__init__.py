"""Pluggable exploration engine for the co-design search.

The subsystem decouples *what* is searched (the N / Pi / X design space of
Algorithm 1, evaluated by an analytical estimator) from *how* it is searched:

* :mod:`repro.search.base` — the :class:`Explorer` API and strategy registry,
* :mod:`repro.search.strategies` — the built-in strategies (loaded
  lazily): ``scd``, the paper's Algorithm 1, and ``random`` /
  ``evolutionary`` / ``regularized-evolution`` / ``annealing`` over the same
  moves,
* :mod:`repro.search.cache` — memoized estimator calls shared across
  strategies, targets and bundles,
* :mod:`repro.search.session` — the archivable evaluation journal.

A search runs serially, like the paper's SCD loop: single configs go
through the scalar estimator, and a population (for ``scd``, one
iteration's unit-move probes) is scored in one call to the estimator's
vectorized ``estimate_batch`` when it has one.

Quickstart::

    from repro.search import create_explorer, EvaluationCache, SearchSession

    explorer = create_explorer(
        "evolutionary",
        estimator=auto_hls.estimate,
        latency_target=target,
        resource_constraint=constraint,
        rng=2019,
        session=SearchSession("demo"),
    )
    result = explorer.explore(initial_config, num_candidates=3)
"""

from repro.search.base import (
    ExplorationResult,
    Explorer,
    available_strategies,
    create_explorer,
    explorer_class,
    register_explorer,
)
from repro.search.cache import CacheStats, EvaluationCache, config_cache_key
from repro.search.session import CandidateRecord, EvaluationRecord, SearchSession

__all__ = [
    "Explorer",
    "ExplorationResult",
    "available_strategies",
    "create_explorer",
    "explorer_class",
    "register_explorer",
    "CacheStats",
    "EvaluationCache",
    "config_cache_key",
    "SearchSession",
    "EvaluationRecord",
    "CandidateRecord",
]

_STRATEGY_EXPORTS = {
    "SCDExplorer",
    "RandomExplorer",
    "EvolutionaryExplorer",
    "AnnealingExplorer",
    "MoveBasedExplorer",
}


def __getattr__(name: str):
    # Strategy classes import repro.core.scd, so they load lazily to keep
    # repro.core -> repro.search.cache import order cycle-free.
    if name in _STRATEGY_EXPORTS:
        from repro.search import strategies

        return getattr(strategies, name)
    raise AttributeError(f"module 'repro.search' has no attribute '{name}'")
