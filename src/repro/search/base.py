"""Explorer base API and the pluggable strategy registry.

An :class:`Explorer` searches the DNN design space for candidates whose
estimated latency falls inside a target band and whose resources fit the
device — the contract of the paper's SCD unit — but the *policy* that walks
the space is pluggable: strategies register under a name (``scd``,
``random``, ``evolutionary``, ``annealing``) and are resolved by
:func:`create_explorer`, so switching strategy is a config choice, not a
rewrite.

Every explorer shares the same infrastructure: a memoized
:class:`~repro.search.cache.EvaluationCache` and an optional
:class:`~repro.search.session.SearchSession` journal that records every
evaluation.  Explorers evaluate serially; :meth:`Explorer.score_generation`
scores a whole population in one batched estimator call.

This module has no runtime import of :mod:`repro.core`; the built-in
strategies (which *do* import the SCD move set) are loaded lazily on first
registry lookup.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Optional

import repro.telemetry as telemetry
from repro.search.cache import EvaluationCache
from repro.search.session import SearchSession
from repro.utils.logging import get_logger
from repro.utils.rng import RNGLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.constraints import LatencyTarget, ResourceConstraint
    from repro.core.dnn_config import DNNConfig
    from repro.hw.analytical import PerformanceEstimate

logger = get_logger(__name__)


@dataclass
class ExplorationResult:
    """Outcome of one :meth:`Explorer.explore` run."""

    strategy: str
    candidates: list
    estimates: list
    evaluations: int
    iterations: int
    converged: bool

    def __len__(self) -> int:
        return len(self.candidates)


class Explorer(ABC):
    """Base class of all exploration strategies.

    Parameters
    ----------
    estimator:
        Maps a :class:`DNNConfig` to a :class:`PerformanceEstimate`.  May be
        omitted when ``cache`` is given (the cache already wraps one).
    cache:
        Shared :class:`EvaluationCache`; a fresh one is created around
        ``estimator`` when omitted.  Passing the same cache to several
        explorers shares memoized estimates across strategies and targets.
    session:
        Optional journal; every evaluation and accepted candidate is
        recorded into it.
    max_iterations:
        Strategy loop / evaluation budget (the ``scd`` explorer reads it as
        Algorithm 1's iteration budget, the other strategies as an estimator
        request budget).
    """

    strategy_name: ClassVar[str] = "base"

    def __init__(
        self,
        estimator: Optional[Callable] = None,
        latency_target: Optional["LatencyTarget"] = None,
        resource_constraint: Optional["ResourceConstraint"] = None,
        *,
        max_repetitions: int = 8,
        max_iterations: int = 400,
        rng: RNGLike = None,
        cache: Optional[EvaluationCache] = None,
        session: Optional[SearchSession] = None,
    ) -> None:
        if latency_target is None or resource_constraint is None:
            raise ValueError("latency_target and resource_constraint are required")
        if cache is None:
            if estimator is None:
                raise ValueError("either an estimator or an EvaluationCache is required")
            cache = EvaluationCache(estimator)
        if max_repetitions <= 0 or max_iterations <= 0:
            raise ValueError("max_repetitions and max_iterations must be positive")
        self.cache = cache
        self.latency_target = latency_target
        self.resource_constraint = resource_constraint
        self.max_repetitions = max_repetitions
        self.max_iterations = max_iterations
        self.rng = ensure_rng(rng)
        self.session = session

        self._candidates: list["DNNConfig"] = []
        self._estimates: list["PerformanceEstimate"] = []
        self._seen: set[str] = set()
        self._evaluations = 0

    # -------------------------------------------------------------- evaluation
    def evaluate(self, config: "DNNConfig") -> "PerformanceEstimate":
        """Evaluate one config through the cache, journaling the request."""
        estimate, cached = self.cache.evaluate_with_info(config)
        self._note(config, estimate, cached)
        return estimate

    def score_generation(self, configs) -> list:
        """Score one generation (a population batch) of configs.

        Unique missing configs are estimated once, through the estimator's
        vectorized ``estimate_batch`` when it offers one (see
        :meth:`repro.search.cache.EvaluationCache.evaluate_batch`).  Results are
        bit-identical to scalar evaluation, and every config is journaled in
        input order, so session journals do not depend on the path taken.
        """
        pairs = self.cache.evaluate_batch(configs, with_info=True)
        for config, (estimate, cached) in zip(configs, pairs):
            self._note(config, estimate, cached)
        return [estimate for estimate, _ in pairs]

    def _note(self, config, estimate, cached: bool) -> None:
        self._evaluations += 1
        if self.session is not None:
            self.session.record_evaluation(
                self.strategy_name,
                self.cache.key_fn(config),
                estimate,
                within_band=self.in_band(estimate),
                feasible=self.feasible(estimate),
                cached=cached,
            )

    # --------------------------------------------------------------- verdicts
    def in_band(self, estimate: "PerformanceEstimate") -> bool:
        return self.latency_target.within_band(estimate.latency_ms)

    def feasible(self, estimate: "PerformanceEstimate") -> bool:
        return self.resource_constraint.satisfied_by(estimate.resources)

    def consider(self, config: "DNNConfig", estimate: "PerformanceEstimate") -> bool:
        """Accept ``config`` as a candidate when in band, feasible and new."""
        if not (self.in_band(estimate) and self.feasible(estimate)):
            return False
        # Structural key (not describe(), which aliases distinct Pi/X configs).
        key = self.cache.key_fn(config)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._candidates.append(config)
        self._estimates.append(estimate)
        if self.session is not None:
            self.session.record_candidate(self.strategy_name, key, estimate.latency_ms)
        return True

    @property
    def budget_left(self) -> int:
        return max(self.max_iterations - self._evaluations, 0)

    # ------------------------------------------------------------ exploration
    def explore(self, initial: "DNNConfig", num_candidates: int = 3) -> ExplorationResult:
        """Search for ``num_candidates`` distinct in-band, feasible configs."""
        if num_candidates <= 0:
            raise ValueError("num_candidates must be positive")
        self._candidates = []
        self._estimates = []
        self._seen = set()
        self._evaluations = 0
        iterations = self._explore(initial, num_candidates)
        converged = len(self._candidates) >= num_candidates
        if not converged:
            # A normal outcome on tight targets, hence DEBUG, not WARNING.
            logger.debug(
                "%s explorer stopped after %d evaluations with %d/%d candidates",
                self.strategy_name, self._evaluations, len(self._candidates), num_candidates,
            )
            reg = telemetry.registry()
            if reg is not None:
                reg.counter("search.explorer.unconverged").inc()
        return ExplorationResult(
            strategy=self.strategy_name,
            candidates=list(self._candidates),
            estimates=list(self._estimates),
            evaluations=self._evaluations,
            iterations=iterations,
            converged=converged,
        )

    @abstractmethod
    def _explore(self, initial: "DNNConfig", num_candidates: int) -> int:
        """Run the strategy; returns the number of loop iterations used."""


# ------------------------------------------------------------------- registry
_EXPLORERS: dict[str, type[Explorer]] = {}
_BUILTINS_LOADED = False


def register_explorer(name: str) -> Callable[[type[Explorer]], type[Explorer]]:
    """Class decorator registering an :class:`Explorer` under ``name``."""

    def decorator(cls: type[Explorer]) -> type[Explorer]:
        cls.strategy_name = name
        _EXPLORERS[name] = cls
        return cls

    return decorator


def _load_builtin_strategies() -> None:
    # Imported lazily: the built-in strategies depend on repro.core.scd,
    # which itself imports repro.search.cache.
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        import repro.search.strategies  # noqa: F401

        _BUILTINS_LOADED = True


def explorer_class(name: str) -> type[Explorer]:
    """Resolve a registered strategy name to its :class:`Explorer` class."""
    _load_builtin_strategies()
    try:
        return _EXPLORERS[name]
    except KeyError:
        raise KeyError(
            f"Unknown search strategy '{name}'; "
            f"available: {', '.join(sorted(_EXPLORERS))}"
        ) from None


def available_strategies() -> list[str]:
    """Names of all registered strategies, sorted."""
    _load_builtin_strategies()
    return sorted(_EXPLORERS)


def create_explorer(name: str, **kwargs) -> Explorer:
    """Instantiate a registered strategy by name."""
    return explorer_class(name)(**kwargs)
