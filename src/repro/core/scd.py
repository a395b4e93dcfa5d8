"""Stochastic Coordinate Descent (SCD) DNN search unit (Algorithm 1).

Given an initial candidate DNN, a latency target with a tolerance band and a
resource constraint, the SCD unit repeatedly perturbs the candidate along one
of three coordinates chosen uniformly at random:

* ``N`` — the number of bundle replications,
* ``Pi`` — the channel-expansion configuration,
* ``X`` — the down-sampling configuration,

estimating the latency change of a unit move along each coordinate and
scaling the applied step by ``|Lat_target - Lat| / dLat`` so that larger
latency gaps translate into larger structural moves.  Moves that would
violate the resource constraint are rejected.  Every time the candidate's
estimated latency falls inside the tolerance band it is recorded, and the
search continues until ``K`` candidates have been collected (or the move
budget is exhausted).

The three coordinate moves are exposed as module-level functions
(:func:`move_n`, :func:`move_pi`, :func:`move_x`) so that the alternative
exploration strategies in :mod:`repro.search` operate over exactly the same
move set as Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.core.constraints import LatencyTarget, ResourceConstraint
from repro.core.dnn_config import DNNConfig
from repro.hw.analytical import PerformanceEstimate
from repro.search.cache import EvaluationCache, config_cache_key
from repro.utils.logging import get_logger
from repro.utils.rng import RNGLike, ensure_rng

logger = get_logger(__name__)

#: Channel-expansion factors available to the SCD unit (Sec. 5.2.2).
EXPANSION_FACTORS: tuple[float, ...] = (1.2, 1.3, 1.5, 1.75, 2.0)

#: Names of the three search coordinates of Algorithm 1.
MOVE_NAMES: tuple[str, ...] = ("N", "Pi", "X")

#: An estimator maps a candidate configuration to (latency, resources).
Estimator = Callable[[DNNConfig], PerformanceEstimate]


# ---------------------------------------------------------------------- moves
def move_n(
    config: DNNConfig, direction: int, steps: int = 1, max_repetitions: int = 8
) -> Optional[DNNConfig]:
    """Add / remove bundle replications (the ``N`` coordinate)."""
    new_reps = config.num_repetitions + direction * max(steps, 1)
    new_reps = max(1, min(new_reps, max_repetitions))
    if new_reps == config.num_repetitions:
        return None
    expansion = list(config.channel_expansion)
    downsample = list(config.downsample)
    while len(expansion) < new_reps:
        expansion.append(expansion[-1])
        downsample.append(0)
    expansion = expansion[:new_reps]
    downsample = downsample[:new_reps]
    return config.with_updates(
        num_repetitions=new_reps,
        channel_expansion=tuple(expansion),
        downsample=tuple(downsample),
    )


def move_pi(config: DNNConfig, direction: int, steps: int = 1) -> Optional[DNNConfig]:
    """Grow / shrink channel-expansion factors (the ``Pi`` coordinate).

    A unit move shifts one repetition's expansion factor to the next
    (or previous) value of the discrete factor set; larger steps shift
    more repetitions.
    """
    expansion = list(config.channel_expansion)
    order = range(len(expansion)) if direction > 0 else range(len(expansion) - 1, -1, -1)
    changed = 0
    for index in order:
        if changed >= max(steps, 1):
            break
        current = expansion[index]
        # Snap to the closest allowed factor, then move one notch.
        closest = min(range(len(EXPANSION_FACTORS)),
                      key=lambda i: abs(EXPANSION_FACTORS[i] - current))
        target = closest + (1 if direction > 0 else -1)
        if 0 <= target < len(EXPANSION_FACTORS):
            expansion[index] = EXPANSION_FACTORS[target]
            changed += 1
    if not changed:
        return None
    return config.with_updates(channel_expansion=tuple(expansion))


def move_x(config: DNNConfig, direction: int, steps: int = 1) -> Optional[DNNConfig]:
    """Insert / remove down-sampling layers (the ``X`` coordinate).

    Removing a down-sample (direction > 0) keeps feature maps larger and
    therefore *increases* latency; inserting one (direction < 0)
    decreases it.
    """
    downsample = list(config.downsample)
    changed = 0
    if direction > 0:
        for i in range(len(downsample) - 1, -1, -1):
            if changed >= max(steps, 1):
                break
            if downsample[i] == 1 and sum(downsample) > 1:
                downsample[i] = 0
                changed += 1
    else:
        for i in range(len(downsample)):
            if changed >= max(steps, 1):
                break
            if downsample[i] == 0:
                downsample[i] = 1
                changed += 1
    if not changed:
        return None
    return config.with_updates(downsample=tuple(downsample))


def apply_move(
    name: str,
    config: DNNConfig,
    direction: int,
    steps: int = 1,
    max_repetitions: int = 8,
) -> Optional[DNNConfig]:
    """Apply one named coordinate move; returns ``None`` when it is a no-op."""
    if name == "N":
        return move_n(config, direction, steps, max_repetitions)
    if name == "Pi":
        return move_pi(config, direction, steps)
    if name == "X":
        return move_x(config, direction, steps)
    raise ValueError(f"Unknown move '{name}'; expected one of {MOVE_NAMES}")


@dataclass
class SCDResult:
    """Outcome of one SCD search run."""

    candidates: list[DNNConfig]
    estimates: list[PerformanceEstimate]
    iterations: int
    converged: bool

    def __len__(self) -> int:
        return len(self.candidates)


class SCDUnit:
    """The stochastic coordinate descent search of Algorithm 1.

    Parameters
    ----------
    cache:
        Controls memoization of estimator calls.  ``None`` (default) wraps
        ``estimator`` in a fresh :class:`repro.search.cache.EvaluationCache`
        (the current config is re-estimated on every loop iteration, so
        caching is a direct hot-path win); an existing cache instance is
        shared as-is; ``False`` disables memoization entirely.
    batch_scorer:
        Optional callable scoring a whole sequence of configs at once
        (``configs -> [PerformanceEstimate, ...]`` in input order).  The
        per-iteration unit-move probes — one candidate per coordinate — are
        routed through it so a vectorized estimator scores them in one
        call.  The Explorer adapter passes its journaling
        ``score_generation`` here; results must be bit-identical to the
        scalar ``estimator`` path (see
        :meth:`repro.search.cache.EvaluationCache.evaluate_batch`).
    """

    def __init__(
        self,
        estimator: Estimator,
        latency_target: LatencyTarget,
        resource_constraint: ResourceConstraint,
        max_repetitions: int = 8,
        max_iterations: int = 400,
        rng: RNGLike = None,
        cache: Union[EvaluationCache, bool, None] = None,
        batch_scorer: Optional[Callable[[Sequence[DNNConfig]], Sequence[PerformanceEstimate]]] = None,
    ) -> None:
        if max_repetitions <= 0 or max_iterations <= 0:
            raise ValueError("max_repetitions and max_iterations must be positive")
        self.estimator = estimator
        self.latency_target = latency_target
        self.resource_constraint = resource_constraint
        self.max_repetitions = max_repetitions
        self.max_iterations = max_iterations
        self.rng = ensure_rng(rng)
        if cache is False:
            self.cache: Optional[EvaluationCache] = None
        elif cache is None or cache is True:
            self.cache = EvaluationCache(estimator)
        else:
            self.cache = cache
        self.batch_scorer = batch_scorer

    # ------------------------------------------------------------- moves
    def _move_n(self, config: DNNConfig, direction: int, steps: int = 1) -> Optional[DNNConfig]:
        return move_n(config, direction, steps, self.max_repetitions)

    def _move_pi(self, config: DNNConfig, direction: int, steps: int = 1) -> Optional[DNNConfig]:
        return move_pi(config, direction, steps)

    def _move_x(self, config: DNNConfig, direction: int, steps: int = 1) -> Optional[DNNConfig]:
        return move_x(config, direction, steps)

    # ------------------------------------------------------------ search loop
    def _latency(self, config: DNNConfig) -> PerformanceEstimate:
        if self.cache is not None:
            return self.cache.evaluate(config)
        return self.estimator(config)

    def _score_units(self, configs: Sequence[DNNConfig]) -> list[PerformanceEstimate]:
        """Score one iteration's unit-move probes, batched when possible.

        Delegates to ``batch_scorer`` when one was provided, else to the
        shared cache's vectorized ``evaluate_batch``; both contracts
        guarantee bit-identical results to the scalar path, which remains
        the fallback (and the single-probe fast path).
        """
        if len(configs) > 1:
            if self.batch_scorer is not None:
                return list(self.batch_scorer(configs))
            if self.cache is not None:
                return list(self.cache.evaluate_batch(configs))
        return [self._latency(config) for config in configs]

    def _direction_towards_target(self, latency_gap_ms: float) -> int:
        """+1 grows the network (raises latency), -1 shrinks it."""
        return 1 if latency_gap_ms > 0 else -1

    def search(self, initial: DNNConfig, num_candidates: int = 3) -> SCDResult:
        """Run Algorithm 1 starting from ``initial`` until K candidates are found."""
        if num_candidates <= 0:
            raise ValueError("num_candidates must be positive")
        target_ms = self.latency_target.latency_ms
        moves = {
            "N": self._move_n,
            "Pi": self._move_pi,
            "X": self._move_x,
        }

        current = initial
        candidates: list[DNNConfig] = []
        estimates: list[PerformanceEstimate] = []
        seen: set[str] = set()
        iterations = 0

        while len(candidates) < num_candidates and iterations < self.max_iterations:
            iterations += 1
            estimate = self._latency(current)
            lat = estimate.latency_ms
            gap = target_ms - lat

            if self.latency_target.within_band(lat) and self.resource_constraint.satisfied_by(
                estimate.resources
            ):
                # Dedup on the structural cache key: describe() summarises the
                # Pi / X vectors as "maximum N channels" and would alias
                # distinct in-band candidates, silently dropping them.
                key = config_cache_key(current)
                if key not in seen:
                    seen.add(key)
                    candidates.append(current)
                    estimates.append(estimate)
                    logger.debug(
                        "SCD candidate %d/%d: %.1f ms (target %.1f ms)",
                        len(candidates), num_candidates, lat, target_ms,
                    )
                # Perturb away from the accepted candidate to find a distinct one.
                current = self._perturb(current)
                continue

            direction = self._direction_towards_target(gap)

            # Estimate the latency change of a unit move along each
            # coordinate.  The probes are scored as one batch (vectorized
            # estimators see all coordinates at once) in moves order, so the
            # evaluation journal matches the historical scalar loop exactly.
            units: list[tuple[str, DNNConfig]] = []
            for name, move in moves.items():
                unit = move(current, direction, steps=1)
                if unit is not None:
                    units.append((name, unit))
            deltas: dict[str, tuple[DNNConfig, float]] = {}
            for (name, unit), unit_estimate in zip(
                units, self._score_units([unit for _, unit in units])
            ):
                delta = unit_estimate.latency_ms - lat
                if abs(delta) > 1e-9:
                    deltas[name] = (unit, delta)
            if not deltas:
                current = self._perturb(current)
                continue

            # Pick one coordinate uniformly at random (line 10 of Algorithm 1).
            name = list(deltas)[int(self.rng.integers(0, len(deltas)))]
            _, unit_delta = deltas[name]
            steps = max(int(abs(gap) // abs(unit_delta)), 1)
            proposal = moves[name](current, direction, steps=steps) or deltas[name][0]

            proposal_estimate = self._latency(proposal)
            if self.resource_constraint.satisfied_by(proposal_estimate.resources):
                current = proposal
            else:
                # Resource violation: fall back to the unit move if it fits,
                # otherwise shrink the network.
                unit_config, _ = deltas[name]
                unit_estimate = self._latency(unit_config)
                if self.resource_constraint.satisfied_by(unit_estimate.resources):
                    current = unit_config
                else:
                    shrunk = self._move_pi(current, -1) or self._move_n(current, -1)
                    current = shrunk or current

        converged = len(candidates) >= num_candidates
        if not converged:
            logger.debug(
                "SCD stopped after %d iterations with %d/%d candidates",
                iterations, len(candidates), num_candidates,
            )
        return SCDResult(
            candidates=candidates,
            estimates=estimates,
            iterations=iterations,
            converged=converged,
        )

    # ----------------------------------------------------------------- helpers
    def _perturb(self, config: DNNConfig) -> DNNConfig:
        """Random small perturbation used to diversify accepted candidates."""
        choice = int(self.rng.integers(0, 3))
        direction = 1 if self.rng.random() < 0.5 else -1
        move = [self._move_n, self._move_pi, self._move_x][choice]
        perturbed = move(config, direction, steps=1)
        return perturbed or config
