"""Built-in exploration strategies over the SCD move set.

All strategies perturb candidates exclusively through the ``N`` / ``Pi``
/ ``X`` coordinate moves of :mod:`repro.core.scd` (Algorithm 1's move set),
so their results live in exactly the same design space and are directly
comparable:

* ``scd`` — the paper's Algorithm 1, stochastic coordinate descent,
* ``random`` — randomized multi-start walk, batch-evaluated,
* ``evolutionary`` — truncation-selection evolution of a population,
* ``regularized-evolution`` — aging evolution (tournament parent
  selection, oldest member dies each cycle),
* ``annealing`` — simulated annealing on the latency-gap energy.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.core.dnn_config import DNNConfig
from repro.core.scd import MOVE_NAMES, apply_move
from repro.hw.analytical import PerformanceEstimate
from repro.search.base import Explorer, register_explorer

#: Energy penalty (ms) for configurations that violate the resource budget.
INFEASIBLE_PENALTY_MS = 1_000.0


class MoveBasedExplorer(Explorer):
    """Shared random-move machinery for the non-SCD strategies."""

    def random_move(self, config: DNNConfig) -> DNNConfig:
        """One random unit-ish move along a random coordinate."""
        name = MOVE_NAMES[int(self.rng.integers(0, len(MOVE_NAMES)))]
        direction = 1 if self.rng.random() < 0.5 else -1
        steps = 1 + int(self.rng.integers(0, 2))
        moved = apply_move(name, config, direction, steps, self.max_repetitions)
        return moved if moved is not None else config

    def random_walk(self, config: DNNConfig, max_moves: int = 3) -> DNNConfig:
        """Apply 1..max_moves random moves in sequence."""
        for _ in range(1 + int(self.rng.integers(0, max_moves))):
            config = self.random_move(config)
        return config

    def energy(self, estimate: PerformanceEstimate) -> float:
        """Distance to the latency target, heavily penalising infeasibility."""
        gap = abs(self.latency_target.latency_ms - estimate.latency_ms)
        if not self.feasible(estimate):
            gap += INFEASIBLE_PENALTY_MS
        return gap


@register_explorer("scd")
class SCDExplorer(Explorer):
    """Algorithm 1: the stochastic coordinate descent (SCD) search (Sec. 5.2).

    Each iteration evaluates the current config.  An in-band, feasible
    config is recorded and then perturbed by one random unit move, so the
    next candidate differs.  Otherwise one unit move per coordinate is
    scored (one generation, in ``MOVE_NAMES`` order), a coordinate whose
    move changes the latency is picked uniformly at random, and the move is
    scaled by ``|Lat_target - Lat| / dLat`` steps, so a larger latency gap
    takes a larger structural step.  A proposal over the resource budget
    falls back to the unit move, or else shrinks the network.
    ``max_iterations`` bounds the iterations, not the evaluations.
    """

    def _explore(self, initial: DNNConfig, num_candidates: int) -> int:
        current = initial
        iterations = 0
        while len(self._candidates) < num_candidates and iterations < self.max_iterations:
            iterations += 1
            estimate = self.evaluate(current)
            if self.in_band(estimate) and self.feasible(estimate):
                self.consider(current, estimate)
                current = self._perturb(current)
                continue

            gap = self.latency_target.latency_ms - estimate.latency_ms
            direction = 1 if gap > 0 else -1  # +1 grows the network
            units = [(name, apply_move(name, current, direction, 1, self.max_repetitions))
                     for name in MOVE_NAMES]
            units = [(name, unit) for name, unit in units if unit is not None]
            deltas: dict[str, tuple[DNNConfig, float]] = {}
            probes = self.score_generation([unit for _, unit in units])
            for (name, unit), probe in zip(units, probes):
                delta = probe.latency_ms - estimate.latency_ms
                if abs(delta) > 1e-9:
                    deltas[name] = (unit, delta)
            if not deltas:
                current = self._perturb(current)
                continue

            # Pick one coordinate uniformly at random (line 10 of Algorithm 1).
            name = list(deltas)[int(self.rng.integers(0, len(deltas)))]
            unit, unit_delta = deltas[name]
            steps = max(int(abs(gap) // abs(unit_delta)), 1)
            proposal = apply_move(name, current, direction, steps, self.max_repetitions) or unit
            # A proposal over the resource budget falls back to the unit
            # move if that fits, else the network shrinks.
            if self.feasible(self.evaluate(proposal)):
                current = proposal
            elif self.feasible(self.evaluate(unit)):
                current = unit
            else:
                current = (apply_move("Pi", current, -1)
                           or apply_move("N", current, -1, 1, self.max_repetitions)
                           or current)
        return iterations

    def _perturb(self, config: DNNConfig) -> DNNConfig:
        """One random unit move, to diversify away from an accepted candidate."""
        name = MOVE_NAMES[int(self.rng.integers(0, len(MOVE_NAMES)))]
        direction = 1 if self.rng.random() < 0.5 else -1
        return apply_move(name, config, direction, 1, self.max_repetitions) or config


@register_explorer("random")
class RandomExplorer(MoveBasedExplorer):
    """Randomized multi-start exploration.

    Batches of random walks start from a pool seeded with the initial config;
    accepted candidates and the per-batch config closest to the target join
    the pool, so the walk drifts toward the band while staying stochastic.
    Each batch is scored in one cache call.
    """

    def __init__(self, *args, batch_size: int = 8, pool_size: int = 12, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if batch_size < 1 or pool_size < 1:
            raise ValueError("batch_size and pool_size must be >= 1")
        self.batch_size = batch_size
        self.pool_size = pool_size

    def _explore(self, initial: DNNConfig, num_candidates: int) -> int:
        estimate = self.evaluate(initial)
        self.consider(initial, estimate)
        pool: list[DNNConfig] = [initial]
        rounds = 0
        while len(self._candidates) < num_candidates and self.budget_left > 0:
            rounds += 1
            batch = []
            for _ in range(min(self.batch_size, self.budget_left)):
                base = pool[int(self.rng.integers(0, len(pool)))]
                batch.append(self.random_walk(base))
            estimates = self.score_generation(batch)
            best: Optional[tuple[DNNConfig, float]] = None
            for config, est in zip(batch, estimates):
                if self.consider(config, est):
                    pool.append(config)
                energy = self.energy(est)
                if best is None or energy < best[1]:
                    best = (config, energy)
            if best is not None:
                pool.append(best[0])
            if len(pool) > self.pool_size:
                pool = pool[-self.pool_size:]
        return rounds


@register_explorer("evolutionary")
class EvolutionaryExplorer(MoveBasedExplorer):
    """Truncation-selection evolution over the SCD move set.

    Each generation is scored through the cache in one batch, the
    lowest-energy members become parents, and children are mutated parents.
    Elitism keeps the parents in the next generation.
    """

    def __init__(
        self, *args, population_size: int = 12, num_parents: int = 4, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 1 <= num_parents < population_size:
            raise ValueError("num_parents must be in [1, population_size)")
        self.population_size = population_size
        self.num_parents = num_parents

    def _explore(self, initial: DNNConfig, num_candidates: int) -> int:
        population = [initial] + [
            self.random_walk(initial, max_moves=2)
            for _ in range(self.population_size - 1)
        ]
        generations = 0
        while len(self._candidates) < num_candidates and self.budget_left > 0:
            generations += 1
            population = population[: max(self.budget_left, 1)]
            estimates = self.score_generation(population)
            scored = sorted(
                zip(population, estimates), key=lambda pair: self.energy(pair[1])
            )
            for config, estimate in scored:
                self.consider(config, estimate)
            parents = [config for config, _ in scored[: self.num_parents]]
            next_population = list(parents)
            while len(next_population) < self.population_size:
                parent = parents[int(self.rng.integers(0, len(parents)))]
                next_population.append(self.random_walk(parent, max_moves=2))
            population = next_population
        return generations


@register_explorer("regularized-evolution")
class RegularizedEvolutionExplorer(MoveBasedExplorer):
    """Aging evolution (regularized evolution) over the SCD move set.

    The population is a FIFO queue of bounded size.  Each cycle samples a
    small tournament uniformly from the population, mutates the
    lowest-energy sampled member with one random move, evaluates the
    child, appends it and retires the *oldest* member — dying of age, not
    of fitness.  The aging regularization (Real et al., AAAI'19,
    "Regularized Evolution for Image Classifier Architecture Search")
    prevents an early lucky candidate from dominating the population
    forever and keeps exploration moving even on flat energy plateaus.

    The seed population is scored in one cache call; each
    subsequent cycle evaluates exactly one child, so the evaluation
    budget translates directly into evolution cycles.
    """

    def __init__(
        self, *args, population_size: int = 12, sample_size: int = 4, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 1 <= sample_size <= population_size:
            raise ValueError("sample_size must be in [1, population_size]")
        self.population_size = population_size
        self.sample_size = sample_size

    def _explore(self, initial: DNNConfig, num_candidates: int) -> int:
        seeds = [initial] + [
            self.random_walk(initial, max_moves=2)
            for _ in range(min(self.population_size, max(self.budget_left, 1)) - 1)
        ]
        estimates = self.score_generation(seeds)
        population: deque[tuple[DNNConfig, float]] = deque(maxlen=self.population_size)
        for config, estimate in zip(seeds, estimates):
            self.consider(config, estimate)
            population.append((config, self.energy(estimate)))
        cycles = 0
        while len(self._candidates) < num_candidates and self.budget_left > 0:
            cycles += 1
            draws = min(self.sample_size, len(population))
            sampled = [
                population[int(self.rng.integers(0, len(population)))]
                for _ in range(draws)
            ]
            parent = min(sampled, key=lambda pair: pair[1])[0]
            child = self.random_move(parent)
            estimate = self.evaluate(child)
            self.consider(child, estimate)
            # deque(maxlen=...) retires the oldest member on append: aging.
            population.append((child, self.energy(estimate)))
        return cycles


@register_explorer("annealing")
class AnnealingExplorer(MoveBasedExplorer):
    """Simulated annealing on the latency-gap energy.

    Proposals are random moves; a worse proposal is accepted with probability
    ``exp(-dE / T)`` and the temperature decays geometrically.  Accepted
    in-band candidates restart the walk from a perturbed copy (mirroring the
    ``scd`` explorer's diversification step).
    """

    def __init__(
        self,
        *args,
        initial_temperature: Optional[float] = None,
        cooling: float = 0.95,
        min_temperature: float = 1e-3,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 < cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        if min_temperature <= 0.0:
            raise ValueError("min_temperature must be positive")
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.min_temperature = min_temperature

    def _explore(self, initial: DNNConfig, num_candidates: int) -> int:
        temperature = self.initial_temperature
        if temperature is None:
            temperature = 4.0 * self.latency_target.tolerance_ms
        # A zero-tolerance band (or an explicit 0) would make the Metropolis
        # step divide by zero; the floor also keeps cooling well-defined.
        temperature = max(temperature, self.min_temperature)
        current = initial
        current_estimate = self.evaluate(current)
        self.consider(current, current_estimate)
        current_energy = self.energy(current_estimate)
        iterations = 0
        while len(self._candidates) < num_candidates and self.budget_left > 0:
            iterations += 1
            proposal = self.random_move(current)
            proposal_estimate = self.evaluate(proposal)
            proposal_energy = self.energy(proposal_estimate)
            if self.consider(proposal, proposal_estimate):
                # Diversify away from an accepted candidate; re-evaluate the
                # perturbed config so the Metropolis baseline matches the
                # actual current state.
                current = self.random_move(proposal)
                if self.budget_left <= 0:
                    break
                current_estimate = self.evaluate(current)
                self.consider(current, current_estimate)
                current_energy = self.energy(current_estimate)
                temperature = max(temperature * self.cooling, self.min_temperature)
                continue
            delta = proposal_energy - current_energy
            if delta <= 0 or self.rng.random() < math.exp(-delta / temperature):
                current = proposal
                current_energy = proposal_energy
            temperature = max(temperature * self.cooling, self.min_temperature)
        return iterations
