"""The coordinate moves of the stochastic coordinate descent (SCD) search.

Algorithm 1 (Sec. 5.2) walks the DNN design space along three coordinates:

* ``N`` — the number of bundle replications,
* ``Pi`` — the channel-expansion configuration,
* ``X`` — the down-sampling configuration.

This module holds that move set: one function per coordinate
(:func:`move_n`, :func:`move_pi`, :func:`move_x`) and :func:`apply_move`,
which dispatches on a coordinate name.  Every strategy in
:mod:`repro.search.strategies` moves through it, the ``scd`` explorer (the
loop of Algorithm 1) included, so all strategies search the same space.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dnn_config import DNNConfig
# Bound only for perfbench/tracer.py, which replaces it through this module's __dict__.
from repro.search.cache import config_cache_key  # noqa: F401

#: Channel-expansion factors available to the ``Pi`` coordinate (Sec. 5.2.2).
EXPANSION_FACTORS: tuple[float, ...] = (1.2, 1.3, 1.5, 1.75, 2.0)

#: Names of the three search coordinates of Algorithm 1.
MOVE_NAMES: tuple[str, ...] = ("N", "Pi", "X")


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
