"""Random-number-generator helpers.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng`
normalises these into a ``Generator`` so that experiments are reproducible
end to end.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RNGLike = Union[int, np.random.Generator, None]


def ensure_rng(rng: RNGLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` (fresh default generator), an integer seed, or an existing
        generator (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"Cannot build a Generator from {type(rng).__name__}")
