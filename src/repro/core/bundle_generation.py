"""Automatic bundle generation from the IP pool.

Sec. 4.2: bundles are generated from the IP pool (conv 1x1 / 3x3 / 5x5,
depth-wise conv 3x3 / 5x5 / 7x7, pooling, normalisation, activation) with at
most two computational IPs per bundle; 18 bundle candidates are generated
offline and used for DNN exploration.

Two entry points are provided:

* :func:`default_bundle_catalog` — the fixed, numbered catalogue of 18
  bundles used throughout the reproduction (the numbering is chosen so the
  bundles highlighted in the paper's figures keep their IDs, e.g. Bundle 13
  is ``dw-conv3x3 + conv1x1``),
* :func:`generate_bundles` — a generic combinatorial generator for arbitrary
  IP pools and compute-IP limits, used to scale the methodology to richer
  pools ("it can be easily extended to support more IPs for devices with
  more resources").
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Sequence

from repro.core.bundle import Bundle

#: Composition strings of the default 18-bundle catalogue, ordered so that
#: the bundle IDs referenced in the paper's figures map onto the same
#: structures (Bundle 13 = dw-conv3x3 + conv1x1, the block of the final
#: DNN1-3 designs; Bundles 1 / 3 are the convolution-heavy high-accuracy
#: blocks).
DEFAULT_BUNDLE_SIGNATURES: tuple[str, ...] = (
    "conv3x3+conv1x1",      # 1
    "conv3x3+conv3x3",      # 2
    "conv5x5+conv1x1",      # 3
    "conv5x5+conv3x3",      # 4
    "conv1x1+conv3x3",      # 5
    "conv1x1+conv5x5",      # 6
    "conv3x3",              # 7
    "conv5x5",              # 8
    "conv1x1",              # 9
    "dwconv3x3",            # 10
    "dwconv5x5",            # 11
    "dwconv7x7",            # 12
    "dwconv3x3+conv1x1",    # 13
    "dwconv5x5+conv1x1",    # 14
    "dwconv7x7+conv1x1",    # 15
    "conv1x1+dwconv3x3",    # 16
    "conv1x1+dwconv5x5",    # 17
    "conv1x1+dwconv7x7",    # 18
)


@lru_cache(maxsize=None)
def _shared_catalog() -> tuple[Bundle, ...]:
    # Bundles are frozen, so one set per process serves every caller.
    return tuple(Bundle.from_signature(i + 1, s) for i, s in enumerate(DEFAULT_BUNDLE_SIGNATURES))


def default_bundle_catalog() -> list[Bundle]:
    """The 18 bundle candidates used for the paper's experiments (a fresh list)."""
    return list(_shared_catalog())


def get_bundle(bundle_id: int) -> Bundle:
    """Look up a bundle from the default catalogue by its ID (1-based)."""
    catalog = _shared_catalog()
    for bundle in catalog:
        if bundle.bundle_id == bundle_id:
            return bundle
    raise KeyError(f"No bundle with id {bundle_id}; valid ids are 1..{len(catalog)}")


#: Computational IP keys of the default pool.
DEFAULT_COMPUTE_IPS: tuple[str, ...] = (
    "conv1x1", "conv3x3", "conv5x5", "dwconv3x3", "dwconv5x5", "dwconv7x7",
)


def generate_bundles(
    compute_ips: Sequence[str] = DEFAULT_COMPUTE_IPS,
    max_compute_ips: int = 2,
    include_single_ip: bool = True,
    require_channel_mixing: bool = False,
) -> list[Bundle]:
    """Enumerate bundle candidates from a pool of computational IPs.

    Parameters
    ----------
    compute_ips:
        IP keys to combine (e.g. ``"conv3x3"``, ``"dwconv5x5"``).
    max_compute_ips:
        Maximum number of computational IPs per bundle.
    include_single_ip:
        Whether single-IP bundles are emitted.
    require_channel_mixing:
        When true, bundles whose computational layers are all depth-wise
        (no channel mixing at all) are skipped.

    Returns
    -------
    list[Bundle]
        Bundles numbered sequentially from 1 in enumeration order.
    """
    if max_compute_ips <= 0:
        raise ValueError("max_compute_ips must be positive")
    seen: set[str] = set()
    signatures: list[str] = []

    sizes = range(1 if include_single_ip else 2, max_compute_ips + 1)
    for size in sizes:
        for combo in combinations_with_replacement(compute_ips, size):
            for ordering in permutations(combo):
                signature = "+".join(ordering)
                if signature in seen:
                    continue
                if require_channel_mixing and all(p.startswith("dw") for p in ordering):
                    continue
                seen.add(signature)
                signatures.append(signature)

    return [Bundle.from_signature(i + 1, s) for i, s in enumerate(signatures)]
