"""Unified hardware backends (FPGA and GPU) behind one protocol.

See :mod:`repro.backend.base` for the protocol and the target-spec grammar
(``fpga:pynq-z1``, ``gpu:jetson-tx2``, bare names default to fpga).  The two
built-in backends register on import; new backends call
:func:`register_backend` and inherit the whole sweep/shard/compare stack.
"""

from repro.backend.base import (
    Backend,
    DEFAULT_BACKEND,
    ResolvedTarget,
    backend_catalog,
    backend_for,
    backend_name_for,
    get_backend,
    infer_backend,
    register_backend,
    resolve_targets,
)
from repro.backend.fpga import FPGABackend
from repro.backend.gpu import GPUBackend

register_backend(FPGABackend())
register_backend(GPUBackend())

__all__ = [
    "Backend",
    "DEFAULT_BACKEND",
    "FPGABackend",
    "GPUBackend",
    "ResolvedTarget",
    "backend_catalog",
    "backend_for",
    "backend_name_for",
    "get_backend",
    "infer_backend",
    "register_backend",
    "resolve_targets",
]
