"""The unified hardware-backend protocol and its registry.

The paper co-designs DNNs against a single FPGA; the reproduction grew the
same assumption into every layer (``CoDesignFlow`` constructed ``AutoHLS``
directly, ``SweepTask``/``build_grid`` resolved names through ``hw/`` only).
:class:`Backend` lifts that seam into a protocol: each backend knows how to
resolve its target names, build an estimation engine, run the once-per-target
preparation, and supply resource/power models — so the search, sweep, shard
and compare layers are backend-agnostic.

Target specs are strings of the form ``backend:device``::

    fpga:pynq-z1      # explicit backend prefix
    gpu:jetson-tx2    # the GPU roofline backend
    pynq-z1           # bare names default to the fpga backend
    all               # every device of the (fpga) backend

Canonical device strings are backend-defined.  The FPGA backend canonicalizes
to the device's display name (``PYNQ-Z1``) — exactly what pre-backend sweeps
stored — so legacy task uids, journals, checkpoints and disk-cache shards are
byte-identical.  The GPU backend canonicalizes to ``gpu:<slug>`` so the two
namespaces can never collide.

Registering a new backend is two steps: subclass :class:`Backend` and call
:func:`register_backend` with an instance.  Everything downstream (grid
building, prep shipping, compare sections, CLI validation) picks it up from
the registry.

This module lazy-imports ``repro.core`` / ``repro.sweep`` inside methods:
both packages import :mod:`repro.backend` at module level.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.bundle import Bundle
    from repro.core.constraints import ResourceConstraint
    from repro.detection.task import DetectionTask


class Backend(ABC):
    """One hardware substrate the co-design flow can target.

    Implementations are stateless singletons living in the registry; all
    per-target state travels through the engine objects they create and the
    wire-serializable :class:`~repro.sweep.runner.PreparedTarget`.
    """

    #: Registry key and target-spec prefix (``fpga`` in ``fpga:pynq-z1``).
    name: str = ""

    #: Whether :meth:`CoDesignFlow.step1_modeling` must fit model
    #: coefficients before estimates are meaningful.  Fit-free backends
    #: prepare with ``coefficients=None``.
    requires_fit: bool = True

    # ------------------------------------------------------------ resolution
    @abstractmethod
    def device_names(self) -> list[str]:
        """The registered target names of this backend (for error listings)."""

    @abstractmethod
    def resolve_device(self, name: str):
        """Resolve one target name to its device object.

        Raises :class:`ValueError` (listing this backend's devices) for
        unknown names.
        """

    @abstractmethod
    def canonical_name(self, device) -> str:
        """The canonical device string stored on ``SweepTask.device``."""

    def resolve_spec(self, name: str) -> list:
        """Resolve a single spec token; ``all`` expands to every device."""
        if name.strip().lower() == "all":
            return [self.resolve_device(known) for known in self.device_names()]
        return [self.resolve_device(name)]

    def device_of(self, device_str: str):
        """Resolve a canonical device string back to its device object."""
        name = device_str
        prefix = f"{self.name}:"
        if name.lower().startswith(prefix):
            name = name[len(prefix):]
        return self.resolve_device(name)

    # ----------------------------------------------------------- clock/budget
    @abstractmethod
    def default_clock_mhz(self, device) -> float:
        """The clock a target runs at when the task does not pin one."""

    @abstractmethod
    def validate_clock(self, device, clock_mhz: float) -> float:
        """Validate an explicit clock request; returns the effective clock."""

    @abstractmethod
    def resource_constraint(self, device, utilization_limit: float = 1.0) -> "ResourceConstraint":
        """The resource budget the search must respect on this target."""

    # ------------------------------------------------------------- estimation
    @abstractmethod
    def create_engine(self, device, clock_mhz: Optional[float] = None):
        """Build the estimation engine (the ``auto_hls`` slot of the flow).

        The engine contract: ``estimate(config) -> PerformanceEstimate``,
        plus ``clock_mhz``, ``device`` and a settable ``coefficients``
        attribute (``None`` on fit-free backends).  ``estimate`` is the one
        entry point: an :class:`~repro.search.cache.EvaluationCache` scores
        every miss, a population's too, with one call to it.
        """

    @abstractmethod
    def engine_fingerprint(self, engine) -> str:
        """Stable fingerprint of the engine's model state.

        Namespaces the persistent disk cache and tags prepared state, so
        estimates from differently-fitted models never share a cache slot.
        """

    # ------------------------------------------------------------ preparation
    def create_bundle_evaluator(self, task: "DetectionTask", device, accuracy_model):
        """The step-2 bundle evaluator, or ``None`` on backends that select
        bundles without one (see :meth:`select_bundles`)."""
        return None

    def select_bundles(self, bundles: Sequence["Bundle"], top_n: int) -> list:
        """Fit-free bundle selection used when there is no evaluator.

        Deterministic by construction: the first ``top_n`` catalogue bundles,
        in catalogue order.
        """
        return list(bundles)[:top_n]

    # ------------------------------------------------------------------ power
    @abstractmethod
    def power_model(self, device):
        """The board-power / energy model of this target."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


@dataclass(frozen=True)
class ResolvedTarget:
    """One ``backend:device`` pair resolved from a target spec."""

    backend: Backend
    device: object

    @property
    def canonical(self) -> str:
        return self.backend.canonical_name(self.device)


# --------------------------------------------------------------------- registry
_BACKENDS: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Register a :class:`Backend` instance under its ``name``."""
    if not backend.name:
        raise ValueError("Backend.name must be a non-empty string")
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a registered backend by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"Unknown backend '{name}'. {backend_catalog()}"
        ) from None


def list_backends() -> list[Backend]:
    """All registered backends, in registration order."""
    return list(_BACKENDS.values())


def backend_catalog() -> str:
    """Human-readable listing of every backend and its devices."""
    parts = [
        f"{backend.name} ({', '.join(backend.device_names())})"
        for backend in _BACKENDS.values()
    ]
    return f"Registered backends: {'; '.join(parts)}"


DEFAULT_BACKEND = "fpga"


# ------------------------------------------------------------------ target specs
def parse_target(spec: str) -> ResolvedTarget:
    """Parse one ``backend:device`` (or bare-device) spec token."""
    token = spec.strip()
    if not token:
        raise ValueError(f"Empty target spec in {spec!r}. {backend_catalog()}")
    if ":" in token:
        prefix, _, device_name = token.partition(":")
        backend = _BACKENDS.get(prefix.strip().lower())
        if backend is None:
            raise ValueError(
                f"Unknown backend '{prefix.strip()}' in target '{token}'. {backend_catalog()}"
            )
        return ResolvedTarget(backend, backend.resolve_device(device_name.strip()))
    backend = get_backend(DEFAULT_BACKEND)
    return ResolvedTarget(backend, backend.resolve_device(token))


def resolve_targets(spec: Union[str, Iterable[str]]) -> list[ResolvedTarget]:
    """Resolve a target spec (comma string or sequence) to unique targets.

    ``fpga:all`` / bare ``all`` expand to every device of that backend; order
    is preserved and duplicates are dropped (first occurrence wins), matching
    the legacy :func:`repro.hw.device.resolve_devices` semantics.
    """
    if isinstance(spec, str):
        tokens = [token for token in spec.split(",") if token.strip()]
    else:
        tokens = [str(token) for token in spec]
    if not tokens:
        raise ValueError(f"No targets in spec {spec!r}. {backend_catalog()}")
    resolved: list[ResolvedTarget] = []
    seen: set[str] = set()
    for token in tokens:
        token = token.strip()
        if ":" in token:
            prefix, _, rest = token.partition(":")
            backend = _BACKENDS.get(prefix.strip().lower())
            if backend is None:
                raise ValueError(
                    f"Unknown backend '{prefix.strip()}' in target '{token}'. {backend_catalog()}"
                )
            devices = backend.resolve_spec(rest.strip())
        else:
            backend = get_backend(DEFAULT_BACKEND)
            devices = backend.resolve_spec(token)
        for device in devices:
            canonical = backend.canonical_name(device)
            if canonical not in seen:
                seen.add(canonical)
                resolved.append(ResolvedTarget(backend, device))
    return resolved


def backend_name_for(device_str: str) -> str:
    """The backend name a canonical device string belongs to.

    Canonical strings are prefix-tagged for every backend except the default
    (legacy FPGA names like ``PYNQ-Z1`` carry no prefix).
    """
    if ":" in device_str:
        prefix = device_str.partition(":")[0].lower()
        if prefix in _BACKENDS:
            return prefix
    return DEFAULT_BACKEND


def backend_for(device_str: str) -> Backend:
    """The backend a canonical device string belongs to."""
    return _BACKENDS[backend_name_for(device_str)]


def infer_backend(device) -> Backend:
    """Infer the backend of a device *object* (for ``CoDesignFlow`` defaults).

    GPU devices are recognized structurally (they carry ``cuda_cores``), so
    callers holding a :class:`repro.gpu.device.GPUDevice` need not name the
    backend explicitly.
    """
    if getattr(device, "cuda_cores", None) is not None:
        return get_backend("gpu")
    return get_backend(DEFAULT_BACKEND)
