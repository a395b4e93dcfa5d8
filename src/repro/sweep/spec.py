"""Serializable sweep specification: one validated grid + runner-knob bundle.

The job service accepts sweeps over the wire, so the grid axes and
resilience knobs that ``repro-codesign sweep`` reads from argparse need a
JSON-round-trippable carrier that is validated **by the same parser
path**: :meth:`SweepSpec.from_payload` funnels every submitted spec
through :func:`repro.sweep.runner.build_grid`, so an unknown device,
strategy, backend prefix or out-of-range clock is rejected at submit time
with the exact error message the CLI would print — never discovered later
by a worker.

A spec is deliberately *pure data*: building the grid (:meth:`build_tasks`)
and the runner (:meth:`build_runner`) are derived operations, so the same
spec payload always produces the same task uids and therefore the same
journals — the byte-identity contract the checkpoint/resume machinery
depends on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional

from repro.backend import resolve_targets
from repro.sweep.runner import SweepRunner, SweepTask, build_grid

__all__ = ["SweepSpec"]


def _as_float_tuple(value, label: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value),)
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ValueError(f"'{label}' entries must be numbers, got {item!r}")
            out.append(float(item))
        if not out:
            raise ValueError(f"'{label}' must not be empty")
        return tuple(out)
    raise ValueError(f"'{label}' must be a number or a list of numbers")


def _as_axis(value, label: str) -> str:
    """Normalize a device/strategy axis to the CLI's comma-string form."""
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return ",".join(value)
    raise ValueError(f"'{label}' must be a string or a list of strings")


@dataclass(frozen=True)
class SweepSpec:
    """Grid axes + runner knobs of one sweep, as plain JSON-able data."""

    devices: str = "pynq-z1"
    strategies: str = "scd"
    fps: tuple[float, ...] = (10.0, 15.0, 20.0)
    tolerance_ms: float = 8.0
    iterations: int = 120
    num_candidates: int = 2
    top_bundles: int = 5
    seed: int = 2019
    clocks_mhz: Optional[tuple[float, ...]] = None
    utilizations: tuple[float, ...] = (1.0,)
    timeout_s: Optional[float] = None
    timeout_scale: float = 3.0
    retries: int = 1
    retry_backoff_s: float = 0.1

    # ------------------------------------------------------------ validation
    def build_tasks(self) -> list[SweepTask]:
        """Expand the grid through the canonical (CLI) validation path."""
        return build_grid(
            self.devices,
            self.strategies,
            list(self.fps),
            tolerance_ms=self.tolerance_ms,
            iterations=self.iterations,
            num_candidates=self.num_candidates,
            top_bundles=self.top_bundles,
            seed=self.seed,
            clocks_mhz=list(self.clocks_mhz) if self.clocks_mhz is not None else None,
            utilizations=list(self.utilizations),
        )

    def build_runner(
        self,
        *,
        cache_dir: Optional[str],
        workers: int = 1,
        transport=None,
        resume_from=None,
        clock: Callable[[], float] = time.time,
    ) -> SweepRunner:
        """Construct the runner this spec describes (knobs applied verbatim)."""
        return SweepRunner(
            self.build_tasks(),
            workers=workers,
            cache_dir=cache_dir,
            timeout_s=self.timeout_s,
            timeout_scale=self.timeout_scale,
            retries=self.retries,
            retry_backoff_s=self.retry_backoff_s,
            resume_from=resume_from,
            transport=transport,
            clock=clock,
        )

    # ------------------------------------------------------------- wire view
    def as_dict(self) -> dict:
        return {
            "devices": self.devices,
            "strategies": self.strategies,
            "fps": list(self.fps),
            "tolerance_ms": self.tolerance_ms,
            "iterations": self.iterations,
            "num_candidates": self.num_candidates,
            "top_bundles": self.top_bundles,
            "seed": self.seed,
            "clocks_mhz": list(self.clocks_mhz) if self.clocks_mhz is not None else None,
            "utilizations": list(self.utilizations),
            "timeout_s": self.timeout_s,
            "timeout_scale": self.timeout_scale,
            "retries": self.retries,
            "retry_backoff_s": self.retry_backoff_s,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SweepSpec":
        """Parse + validate a wire/JSON spec; raises ``ValueError`` on any defect.

        Unknown keys are rejected (a typoed knob silently falling back to
        its default would run the wrong sweep), and the resulting spec is
        grid-expanded once so every axis error surfaces at submit time.
        """
        if not isinstance(payload, Mapping):
            raise ValueError("sweep spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        data: dict = {}
        if "devices" in payload:
            data["devices"] = _as_axis(payload["devices"], "devices")
        if "strategies" in payload:
            data["strategies"] = _as_axis(payload["strategies"], "strategies")
        if "fps" in payload:
            data["fps"] = _as_float_tuple(payload["fps"], "fps")
        for name in ("tolerance_ms", "timeout_scale", "retry_backoff_s"):
            if name in payload:
                value = payload[name]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"'{name}' must be a number")
                data[name] = float(value)
        for name in ("iterations", "num_candidates", "top_bundles", "seed", "retries"):
            if name in payload:
                value = payload[name]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"'{name}' must be an integer")
                data[name] = value
        if payload.get("clocks_mhz") is not None:
            data["clocks_mhz"] = _as_float_tuple(payload["clocks_mhz"], "clocks_mhz")
        elif "clocks_mhz" in payload:
            data["clocks_mhz"] = None
        if "utilizations" in payload:
            data["utilizations"] = _as_float_tuple(payload["utilizations"], "utilizations")
        if payload.get("timeout_s") is not None:
            value = payload["timeout_s"]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError("'timeout_s' must be a number")
            data["timeout_s"] = float(value)
        spec = cls(**data)
        if spec.retries < 0:
            raise ValueError("'retries' must be >= 0")
        if spec.retry_backoff_s < 0:
            raise ValueError("'retry_backoff_s' must be >= 0")
        # Counted from the axes, so an oversized grid is never expanded.
        from repro.shard.protocol import MAX_JOB_CELLS

        strategies = {part.strip() for part in spec.strategies.split(",") if part.strip()}
        cells = math.prod(len(axis) for axis in (
            resolve_targets(spec.devices), strategies, set(spec.fps),
            set(spec.clocks_mhz or (None,)), set(spec.utilizations),
        ))
        if cells > MAX_JOB_CELLS:
            raise ValueError(
                f"sweep spec expands to {cells} cells; a job may hold at most {MAX_JOB_CELLS}"
            )
        spec.build_tasks()  # same eager validation as `repro-codesign sweep`
        return spec

    @classmethod
    def from_args(cls, args) -> "SweepSpec":
        """Build a spec from the shared sweep argparse namespace."""
        clocks = getattr(args, "clocks", None)
        return cls(
            devices=args.devices,
            strategies=args.strategies,
            fps=tuple(float(v) for v in args.fps),
            tolerance_ms=float(args.tolerance_ms),
            iterations=int(args.iterations),
            num_candidates=int(args.candidates),
            top_bundles=int(args.top_bundles),
            seed=int(args.seed),
            clocks_mhz=tuple(float(v) for v in clocks) if clocks else None,
            utilizations=tuple(float(v) for v in args.utilizations),
            timeout_s=float(args.timeout_s) if args.timeout_s is not None else None,
            timeout_scale=float(args.timeout_scale),
            retries=int(args.retries),
            retry_backoff_s=float(args.retry_backoff_s),
        )
