"""Tests for the unified hardware-backend abstraction (:mod:`repro.backend`).

Covers target-spec parsing and registry errors, the GPU roofline engine
(population scoring through the cache, golden equivalence against the
Table 2 GPU baseline), the wire round trip of :class:`PreparedTarget` on
both backends, mixed-backend sweeps and the legacy FPGA byte-identity
contract against a checkpoint generated before the backend refactor.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import fields as dataclass_fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import (
    FPGABackend,
    GPUBackend,
    backend_catalog,
    backend_for,
    backend_name_for,
    get_backend,
    infer_backend,
    resolve_targets,
)
from repro.core.auto_hls import AutoHLS
from repro.core.bundle_generation import get_bundle
from repro.core.constraints import ResourceConstraint
from repro.core.dnn_config import DNNConfig
from repro.detection.task import TINY_DETECTION_TASK
from repro.experiments.table2 import HOST_OVERHEAD_MS, _gpu_baseline_rows
from repro.baselines.entries import gpu_contest_entries
from repro.gpu import GPURooflineEngine, JETSON_TX2, get_gpu_device
from repro.hw.analytical import AnalyticalModelCoefficients
from repro.hw.device import PYNQ_Z1
from repro.search import EvaluationCache
from repro.sweep import (
    PreparedTarget,
    SweepRunner,
    build_grid,
    compare,
    diff_results,
    prepare_device,
)
from repro.utils.serialization import to_jsonable

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "legacy_fpga_checkpoint.jsonl"

#: Shared tiny sweep budget: every cell completes in well under a second.
TINY = dict(tolerance_ms=10.0, iterations=25, num_candidates=1, top_bundles=2, seed=1)

#: The grid parameters the legacy fixture checkpoint was generated with
#: (pre-refactor code, workers=1).
LEGACY = dict(tolerance_ms=8.0, iterations=10, num_candidates=1,
              top_bundles=2, seed=2019)


def _configs(n=6):
    """A spread of structurally distinct configs for batch-identity checks."""
    out = []
    for i in range(n):
        reps = 2 + i % 3
        out.append(DNNConfig(
            bundle=get_bundle(1 + (i * 5) % 17),
            task=TINY_DETECTION_TASK,
            num_repetitions=reps,
            channel_expansion=(1.5,) * reps,
            downsample=(1,) + (0,) * (reps - 1),
            stem_channels=16,
            parallel_factor=2 ** (2 + i % 4),
            max_channels=128,
        ))
    return out


# --------------------------------------------------------------- target specs
class TestTargetSpecs:
    def test_bare_name_defaults_to_fpga(self):
        [target] = resolve_targets("pynq-z1")
        assert target.backend.name == "fpga"
        assert target.canonical == "PYNQ-Z1"

    def test_prefixed_specs_resolve(self):
        assert [t.canonical for t in resolve_targets("fpga:ultra96")] == ["Ultra96"]
        assert [t.canonical for t in resolve_targets("gpu:jetson-tx2")] == ["gpu:jetson-tx2"]

    def test_mixed_spec_resolves_and_dedupes(self):
        targets = resolve_targets("fpga:pynq-z1,gpu:jetson-tx2,pynq-z1")
        assert [t.canonical for t in targets] == ["PYNQ-Z1", "gpu:jetson-tx2"]
        assert [t.backend.name for t in targets] == ["fpga", "gpu"]

    def test_all_expands_per_backend(self):
        assert {t.canonical for t in resolve_targets("all")} == \
            {"PYNQ-Z1", "Ultra96", "ZC706"}
        assert [t.canonical for t in resolve_targets("gpu:all")] == \
            ["gpu:jetson-tx2"]

    def test_unknown_backend_lists_catalog(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_targets("tpu:v4")
        assert "Unknown backend 'tpu'" in str(excinfo.value)
        assert "Registered backends" in str(excinfo.value)
        assert "gpu (jetson-tx2)" in str(excinfo.value)

    def test_unknown_device_lists_catalog(self):
        with pytest.raises(ValueError, match="Unknown fpga device 'virtex'"):
            resolve_targets("virtex")
        with pytest.raises(ValueError, match="Unknown gpu device"):
            resolve_targets("gpu:a100")

    def test_backend_name_for_canonical_strings(self):
        assert backend_name_for("PYNQ-Z1") == "fpga"
        assert backend_name_for("gpu:jetson-tx2") == "gpu"
        assert backend_for("gpu:jetson-tx2") is get_backend("gpu")


# ------------------------------------------------------------------- registry
class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        fpga = get_backend("fpga")
        gpu = get_backend("gpu")
        assert isinstance(fpga, FPGABackend) and fpga.requires_fit
        assert isinstance(gpu, GPUBackend) and not gpu.requires_fit
        catalog = backend_catalog()
        assert "fpga (" in catalog and "gpu (" in catalog

    def test_get_backend_unknown(self):
        with pytest.raises(ValueError, match="Registered backends"):
            get_backend("asic")

    def test_infer_backend_from_device_object(self):
        assert infer_backend(PYNQ_Z1).name == "fpga"
        assert infer_backend(JETSON_TX2).name == "gpu"

    def test_gpu_resource_budget_is_unbounded(self):
        constraint = get_backend("gpu").resource_constraint(JETSON_TX2)
        assert isinstance(constraint, ResourceConstraint)
        engine = AutoHLS(PYNQ_Z1)
        estimate = engine.estimate(_configs(1)[0])
        assert constraint.satisfied_by(estimate.resources)


# ------------------------------------------------------------------ GPU engine
class TestGPURooflineEngine:
    def test_population_scores_through_cache_match_config_by_config(self):
        engine = GPURooflineEngine(JETSON_TX2)
        configs = _configs(8) + _configs(3)  # repeats are served from memory
        scores = EvaluationCache(engine.estimate).evaluate_batch(configs)
        assert scores == [engine.estimate(c) for c in configs]

    def test_clock_is_fixed(self):
        device = get_gpu_device("jetson-tx2")
        backend = get_backend("gpu")
        assert backend.validate_clock(device, 854.0) == 854.0
        with pytest.raises(ValueError, match="fixed"):
            backend.validate_clock(device, 500.0)

    def test_build_grid_rejects_clock_sweep_on_gpu(self):
        with pytest.raises(ValueError, match="fixed"):
            build_grid("gpu:jetson-tx2", "scd", [40.0], clocks_mhz=[500.0], **TINY)

    def test_fingerprint_is_stable_and_fit_free(self):
        engine = GPURooflineEngine(JETSON_TX2)
        assert engine.coefficients is None
        fingerprint = get_backend("gpu").engine_fingerprint(engine)
        assert fingerprint.startswith("gpu-roofline-")
        assert fingerprint == get_backend("gpu").engine_fingerprint(
            GPURooflineEngine(JETSON_TX2)
        )


# ------------------------------------------------- golden equivalence: Table 2
class TestGPUGoldenVsTable2:
    """GPUBackend reproduces the Table 2 GPU baseline rows exactly."""

    NUM_FRAMES = 50_000

    def test_latency_and_energy_match_table2_rows(self):
        backend = get_backend("gpu")
        device = get_gpu_device("jetson-tx2")
        engine = backend.create_engine(device)
        power = backend.power_model(device)
        rows = _gpu_baseline_rows(gpu_contest_entries(), self.NUM_FRAMES)
        assert rows, "Table 2 must carry GPU baseline rows"
        for entry, row in zip(
            [e for e in gpu_contest_entries() if e.workload is not None], rows
        ):
            latency = engine.latency_model.latency_ms(
                entry.workload, precision_bytes=engine.precision_bytes
            )
            assert latency == row.latency_ms
            energy = power.energy_report(
                latency, num_frames=self.NUM_FRAMES,
                overhead_ms_per_frame=HOST_OVERHEAD_MS,
            )
            assert energy.fps == row.fps
            assert energy.power_w == row.power_w
            assert energy.total_energy_kj == row.energy_kj
            assert energy.energy_per_frame_j == row.j_per_pic


# --------------------------------------------------- PreparedTarget wire trips
# Coefficients validate on construction (alpha > 0, the rest >= 0), so draw
# from the positive range; exactness of the wire trip is what's under test.
finite = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)
coeff_names = [f.name for f in dataclass_fields(AnalyticalModelCoefficients)]


class TestPreparedTargetWire:
    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(finite, min_size=len(coeff_names),
                        max_size=len(coeff_names)),
        clock=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
        utilization=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    )
    def test_fpga_round_trip_is_exact(self, values, clock, utilization):
        prepared = PreparedTarget(
            device="PYNQ-Z1",
            clock_mhz=clock,
            utilization=utilization,
            top_bundles=3,
            coefficients=AnalyticalModelCoefficients(
                **dict(zip(coeff_names, values))
            ),
            selected_bundle_ids=(13, 7, 1),
            fingerprint="deadbeef",
            backend="fpga",
        )
        wire = json.loads(json.dumps(prepared.to_wire()))
        rebuilt = PreparedTarget.from_wire(wire)
        assert rebuilt.coefficients == prepared.coefficients
        # Duration is telemetry, not model state; everything else is exact.
        assert rebuilt == prepared

    @settings(max_examples=30, deadline=None)
    @given(
        utilization=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        top_bundles=st.integers(min_value=1, max_value=18),
    )
    def test_gpu_round_trip_is_exact(self, utilization, top_bundles):
        prepared = PreparedTarget(
            device="gpu:jetson-tx2",
            clock_mhz=854.0,
            utilization=utilization,
            top_bundles=top_bundles,
            coefficients=None,
            selected_bundle_ids=tuple(range(1, top_bundles + 1)),
            fingerprint="gpu-roofline-ce0.42-me0.6-kl55us-pb2",
            backend="gpu",
        )
        wire = json.loads(json.dumps(prepared.to_wire()))
        assert "coefficients" not in wire
        assert PreparedTarget.from_wire(wire) == prepared

    def test_fpga_payload_without_coefficients_rejected(self):
        payload = {
            "device": "PYNQ-Z1", "clock_mhz": 100.0, "utilization": 1.0,
            "top_bundles": 2, "selected_bundle_ids": [13], "fingerprint": "x",
            "backend": "fpga",
        }
        with pytest.raises(ValueError, match="coefficients"):
            PreparedTarget.from_wire(payload)


# ------------------------------------------------------- mixed-backend sweeps
class TestMixedBackendSweep:
    def test_grid_prepares_runs_and_compares_across_backends(self, tmp_path):
        tasks = build_grid("fpga:pynq-z1,gpu:jetson-tx2", "scd,random",
                           [20.0], **TINY)
        assert [t.device for t in tasks] == \
            ["PYNQ-Z1", "PYNQ-Z1", "gpu:jetson-tx2", "gpu:jetson-tx2"]
        assert {t.backend for t in tasks} == {"fpga", "gpu"}

        result = SweepRunner(tasks, workers=2, cache_dir=tmp_path).run()
        assert result.ok and len(result) == len(tasks)

        report = compare(result)
        assert set(report.pareto_fronts) == {"fpga", "gpu"}
        rendered = report.render()
        assert "Pareto front [backend=fpga]" in rendered
        assert "Pareto front [backend=gpu]" in rendered
        assert "Cross-backend Pareto front" in rendered

        diff = diff_results(result, result, label_a="a", label_b="b")
        assert diff.identical
        assert {row.backend for row in diff.rows} == {"fpga", "gpu"}

    def test_gpu_preparation_is_fit_free(self):
        task = build_grid("gpu:jetson-tx2", "scd", [20.0], **TINY)[0]
        prepared = prepare_device(task)
        assert prepared.backend == "gpu"
        assert prepared.coefficients is None
        assert prepared.fingerprint.startswith("gpu-roofline-")
        assert prepared.matches(task)
        assert prepared.selected_bundle_ids == (1, 2)
        wire = json.loads(json.dumps(prepared.to_wire()))
        rebuilt = PreparedTarget.from_wire(wire)
        assert rebuilt.matches(task) and rebuilt.backend == "gpu"


# ----------------------------------------------- legacy FPGA byte-identity
class TestLegacyFPGAByteIdentity:
    """The non-negotiable invariant: FPGA-only sweeps using legacy device
    names are byte-identical to pre-refactor runs (fixture checkpoint was
    generated before the backend seam existed)."""

    def _legacy(self):
        from repro.sweep import SweepTask

        outcomes = {}
        for line in FIXTURE.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "outcome":
                task = SweepTask.from_dict(record["outcome"]["task"])
                outcomes[task.uid] = record["outcome"]
        return outcomes

    def _tasks(self):
        return build_grid("pynq-z1", "scd,random", [20.0], **LEGACY)

    def test_fresh_run_reproduces_prerefactor_outcomes(self, tmp_path):
        legacy = self._legacy()
        result = SweepRunner(self._tasks(), workers=1, cache_dir=tmp_path).run()
        assert {o.task.uid for o in result.outcomes} == set(legacy)
        for outcome in result.outcomes:
            fresh = to_jsonable(outcome)
            old = dict(legacy[outcome.task.uid])
            # Wall-clock durations are the only environment-dependent field.
            fresh.pop("duration_s")
            old.pop("duration_s")
            assert json.dumps(fresh, sort_keys=True) == \
                json.dumps(old, sort_keys=True)

    def test_resume_from_prerefactor_checkpoint_reuses_everything(self, tmp_path):
        legacy = self._legacy()
        result = SweepRunner(
            self._tasks(), workers=1, cache_dir=tmp_path,
            resume_from=str(FIXTURE),
        ).run()
        assert result.reused == len(legacy)
        for outcome in result.outcomes:
            assert to_jsonable(outcome) == legacy[outcome.task.uid]
