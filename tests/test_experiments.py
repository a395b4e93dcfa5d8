"""Tests for the experiment drivers that regenerate the paper's artefacts.

These are scaled-down runs (fewer bundles / iterations) that still check the
qualitative shapes the paper reports.
"""

from __future__ import annotations

import pytest

from repro.core.bundle_generation import get_bundle
from repro.detection.accuracy_model import SurrogateAccuracyModel
from repro.experiments.ablations import (
    report_ablations,
    run_codesign_vs_topdown,
    run_quantization_sweep,
    run_scd_vs_random,
    run_tile_sweep,
)
from repro.experiments.fig4 import report_fig4, run_fig4
from repro.experiments.fig5 import FIG5_BUNDLE_IDS, report_fig5, run_fig5
from repro.experiments.fig6 import model_scale_target, report_fig6, run_fig6
from repro.experiments.reference_designs import reference_designs
from repro.experiments.reporting import MODEL_TO_BOARD_LATENCY_GAP, ExperimentReport
from repro.experiments.table2 import report_table2, run_table2


@pytest.fixture(scope="module")
def fig4_result():
    bundles = [get_bundle(i) for i in (1, 3, 4, 9, 13, 15, 17)]
    return run_fig4(bundles=bundles, parallel_factors=(16,),
                    accuracy_model=SurrogateAccuracyModel(noise=0.0))


@pytest.fixture(scope="module")
def table2_result():
    return run_table2(num_frames=50_000)


class TestReporting:
    def test_experiment_report_renders_sections(self):
        report = ExperimentReport("Demo")
        report.add_table(["a", "b"], [[1, 2]])
        report.add_kv("facts", {"x": 1})
        text = report.render()
        assert "Demo" in text and "facts" in text

    def test_latency_gap_constant_reasonable(self):
        assert 1.0 <= MODEL_TO_BOARD_LATENCY_GAP <= 5.0


class TestFig4:
    def test_both_methods_evaluated(self, fig4_result):
        assert len(fig4_result.method1) == len(fig4_result.method2)
        assert {e.method for e in fig4_result.method1} == {1}
        assert {e.method for e in fig4_result.method2} == {2}

    def test_pareto_sets_overlap_substantially(self, fig4_result):
        """The paper: both construction methods give the same Pareto bundles."""
        assert fig4_result.pareto_overlap >= 0.5

    def test_selected_bundles_mix_families(self, fig4_result):
        selected = set(fig4_result.selected)
        assert any(b in selected for b in (13, 15, 17))  # efficient dw+pw family
        assert any(b in selected for b in (1, 3))        # accurate conv family

    def test_dominated_bundle_ranked_below_its_dominator(self, fig4_result):
        # Bundle 4 (conv5x5+conv3x3) costs more latency than bundle 3
        # (conv5x5+conv1x1) for no accuracy gain under the surrogate, so the
        # selection must rank bundle 3 ahead of bundle 4 whenever both appear.
        selected = fig4_result.selected
        if 4 in selected:
            assert 3 in selected and selected.index(3) < selected.index(4)

    def test_report_renders(self, fig4_result):
        text = report_fig4(fig4_result).render()
        assert "Pareto stability" in text
        assert "method #1" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5_result(self):
        return run_fig5(bundles=[get_bundle(i) for i in (1, 3, 13)],
                        repetition_counts=(2, 3),
                        accuracy_model=SurrogateAccuracyModel(noise=0.0))

    def test_default_bundle_ids_match_paper(self):
        assert FIG5_BUNDLE_IDS == (1, 3, 13, 15, 17)

    def test_grid_complete(self, fig5_result):
        # 3 bundles x 2 repetition counts x 3 activations.
        assert len(fig5_result.evaluations) == 18

    def test_bundle13_is_latency_leader(self, fig5_result):
        """Fig. 5's observation: bundle 13 favours real-time designs."""
        assert fig5_result.latency_leader() == 13

    def test_conv_bundle_is_accuracy_leader(self, fig5_result):
        """Fig. 5's observation: bundles 1 / 3 favour high-accuracy designs."""
        assert fig5_result.accuracy_leader() in (1, 3)

    def test_report_renders(self, fig5_result):
        text = report_fig5(fig5_result).render()
        assert "accuracy-favourable bundle" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6_result(self):
        return run_fig6(bundles=[get_bundle(13), get_bundle(15)],
                        candidates_per_bundle=1, max_iterations=80,
                        accuracy_model=SurrogateAccuracyModel(noise=0.0), rng=3)

    def test_model_scale_target_conversion(self):
        target = model_scale_target(10.0)
        assert target.latency_ms == pytest.approx(100.0 / MODEL_TO_BOARD_LATENCY_GAP)

    def test_candidates_found_for_each_target(self, fig6_result):
        assert set(fig6_result.candidates) == {10.0, 15.0, 20.0}
        assert fig6_result.total_explored >= 3

    def test_candidates_respect_their_band(self, fig6_result):
        for fps, target in zip(fig6_result.board_fps_targets, fig6_result.targets):
            for candidate in fig6_result.candidates[fps]:
                assert target.within_band(candidate.estimate.latency_ms)

    def test_lower_fps_target_allows_higher_accuracy(self, fig6_result):
        best = fig6_result.best_accuracies()
        if best[10.0] == best[10.0] and best[20.0] == best[20.0]:  # both found
            assert best[10.0] >= best[20.0] - 0.02

    def test_report_renders(self, fig6_result):
        text = report_fig6(fig6_result).render()
        assert "Final designs" in text


class TestReferenceDesigns:
    def test_structures_match_fig6_annotations(self):
        dnn1, dnn2, dnn3 = reference_designs()
        assert dnn1.bundle.bundle_id == dnn2.bundle.bundle_id == dnn3.bundle.bundle_id == 13
        assert dnn1.num_repetitions == 5 and dnn2.num_repetitions == 4
        assert max(dnn1.channel_schedule()) == 512
        assert max(dnn2.channel_schedule()) <= 384
        assert dnn1.feature_bits == 8 and dnn2.feature_bits == 16 and dnn3.feature_bits == 8


class TestTable2:
    def test_all_rows_present(self, table2_result):
        assert len(table2_result.our_rows) == 6   # 3 designs x 2 clocks
        assert len(table2_result.fpga_rows) == 3
        assert len(table2_result.gpu_rows) == 3

    def test_our_designs_trade_accuracy_for_fps(self, table2_result):
        at_100 = [r for r in table2_result.our_rows if r.clock_mhz == 100.0]
        by_name = {r.name.split()[0]: r for r in at_100}
        assert by_name["DNN1"].iou > by_name["DNN2"].iou > by_name["DNN3"].iou
        assert by_name["DNN1"].fps < by_name["DNN2"].fps < by_name["DNN3"].fps

    def test_150mhz_faster_than_100mhz(self, table2_result):
        for name in ("DNN1", "DNN2", "DNN3"):
            rows = [r for r in table2_result.our_rows if r.name.startswith(name)]
            rows.sort(key=lambda r: r.clock_mhz)
            assert rows[1].fps > rows[0].fps

    def test_fpga_power_far_below_gpu_power(self, table2_result):
        max_fpga = max(r.power_w for r in table2_result.our_rows + table2_result.fpga_rows)
        min_gpu = min(r.power_w for r in table2_result.gpu_rows)
        assert min_gpu > 3 * max_fpga

    def test_utilization_within_device(self, table2_result):
        for row in table2_result.our_rows:
            assert row.utilization is not None
            assert all(v <= 100.0 for v in row.utilization.values())

    def test_headline_claims_shape(self, table2_result):
        claims = table2_result.headline_claims()
        # Ours beats the 1st-place FPGA entry on accuracy, throughput and
        # energy efficiency (the paper reports +6.2%, 2.48x and 2.5x).
        assert claims["iou_gain_vs_fpga1"] > 0.03
        assert claims["fps_ratio_vs_fpga1"] > 1.5
        assert claims["energy_eff_ratio_vs_fpga1"] > 1.5
        # The GPU entries keep an accuracy edge but lose on energy efficiency
        # (paper: -1.2% IoU, 3.1-3.8x better energy efficiency for ours).
        assert claims["iou_gap_vs_gpu1"] < 0.0
        assert claims["energy_eff_ratio_vs_gpu_min"] > 1.5
        # Against the reported 4.2 W of the 1st-place FPGA board, power drops
        # substantially (paper: 40% lower).
        assert claims["power_reduction_vs_fpga1_reported"] > 0.2

    def test_energy_accounting_consistent(self, table2_result):
        for row in table2_result.all_rows:
            assert row.j_per_pic == pytest.approx(row.power_w / row.fps, rel=1e-6)
            assert row.energy_kj == pytest.approx(row.j_per_pic * 50_000 / 1000.0, rel=1e-6)

    def test_report_renders(self, table2_result):
        text = report_table2(table2_result).render()
        assert "Headline claims" in text
        assert "1st in FPGA" in text and "Tiny-Yolo" in text


class TestAblations:
    def test_scd_more_efficient_than_random(self):
        comparison = run_scd_vs_random(board_fps=20.0, num_candidates=2, max_iterations=100, rng=4)
        assert comparison.scd_found >= comparison.random_found or (
            comparison.scd_iterations <= comparison.random_iterations
        )

    def test_tile_sweep_shapes(self):
        points = run_tile_sweep()
        assert len(points) >= 3
        bram_values = [p.bram for p in points]
        assert bram_values == sorted(bram_values)  # larger tiles need more BRAM

    def test_quantization_sweep_shapes(self):
        points = run_quantization_sweep(accuracy_model=SurrogateAccuracyModel(noise=0.0))
        by_act = {p.activation: p for p in points}
        assert by_act["relu"].accuracy > by_act["relu4"].accuracy
        assert by_act["relu"].latency_ms >= by_act["relu4"].latency_ms

    def test_codesign_vs_topdown(self):
        comparison = run_codesign_vs_topdown()
        assert comparison.iou_gain > 0.0

    def test_report_renders(self):
        report = report_ablations(
            run_scd_vs_random(num_candidates=1, max_iterations=40, rng=1),
            run_tile_sweep(),
            run_quantization_sweep(accuracy_model=SurrogateAccuracyModel(noise=0.0)),
            run_codesign_vs_topdown(),
        )
        text = report.render()
        assert "Tile-size sweep" in text and "Quantization sweep" in text
