"""Tests for Pareto utilities and constraints."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import LatencyTarget, ResourceConstraint
from repro.core.pareto import group_by, pareto_front
from repro.hw.device import PYNQ_Z1
from repro.hw.resource import ResourceVector


class TestParetoFront:
    def test_simple_front(self):
        # (cost, value) points; (1, 1) and (3, 5) are non-dominated.
        points = [(1.0, 1.0), (2.0, 1.0), (3.0, 5.0), (4.0, 4.0)]
        front = pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])
        assert front == [(1.0, 1.0), (3.0, 5.0)]

    def test_single_point(self):
        assert pareto_front([(1, 2)], cost=lambda p: p[0], value=lambda p: p[1]) == [(1, 2)]

    def test_empty(self):
        assert pareto_front([], cost=lambda p: p[0], value=lambda p: p[1]) == []

    def test_duplicates_kept(self):
        points = [(1.0, 1.0), (1.0, 1.0)]
        front = pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])
        assert len(front) == 2

    def test_sorted_by_cost(self):
        points = [(5.0, 9.0), (1.0, 2.0), (3.0, 7.0)]
        front = pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])
        assert front == sorted(front, key=lambda p: p[0])

    def test_cost_and_value_called_once_per_item(self):
        # cost()/value() may be expensive; the dominance loop must work on
        # precomputed values instead of re-invoking them O(n^2) times.
        points = [(4.0, 4.0), (1.0, 1.0), (3.0, 5.0), (2.0, 1.0)]
        calls = {"cost": 0, "value": 0}

        def cost(p):
            calls["cost"] += 1
            return p[0]

        def value(p):
            calls["value"] += 1
            return p[1]

        front = pareto_front(points, cost=cost, value=value)
        assert front == [(1.0, 1.0), (3.0, 5.0)]
        assert calls["cost"] == len(points)
        assert calls["value"] == len(points)

    # Coordinates drawn from a small pool plus a continuous range, so ties
    # and exact duplicates occur constantly instead of almost never.
    _coord = st.one_of(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]), st.floats(0, 10))

    @staticmethod
    def _brute_force_front(points):
        """Reference O(n^2) dominance scan (the pre-optimization semantics)."""

        def dominated(i):
            ci, vi = points[i][0], points[i][1]
            for j, q in enumerate(points):
                cj, vj = q[0], q[1]
                if j != i and cj <= ci and vj >= vi and (cj < ci or vj > vi):
                    return True
            return False

        front = [p for i, p in enumerate(points) if not dominated(i)]
        front.sort(key=lambda p: p[0])
        return front

    @given(st.lists(st.tuples(_coord, _coord), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_reference(self, raw):
        # Tag each point with its index so list equality also pins the exact
        # ordering of equal-cost survivors (stable, input order).
        points = [(c, v, i) for i, (c, v) in enumerate(raw)]
        front = pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])
        assert front == self._brute_force_front(points)

    def test_equal_cost_group_keeps_all_best_value_duplicates(self):
        points = [(1.0, 5.0, "a"), (1.0, 5.0, "b"), (1.0, 4.0, "c")]
        front = pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])
        assert front == [(1.0, 5.0, "a"), (1.0, 5.0, "b")]

    def test_equal_value_at_higher_cost_is_dominated(self):
        # (2, 5) loses to (1, 5): cost strictly worse, value merely equal.
        points = [(1.0, 5.0), (2.0, 5.0)]
        front = pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])
        assert front == [(1.0, 5.0)]

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_front_members_not_dominated(self, points):
        front = pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])
        assert front  # never empty for non-empty input
        for member in front:
            dominated = any(
                other[0] <= member[0] and other[1] >= member[1]
                and (other[0] < member[0] or other[1] > member[1])
                for other in points
            )
            assert not dominated

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_best_value_point_always_on_front(self, points):
        front = pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])
        best_value = max(p[1] for p in points)
        assert any(p[1] == best_value for p in front)


class TestGroupBy:
    def test_groups_cover_all_items(self):
        items = list(range(10))
        groups = group_by(items, key=float, num_groups=3)
        assert sum(len(v) for v in groups.values()) == 10

    def test_single_value_single_group(self):
        groups = group_by([1, 1, 1], key=float, num_groups=3)
        assert len(groups) == 1

    def test_empty(self):
        assert group_by([], key=float, num_groups=3) == {}

    def test_invalid_num_groups(self):
        with pytest.raises(ValueError):
            group_by([1], key=float, num_groups=0)

    def test_max_key_lands_in_last_group(self):
        # The maximum key sits exactly on the upper bin edge; the index clamp
        # must fold it into group num_groups - 1, never a phantom extra bin.
        groups = group_by([0.0, 5.0, 10.0], key=float, num_groups=2)
        assert set(groups) == {0, 1}
        assert groups[1] == [5.0, 10.0]

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, keys, num_groups):
        groups = group_by(keys, key=float, num_groups=num_groups)
        # A partition: every item lands in exactly one valid bin, and bins
        # respect the key order (items of bin i never exceed bin i+1's).
        assert sorted(x for members in groups.values() for x in members) == sorted(keys)
        assert all(0 <= index < num_groups for index in groups)
        for index, members in groups.items():
            for other, other_members in groups.items():
                if index < other:
                    assert max(members) <= min(other_members)


class TestLatencyTarget:
    def test_latency_from_fps(self):
        target = LatencyTarget(fps=20.0)
        assert target.latency_ms == pytest.approx(50.0)

    def test_band_membership(self):
        target = LatencyTarget(fps=10.0, tolerance_ms=5.0)
        assert target.within_band(98.0)
        assert target.within_band(104.9)
        assert not target.within_band(110.0)
        assert not target.within_band(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyTarget(fps=0.0)
        with pytest.raises(ValueError):
            LatencyTarget(fps=10.0, tolerance_ms=0.0)

    def test_str(self):
        assert "FPS" in str(LatencyTarget(fps=15.0))


class TestResourceConstraint:
    def test_for_device(self):
        constraint = ResourceConstraint.for_device(PYNQ_Z1)
        assert constraint.satisfied_by(ResourceVector(lut=1000, ff=1000, dsp=10, bram=10))
        assert not constraint.satisfied_by(ResourceVector(dsp=500))

    def test_utilization_limit(self):
        constraint = ResourceConstraint.for_device(PYNQ_Z1, utilization_limit=0.5)
        assert not constraint.satisfied_by(ResourceVector(dsp=150))
        assert constraint.satisfied_by(ResourceVector(dsp=100))

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            ResourceConstraint.for_device(PYNQ_Z1, utilization_limit=0.0)

    def test_effective_budget_is_scaled_once_per_constraint(self, monkeypatch):
        import pickle

        scales = []
        scale = ResourceVector.scale
        monkeypatch.setattr(ResourceVector, "scale",
                            lambda vector, factor: scales.append(factor) or scale(vector, factor))
        constraint = ResourceConstraint.for_device(PYNQ_Z1, utilization_limit=0.5)
        fresh = ResourceConstraint.for_device(PYNQ_Z1, utilization_limit=0.5)
        usages = range(0, 400, 2)
        checks = [constraint.satisfied_by(ResourceVector(dsp=dsp)) for dsp in usages]
        assert scales == [0.5]
        assert checks == [dsp <= PYNQ_Z1.resources.dsp * 0.5 for dsp in usages]
        # The memo is no field: equality, hashing, repr and pickling ignore it.
        assert constraint == fresh and hash(constraint) == hash(fresh)
        assert repr(constraint) == repr(fresh)
        assert pickle.loads(pickle.dumps(constraint)) == fresh
