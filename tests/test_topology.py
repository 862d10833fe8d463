"""Feasibility masks, sublevel component counts and the mountain-pass count."""

import itertools
import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest

import switchstat
from switchstat.classify import classify_point
from switchstat.expr import parse_problem
from switchstat.stationarity import find_stationary_points
from switchstat.topology import (
    DegenerateInputError,
    DimensionError,
    GridSpec,
    LevelSweep,
    _active_labels,
    critical_level_report,
    feasibility_mask,
    mountain_pass_check,
    objective_values,
    sublevel_components,
    sublevel_labels,
    sweep_levels,
)


def _grid(p, lo=-2.0, hi=2.0, res=401):
    return GridSpec.for_problem(p, (lo, hi), res)


class TestGridSpec:
    def test_defaults(self, cross_linear):
        assert _grid(cross_linear).resolution == 401
        p3 = parse_problem("vars: a b c\nobjective: a + b + c\n")
        assert GridSpec.for_problem(p3, (-1, 1)).resolution == 101

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(((0.0, 1.0),), 8)
        with pytest.raises(ValueError):
            GridSpec(((1.0, 1.0),), 32)
        with pytest.raises(DimensionError):
            GridSpec(((0.0, 1.0),) * 4, 32)

    def test_dimension_limit(self):
        p4 = parse_problem("vars: a b c d\nobjective: a + b + c + d\n")
        with pytest.raises(DimensionError):
            GridSpec.for_problem(p4, (-1, 1))


class TestFeasibilityMask:
    def test_cross_is_axis_bands(self, cross_linear):
        grid = _grid(cross_linear)
        mask = feasibility_mask(cross_linear, grid)
        X1, X2 = grid.mesh()
        # every node on either axis is feasible
        on_axis = (np.abs(X1) < 1e-12) | (np.abs(X2) < 1e-12)
        assert mask[on_axis].all()
        # nodes far from both axes are infeasible
        far = (np.abs(X1) > 0.5) & (np.abs(X2) > 0.5)
        assert not mask[far].any()

    def test_infeasible_problem_all_false(self):
        p = parse_problem("vars: x1 x2\nobjective: x1\neq: x1 - x1 + 1\n")
        mask = feasibility_mask(p, _grid(p, res=64))
        assert not mask.any()

    def test_unconstrained_all_true(self):
        p = parse_problem("vars: x1 x2\nobjective: x1^2 + x2^2\n")
        mask = feasibility_mask(p, _grid(p, res=64))
        assert mask.all()

    def test_band_thickness_tracks_gradient(self, cross_linear):
        grid = _grid(cross_linear)
        mask = feasibility_mask(cross_linear, grid)
        X1, X2 = grid.mesh()
        # one grid row above the axis the product constraint still passes
        row = np.abs(X2 - grid.spacing) < 1e-12
        assert mask[row].all()


class TestSublevelComponents:
    def test_cross_linear_negative_level(self, cross_linear):
        grid = _grid(cross_linear)
        assert sublevel_components(cross_linear, grid, -0.5) == 2

    def test_cross_linear_positive_level(self, cross_linear):
        grid = _grid(cross_linear)
        assert sublevel_components(cross_linear, grid, 0.5) == 1

    def test_quadratic_cross_levels(self, cross_quadratic):
        grid = _grid(cross_quadratic)
        assert sublevel_components(cross_quadratic, grid, 1.5) == 2
        assert sublevel_components(cross_quadratic, grid, 2.5) == 1

    def test_empty_sublevel(self, cross_quadratic):
        grid = _grid(cross_quadratic)
        assert sublevel_components(cross_quadratic, grid, 0.5) == 0


def _bfs_labels(active):
    """Reference labelling: flood fill over all 3^n - 1 neighbours, started
    from each unlabelled True node in scan order."""
    shape = active.shape
    offsets = [
        off for off in itertools.product((-1, 0, 1), repeat=active.ndim) if any(off)
    ]
    labels = np.full(shape, -1, dtype=np.int64)
    count = 0
    for start in itertools.product(*(range(s) for s in shape)):
        if not active[start] or labels[start] >= 0:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for off in offsets:
                nb = tuple(i + o for i, o in zip(node, off))
                if all(0 <= i < s for i, s in zip(nb, shape)) and active[nb] and (
                    labels[nb] < 0
                ):
                    labels[nb] = count
                    queue.append(nb)
        count += 1
    return labels.ravel(), count


class TestActiveLabels:
    SHAPES = [(200,), (30, 41), (11, 13, 12)]
    DENSITIES = [0.2, 0.45, 0.7]

    def _masks(self):
        rng = np.random.default_rng(20260808)
        for shape in self.SHAPES:
            for d in self.DENSITIES:
                yield rng.random(shape) < d

    def _check(self, active):
        labels, count = _active_labels(active)
        ref, ref_count = _bfs_labels(active)
        assert labels.dtype == np.int64
        assert labels.shape == (active.size,)
        assert type(count) is int
        assert count == ref_count
        np.testing.assert_array_equal(labels, ref)
        assert (labels[~active.ravel()] == -1).all()
        assert (labels[active.ravel()] >= 0).all()
        # scan order: the first node of component k precedes that of k + 1
        _, first = np.unique(labels[labels >= 0], return_index=True)
        assert (np.diff(first) > 0).all()
        return labels, count

    def test_matches_flood_fill_reference(self):
        for active in self._masks():
            self._check(active)

    def test_all_false_and_all_true(self):
        for shape in self.SHAPES:
            _, count = self._check(np.zeros(shape, dtype=bool))
            assert count == 0
            labels, count = self._check(np.ones(shape, dtype=bool))
            assert count == 1
            assert (labels == 0).all()

    def test_corner_touching_blobs_are_one_component(self):
        active = np.zeros((6, 6, 6), dtype=bool)
        active[0:2, 0:2, 0:2] = True
        active[2:4, 2:4, 2:4] = True  # meets the first blob at one corner only
        active[5, 5, 5] = True
        labels, count = self._check(active)
        assert count == 2
        grid = labels.reshape(active.shape)
        assert grid[0, 0, 0] == grid[3, 3, 3] == 0
        assert grid[5, 5, 5] == 1


class TestSweep:
    def test_quadratic_cross_sweep(self, cross_quadratic):
        sweep = sweep_levels(cross_quadratic, _grid(cross_quadratic), [0.5, 1.5, 2.5])
        assert sweep.counts == (0, 2, 1)
        assert sweep.change_levels == (1.5, 2.5)

    def test_linear_cross_sweep(self, cross_linear):
        sweep = sweep_levels(cross_linear, _grid(cross_linear), [-1.0, 1.0])
        assert sweep.counts == (2, 1)
        assert sweep.change_levels == (1.0,)

    def test_empty_levels(self, cross_linear):
        sweep = sweep_levels(cross_linear, _grid(cross_linear), [])
        assert sweep == LevelSweep((), (), ())

    def test_unsorted_levels_rejected(self, cross_linear):
        with pytest.raises(ValueError):
            sweep_levels(cross_linear, _grid(cross_linear), [1.0, -1.0])

    def test_shared_mask_and_values(self, cross_quadratic):
        grid = _grid(cross_quadratic, res=201)
        levels = [0.5, 1.5, 2.5]
        mask = feasibility_mask(cross_quadratic, grid)
        fvals = objective_values(cross_quadratic, grid)
        assert sweep_levels(cross_quadratic, grid, levels, mask, fvals) == (
            sweep_levels(cross_quadratic, grid, levels)
        )

    def test_resolution_doubling_stable(self, cross_quadratic, cross_linear):
        for p, levels in (
            (cross_quadratic, [0.5, 1.5, 2.5]),
            (cross_linear, [-1.0, 1.0]),
        ):
            c1 = sweep_levels(p, _grid(p, res=401), levels).counts
            c2 = sweep_levels(p, _grid(p, res=801), levels).counts
            assert c1 == c2


class TestMonotoneContainment:
    def test_components_map_into_coarser_ones(self, cross_quadratic):
        grid = _grid(cross_quadratic, res=201)
        levels = [1.2, 1.8, 2.4, 3.0]
        labelled = [
            sublevel_labels(cross_quadratic, grid, a)[0] for a in levels
        ]
        for la, lb in zip(labelled, labelled[1:]):
            active_a = la >= 0
            assert (lb[active_a] >= 0).all()  # sublevel sets nest
            for comp in range(la.max() + 1 if la.size else 0):
                members = la == comp
                if members.any():
                    assert len(set(lb[members].tolist())) == 1


class TestCriticalLevelReport:
    def test_single_change_brackets_stationary_value(self, cross_linear):
        grid = _grid(cross_linear)
        sweep = sweep_levels(cross_linear, grid, [-1.0, -0.1, 0.1, 1.0])
        pts = find_stationary_points(cross_linear, (-2.0, 2.0))
        report = critical_level_report(sweep, pts)
        assert report.consistent
        assert len(report.changes) == 1
        assert report.changes[0].nearest_value == 0.0

    def test_quadratic_cross_changes(self, cross_quadratic):
        grid = _grid(cross_quadratic)
        sweep = sweep_levels(cross_quadratic, grid, [0.5, 1.5, 2.5])
        pts = find_stationary_points(cross_quadratic, (-2.0, 2.0))
        report = critical_level_report(sweep, pts)
        assert report.consistent
        values = [c.nearest_value for c in report.changes]
        assert values == [1.0, 2.0]
        deltas = [(c.prev_count, c.count) for c in report.changes]
        assert deltas == [(0, 2), (2, 1)]

    def test_no_points_constant_counts(self):
        sweep = LevelSweep((0.0, 1.0), (1, 1), ())
        report = critical_level_report(sweep, [])
        assert report.consistent and report.changes == ()

    def test_unbracketed_change_flags_violation(self):
        sweep = LevelSweep((0.0, 0.1), (1, 2), (0.1,))
        report = critical_level_report(sweep, [])
        assert not report.consistent


class TestCellAttachmentCounts:
    """Passing a nondegenerate minimizer level adds a component; passing an
    index-one saddle level removes at most one."""

    def test_quadratic_cross(self, cross_quadratic):
        grid = _grid(cross_quadratic)
        pts = find_stationary_points(cross_quadratic, (-2.0, 2.0))
        values = sorted({pt.f_value for pt in pts})  # 1 (two minimizers), 2
        eps = 0.25
        below_min = sublevel_components(cross_quadratic, grid, values[0] - eps)
        above_min = sublevel_components(cross_quadratic, grid, values[0] + eps)
        # two minimizers share the level; each adds one component
        assert above_min - below_min == 2
        below_saddle = sublevel_components(cross_quadratic, grid, values[1] - eps)
        above_saddle = sublevel_components(cross_quadratic, grid, values[1] + eps)
        assert below_saddle - above_saddle in (0, 1)

    def test_linear_cross(self, cross_linear):
        grid = _grid(cross_linear)
        below = sublevel_components(cross_linear, grid, -0.5)
        above = sublevel_components(cross_linear, grid, 0.5)
        assert below - above in (0, 1)


class TestMountainPass:
    def test_quadratic_cross(self, cross_quadratic):
        pts = find_stationary_points(cross_quadratic, (-2.0, 2.0))
        cls = [classify_point(cross_quadratic, pt.x, pt.mult, pt.idx) for pt in pts]
        report = mountain_pass_check(cls)
        assert (report.r, report.r_s) == (2, 1)
        assert report.holds
        assert report.ties == ((1.0, 1.0),)  # the two minimizers share f = 1

    def test_linear_cross_vacuous(self, cross_linear):
        pts = find_stationary_points(cross_linear, (-2.0, 2.0))
        cls = [classify_point(cross_linear, pt.x, pt.mult, pt.idx) for pt in pts]
        report = mountain_pass_check(cls)
        assert (report.r, report.r_s) == (0, 1)
        assert report.holds

    def test_single_minimizer(self):
        p = parse_problem("vars: x1 x2\nobjective: x1^2 + x2^2 + x1\n")
        pts = find_stationary_points(p, (-2.0, 2.0))
        cls = [classify_point(p, pt.x, pt.mult, pt.idx) for pt in pts]
        report = mountain_pass_check(cls)
        assert (report.r, report.r_s) == (1, 0)
        assert report.holds

    def test_degenerate_points_rejected(self, instability_both):
        pts = find_stationary_points(instability_both, (-1.0, 1.0))
        cls = [
            classify_point(instability_both, pt.x, pt.mult, pt.idx) for pt in pts
        ]
        with pytest.raises(DegenerateInputError):
            mountain_pass_check(cls)

    def test_hypotheses_echoed(self, cross_linear):
        pts = find_stationary_points(cross_linear, (-2.0, 2.0))
        cls = [classify_point(cross_linear, pt.x, pt.mult, pt.idx) for pt in pts]
        report = mountain_pass_check(cls, compact_assumed=False)
        assert report.compact_assumed is False
        assert report.connected_assumed is True


class TestThreeDimensional:
    def test_cross_times_axis(self):
        # feasible set: the plane cross extended along x3, objective splits
        p = parse_problem(
            "vars: x1 x2 x3\nobjective: x1 + x2 + x3^2\nswitch: x1 | x2\n"
        )
        # coarser grids admit isolated off-set specks near the bi-active
        # axis; at the default 3-D resolution the counts are clean
        grid = GridSpec.for_problem(p, (-1.5, 1.5))
        assert sublevel_components(p, grid, -0.5) == 2
        assert sublevel_components(p, grid, 0.5) == 1

    def test_objective_values_shape(self, cross_linear):
        grid = _grid(cross_linear, res=32)
        vals = objective_values(cross_linear, grid)
        assert vals.shape == (32, 32)


def test_cli_import_does_not_load_ndimage():
    # labelling imports scipy.ndimage on first use, so analyze and relax
    # start without paying for it
    src = os.path.dirname(os.path.dirname(switchstat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, switchstat.cli; "
        "print('scipy.ndimage' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
