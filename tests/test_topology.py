"""Feasibility masks, sublevel component counts and the mountain-pass count."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

import switchstat
from switchstat import topology
from switchstat.classify import classify_point
from switchstat.expr import (
    Add,
    Const,
    Div,
    EvalDomainError,
    Func,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    eval_gradient,
    eval_value,
    parse_problem,
)
from switchstat.stationarity import CombinatorialCapError, find_stationary_points
from switchstat.topology import (
    DegenerateInputError,
    DimensionError,
    GridSpec,
    LevelSweep,
    critical_level_report,
    feasibility_mask,
    mountain_pass_check,
    objective_values,
    sublevel_labels,
    sweep_level_labels,
    sweep_levels,
)
from tests.conftest import (
    CROSS_LINEAR,
    CROSS_QUADRATIC,
    INSTABILITY_BOTH,
    INSTABILITY_ONE,
    STABLE_WITHOUT_ND2,
)
from tests.test_stationarity import LEVELSETS_3D, MID3, _corpus


def _grid(p, lo=-2.0, hi=2.0, res=401):
    return GridSpec.for_problem(p, (lo, hi), res)


def _arrays(p, grid):
    """The feasibility mask and the objective values of ``p`` on ``grid``."""
    return feasibility_mask(p, grid), objective_values(p, grid)


def _count(p, grid, a):
    """Components of the sampled sublevel set of ``p`` at level ``a``."""
    return sublevel_labels(*_arrays(p, grid), a)[1]


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
        for axis in (0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf), (-1e308, 1e308):
            with pytest.raises(ValueError, match="finite width"):
                GridSpec((axis,), 21)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0])
    def test_feas_scale_must_be_finite_and_non_negative(self, scale):
        with pytest.raises(ValueError, match="feas_scale"):
            GridSpec(((0.0, 1.0),), 32, scale)

    def test_dimension_limit(self):
        p4 = parse_problem("vars: a b c d\nobjective: a + b + c + d\n")
        with pytest.raises(DimensionError):
            GridSpec.for_problem(p4, (-1, 1))

    def test_node_cap(self):
        # the cap is 2^24 nodes: 4096^2 and 256^3 reach it and pass, one more
        # point per axis does not; only the spec is built, never an array
        assert GridSpec(((0.0, 1.0),) * 2, 4096).resolution == 4096
        assert GridSpec(((0.0, 1.0),) * 3, 256).resolution == 256
        for n, res in [(1, 2**24 + 1), (2, 4097), (3, 257)]:
            with pytest.raises(CombinatorialCapError, match="grid cap of 16777216"):
                GridSpec(((0.0, 1.0),) * n, res)


class TestFeasibilityMask:
    def test_cross_is_axis_bands(self, cross_linear):
        grid = _grid(cross_linear)
        mask = feasibility_mask(cross_linear, grid)
        X1, X2 = np.meshgrid(*grid.axes(), indexing="ij")
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
        X1, X2 = np.meshgrid(*grid.axes(), indexing="ij")
        # one grid row above the axis the product constraint still passes
        row = np.abs(X2 - grid.spacing) < 1e-12
        assert mask[row].all()


class TestSublevelComponents:
    def test_cross_linear_negative_level(self, cross_linear):
        grid = _grid(cross_linear)
        assert _count(cross_linear, grid, -0.5) == 2

    def test_cross_linear_positive_level(self, cross_linear):
        grid = _grid(cross_linear)
        assert _count(cross_linear, grid, 0.5) == 1

    def test_quadratic_cross_levels(self, cross_quadratic):
        grid = _grid(cross_quadratic)
        assert _count(cross_quadratic, grid, 1.5) == 2
        assert _count(cross_quadratic, grid, 2.5) == 1

    def test_empty_sublevel(self, cross_quadratic):
        grid = _grid(cross_quadratic)
        assert _count(cross_quadratic, grid, 0.5) == 0


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


def _active_labels(active):
    """(flat int64 labels, count) of the True nodes of the whole lattice,
    -1 outside, components numbered in scan order."""
    labels, count = topology._label(active)
    box = (slice(None),) * active.ndim
    return topology._flat_labels(active.shape, box, labels), count


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


def _spiral(n):
    """A one-node-wide square spiral on an n-by-n lattice whose arms lie two
    nodes apart, so that only the path itself joins them."""
    active = np.zeros((n, n), dtype=bool)
    steps = [n - 1] * 3 + [m for k in range(n - 3, 0, -2) for m in (k, k)]
    turns = itertools.cycle([(0, 1), (1, 0), (0, -1), (-1, 0)])
    r = c = 0
    for (dr, dc), m in zip(turns, steps):
        for _ in range(m):
            active[r, c] = True
            r, c = r + dr, c + dc
    active[r, c] = True
    return active


def _serpentine(rows, width):
    """Full even rows, joined by one node alternately at the right and at
    the left end: one path through every row."""
    active = np.zeros((rows, width), dtype=bool)
    active[::2] = True
    active[1::4, -1] = True
    active[3::4, 0] = True
    return active


class TestLabelAgainstNdimage:
    """The run-based labeller against ``scipy.ndimage.label`` under full
    diagonal adjacency: labels equal bit for bit, counts equal, and the
    counts-only call gives the painted call's count."""

    @staticmethod
    def _check(active):
        from scipy import ndimage

        structure = np.ones((3,) * active.ndim, dtype=bool)
        ref, ref_count = ndimage.label(active, structure=structure)
        labels, count = topology._label(active)
        assert type(count) is int
        assert count == ref_count
        assert labels.dtype == ref.dtype
        np.testing.assert_array_equal(labels, ref)
        assert topology._label(active, False) == (None, count)
        # a counts-only sweep may label along any axis
        for k in range(active.ndim):
            assert topology._label(np.moveaxis(active, k, -1), False)[1] == count
        return count

    def test_random_masks(self):
        rng = np.random.default_rng(20261021)
        for _ in range(3000):
            shape = tuple(rng.integers(1, 13, size=rng.integers(1, 4)))
            self._check(rng.random(shape) < rng.uniform(0.0, 1.0))

    @pytest.mark.parametrize(
        "shape",
        [(1,), (1, 1), (1, 1, 1), (9,), (1, 9), (9, 1), (9, 1, 1), (1, 9, 1),
         (1, 1, 9), (4, 5), (3, 4, 5)],
    )
    def test_edge_shapes(self, shape):
        assert self._check(np.zeros(shape, dtype=bool)) == 0
        assert self._check(np.ones(shape, dtype=bool)) == 1
        single = np.zeros(shape, dtype=bool)
        single[tuple(n // 2 for n in shape)] = True
        assert self._check(single) == 1

    @pytest.mark.parametrize("n", [5, 6, 31, 64])
    def test_spiral_and_serpentine(self, n):
        for active in (_spiral(n), _serpentine(n, n + 3)):
            assert self._check(active) == 1
            assert self._check(np.ascontiguousarray(active.T)) == 1
            self._check(~active)
            assert self._check(active[None].repeat(3, axis=0)) == 1

    def test_runs_do_not_wrap_into_other_lines(self):
        # the last column of one row and column 0 of the next
        rows = np.zeros((4, 6), dtype=bool)
        rows[1, -1] = rows[2, 0] = True
        assert self._check(rows) == 2
        # in 3-D, line (i, N1 - 1) against line (i + 1, 0) and (i + 2, 0),
        # and line (i, 0) against line (i, N1 - 1), at overlapping columns
        for a, b in [((1, -1), (2, 0)), ((0, -1), (2, 0)), ((1, 0), (1, -1))]:
            lines = np.zeros((4, 5, 6), dtype=bool)
            lines[a][2:4] = lines[b][1:5] = True
            assert self._check(lines) == 2
        # the last node of one line and the first of the next, in 3-D
        ends = np.zeros((3, 4, 6), dtype=bool)
        ends[1, 1, -1] = ends[1, 2, 0] = True
        assert self._check(ends) == 2

    def test_every_level_of_levelsets_3d_and_a_corpus_slice(self):
        from scipy import ndimage

        from switchstat.cli import _auto_levels
        from switchstat.stationarity import DEFAULT_CONFIG, search_stationary_points

        problems = [(LEVELSETS_3D, DEFAULT_CONFIG.grid_points)] + _corpus()[::5]
        for text, grid_points in problems:
            p = parse_problem(text)
            cfg = dataclasses.replace(DEFAULT_CONFIG, grid_points=grid_points)
            points = search_stationary_points(p, (-2.0, 2.0), cfg).points
            mask, fvals = _arrays(p, GridSpec.for_problem(p, (-2.0, 2.0)))
            levels = _auto_levels(fvals, points, 8)
            sets = list(topology._sublevel_sets(mask, fvals, levels, np.asarray))
            counts = [c for _, c in topology._sublevel_sets(mask, fvals, levels, None)]
            assert counts == [count for _, count in sets]
            ok = mask & np.isfinite(fvals)
            structure = np.ones((3,) * p.n, dtype=bool)
            for a, (labels, count) in zip(levels, sets):
                with np.errstate(invalid="ignore"):
                    ref, ref_count = ndimage.label(ok & (fvals <= a), structure)
                assert count == ref_count
                np.testing.assert_array_equal(labels, ref.ravel() - 1)


class TestRunAxis:
    """The axis a counts-only sweep labels along."""

    def test_fewest_runs_axis(self):
        planes = np.zeros((20, 20, 20), dtype=bool)
        # two planes crossing along axis 1, like levelsets-3d's two
        # thickened switch planes: lines along axis 1 lie in a plane or miss
        # both, the other lines cross one plane at a node
        planes[4] = planes[:, :, 4] = True
        assert topology._fewest_runs_axis(planes) == 1
        assert topology._fewest_runs_axis(np.moveaxis(planes, 1, 0)) == 0
        # no clear cut keeps the last axis: one run on every line of every
        # axis, or a noise-like mask with about as many runs on each axis
        assert topology._fewest_runs_axis(np.ones((20, 20, 20), dtype=bool)) == 2
        noise = np.random.default_rng(30).random((20, 20, 20)) < 0.5
        assert topology._fewest_runs_axis(noise) == 2
        assert topology._fewest_runs_axis(np.zeros((5, 6), dtype=bool)) == 1
        assert topology._fewest_runs_axis(np.ones(7, dtype=bool)) == 0

    def test_counts_only_sweep_labels_along_axis_1_on_levelsets_3d(
        self, monkeypatch
    ):
        # on levelsets-3d the feasible nodes have 10 201 runs along axes 0
        # and 2 but 955 along axis 1, so the counts-only sweep moves axis 1
        # last; corpus p000, whose sets have 10 201 runs along every axis,
        # keeps the last axis
        from switchstat.cli import _auto_levels
        from switchstat.stationarity import search_stationary_points

        p = parse_problem(LEVELSETS_3D)
        mask, fvals = _arrays(p, GridSpec.for_problem(p, (-2.0, 2.0)))
        points = search_stationary_points(p, (-2.0, 2.0)).points
        levels = _auto_levels(fvals, points, 8)
        assert topology._fewest_runs_axis(mask & np.isfinite(fvals)) == 1
        label, seen = topology._label, []

        def spy(active, paint=True):
            seen.append(active)
            return label(active, paint)

        monkeypatch.setattr(topology, "_label", spy)
        counts = sweep_levels(mask, fvals, levels).counts
        moved = seen.copy()
        seen.clear()
        sweep, _ = sweep_level_labels(mask, fvals, levels)
        assert sweep.counts == counts == (0, 3, 4, 4, 4, 4, 4) + (1,) * 10
        assert len(moved) == len(seen) > 1
        for a, b in zip(moved, seen):
            assert b.flags.c_contiguous and not a.flags.c_contiguous
            # the same set, with axis 1 moved last
            np.testing.assert_array_equal(a, np.moveaxis(b, 1, -1))


class TestSweep:
    def test_quadratic_cross_sweep(self, cross_quadratic):
        arrays = _arrays(cross_quadratic, _grid(cross_quadratic))
        sweep = sweep_levels(*arrays, [0.5, 1.5, 2.5])
        assert sweep.counts == (0, 2, 1)
        assert sweep.change_levels == (1.5, 2.5)

    def test_linear_cross_sweep(self, cross_linear):
        arrays = _arrays(cross_linear, _grid(cross_linear))
        sweep = sweep_levels(*arrays, [-1.0, 1.0])
        assert sweep.counts == (2, 1)
        assert sweep.change_levels == (1.0,)

    def test_empty_levels(self, cross_linear):
        arrays = _arrays(cross_linear, _grid(cross_linear))
        sweep = sweep_levels(*arrays, [])
        assert sweep == LevelSweep((), (), ())

    def test_unsorted_levels_rejected(self, cross_linear):
        arrays = _arrays(cross_linear, _grid(cross_linear))
        with pytest.raises(ValueError):
            sweep_levels(*arrays, [1.0, -1.0])

    def test_shared_mask_and_values(self, cross_quadratic):
        grid = _grid(cross_quadratic, res=201)
        levels = [0.5, 1.5, 2.5]
        mask, fvals = _arrays(cross_quadratic, grid)
        sweep = sweep_levels(mask, fvals, levels)
        assert sweep.counts == tuple(
            sublevel_labels(mask, fvals, a)[1] for a in levels
        )

    def test_resolution_doubling_stable(self, cross_quadratic, cross_linear):
        for p, levels in (
            (cross_quadratic, [0.5, 1.5, 2.5]),
            (cross_linear, [-1.0, 1.0]),
        ):
            c1 = sweep_levels(*_arrays(p, _grid(p, res=401)), levels).counts
            c2 = sweep_levels(*_arrays(p, _grid(p, res=801)), levels).counts
            assert c1 == c2


class TestCroppedSweep:
    """The sweep labels each set inside its bounding box and skips a set
    that repeats the previous level's; its counts and label arrays must be
    those of labelling the whole lattice."""

    SHAPES = [(300,), (37, 29), (13, 11, 17)]

    def _arrays(self, shape, rng):
        # a few wells of a smooth field, so low levels crop to small boxes
        axes = [np.linspace(0.0, 1.0, n) for n in shape]
        coords = np.meshgrid(*axes, indexing="ij")
        fvals = sum(np.cos(rng.uniform(4, 9) * x + rng.uniform(0, 6)) for x in coords)
        fvals += 0.2 * rng.random(shape)
        for bad in (np.nan, np.inf, -np.inf):
            fvals[rng.random(shape) < 0.03] = bad
        mask = rng.random(shape) < 0.8
        for axis, n in enumerate(shape):
            for i in (0, 1, n // 2, n - 1):  # all-False slabs, edges and inside
                mask[(slice(None),) * axis + (i,)] = False
        return mask, fvals

    def _levels(self, mask, fvals):
        finite = fvals[mask & np.isfinite(fvals)]
        lo, hi = finite.min(), finite.max()
        q = [float(v) for v in np.quantile(finite, [0.01, 0.05, 0.2, 0.5])]
        return sorted([-np.inf, lo - 1.0, lo, *q, q[1], q[1], hi, hi + 1.0, np.inf])

    def test_counts_and_labels_match_the_whole_lattice(self):
        rng = np.random.default_rng(20261019)
        cropped = repeated = 0
        for shape in self.SHAPES:
            for _ in range(4):
                mask, fvals = self._arrays(shape, rng)
                levels = self._levels(mask, fvals)
                with np.errstate(invalid="ignore"):
                    ok = mask & np.isfinite(fvals)
                    actives = [ok & (fvals <= a) for a in levels]
                refs = [_active_labels(active) for active in actives]
                sweep, labels = sweep_level_labels(mask, fvals, levels)
                assert sweep == sweep_levels(mask, fvals, levels)
                assert sweep.counts == tuple(count for _, count in refs)
                for a, lb, (ref, count) in zip(levels, labels, refs):
                    assert lb == ref.tolist()
                    one = sublevel_labels(mask, fvals, a)
                    assert one[0].dtype == np.int64
                    np.testing.assert_array_equal(one[0], ref)
                    assert one[1] == count
                cropped += sum(map(self._in_smaller_box, actives))
                repeated += sum(
                    x.sum() == y.sum() > 0 for x, y in zip(actives, actives[1:])
                )
        # the data exercise both the cropping and the reuse
        assert cropped and repeated
        assert sweep_level_labels(mask, fvals, []) == (LevelSweep((), (), ()), [])

    @staticmethod
    def _in_smaller_box(active):
        """Whether ``active`` is not empty and its bounding box is smaller
        than the lattice."""
        nodes = np.argwhere(active)
        extent = nodes.max(axis=0) - nodes.min(axis=0) + 1 if len(nodes) else None
        return extent is not None and (extent < active.shape).any()

    def test_repeated_set_shares_the_previous_array(self, cross_quadratic):
        arrays = _arrays(cross_quadratic, _grid(cross_quadratic))
        sweep, labels = sweep_level_labels(*arrays, [1.5, 1.5, 2.5])
        assert sweep.counts == (2, 2, 1)
        assert labels[1] is labels[0]
        assert labels[2] is not labels[1]


class TestMonotoneContainment:
    def test_components_map_into_coarser_ones(self, cross_quadratic):
        grid = _grid(cross_quadratic, res=201)
        levels = [1.2, 1.8, 2.4, 3.0]
        mask, fvals = _arrays(cross_quadratic, grid)
        labelled = [
            sublevel_labels(mask, fvals, a)[0] for a in levels
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
        sweep = sweep_levels(*_arrays(cross_linear, grid), [-1.0, -0.1, 0.1, 1.0])
        pts = find_stationary_points(cross_linear, (-2.0, 2.0))
        report = critical_level_report(sweep, pts)
        assert report.consistent
        assert len(report.changes) == 1
        assert report.changes[0].nearest_value == 0.0

    def test_quadratic_cross_changes(self, cross_quadratic):
        grid = _grid(cross_quadratic)
        sweep = sweep_levels(*_arrays(cross_quadratic, grid), [0.5, 1.5, 2.5])
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
        below_min = _count(cross_quadratic, grid, values[0] - eps)
        above_min = _count(cross_quadratic, grid, values[0] + eps)
        # two minimizers share the level; each adds one component
        assert above_min - below_min == 2
        below_saddle = _count(cross_quadratic, grid, values[1] - eps)
        above_saddle = _count(cross_quadratic, grid, values[1] + eps)
        assert below_saddle - above_saddle in (0, 1)

    def test_linear_cross(self, cross_linear):
        grid = _grid(cross_linear)
        below = _count(cross_linear, grid, -0.5)
        above = _count(cross_linear, grid, 0.5)
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

    def test_ties_chain_within_the_tolerance(self):
        def point(f):
            nd = SimpleNamespace(nondegenerate=True)
            return SimpleNamespace(x=None, f_value=f, nd=nd, w=SimpleNamespace(w=0))

        values = [2.0, 5.0, 1.0 + 9e-10, 0.0, 1.0, 3.0, 5.0, 1.0 + 5e-10, 3.0 + 2e-9]
        report = mountain_pass_check([point(f) for f in values])
        assert report.ties == ((1.0, 1.0 + 5e-10, 1.0 + 9e-10), (5.0, 5.0))
        assert (report.r, report.r_s) == (9, 0)
        assert mountain_pass_check([]).ties == ()

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
        assert _count(p, grid, -0.5) == 2
        assert _count(p, grid, 0.5) == 1

    def test_objective_values_shape(self, cross_linear):
        grid = _grid(cross_linear, res=32)
        vals = objective_values(cross_linear, grid)
        assert vals.shape == (32, 32)


def test_cli_commands_load_no_scipy(tmp_path):
    # every command runs on numpy alone: neither the CLI's import nor
    # analyze, relax or levelsets loads any scipy module
    src = os.path.dirname(os.path.dirname(switchstat.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    problem = tmp_path / "cross_quadratic.txt"
    problem.write_text(CROSS_QUADRATIC)
    code = (
        "import json, sys\n"
        "import switchstat.cli as cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = {'import': scipy_modules()}\n"
        "for cmd, extra in (('analyze', []), ('relax', []),"
        " ('levelsets', ['--auto', '3', '--emit-labels'])):\n"
        "    code = cli.main([cmd, sys.argv[1], *extra, '--json', sys.argv[2]])\n"
        "    seen[cmd] = (code, scipy_modules())\n"
        "print(json.dumps(seen))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(problem), str(tmp_path / "report.json")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["analyze"] == [0, []]
    assert seen["relax"] == [0, []]
    assert seen["levelsets"] == [0, []]


# Every node type in the objective and again across the constraints, with
# log of negative values and exact divisions by zero on the grid nodes
# (x1 = 0 and x1 = x2 are nodes of a 41-point axis over [-2, 2]).
MESH_1D = """\
vars: x1
objective: log(x1 + 1) + 1/x1 - exp(x1)*sin(x1) + cos(-x1) + x1^(-2) + (x1 - 3)^0
eq: sin(x1 - 0.3)/(x1 - 0.3)^0
ineq: log(x1 + 1.5) + cos(-x1)*x1^(-2) - exp(x1)/x1 + 5
switch: x1 - 0.3 | 2 - x1
"""

MESH_2D = """\
vars: x1 x2
objective: log(x1*x2) + x2/x1 - 2*exp(x2)*sin(x1) + cos(-x2) + (x1 - x2)^(-2) + (x1 + x2)^0
eq: sin(x1 - x2)/(x1 + 3)^0
ineq: log(x1 + 1.5) + cos(-x2)*x1^(-2) - exp(x2)/x1 + 5
switch: x1 - 0.3 | x2 + 0.5
"""

MESH_3D = """\
vars: x1 x2 x3
objective: log(x1*x3) + x2/x1 - 2*exp(x3)*sin(x2) + cos(-x3) + (x1 - x2)^(-2) + (x2 + x3)^0
eq: sin(x1 - x3)/(x2 + 3)^0
ineq: log(x2 + 1.5) + cos(-x3)*x1^(-2) - exp(x2)/x1 + 5
switch: x1 - 0.3 | x2 + 0.5*x3
"""

MESH_TEXTS = pytest.mark.parametrize(
    "text", [MESH_1D, MESH_2D, MESH_3D], ids=["1d", "2d", "3d"]
)

ALL_KINDS = {
    "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow^0", "Pow^-2", "Neg",
    "sin", "cos", "exp", "log",
}


def _node_kinds(e):
    if isinstance(e, Const):
        return {"Const"}
    if isinstance(e, Var):
        return {"Var"}
    if isinstance(e, Pow):
        return {f"Pow^{e.exponent}"} | _node_kinds(e.base)
    if isinstance(e, Neg):
        return {"Neg"} | _node_kinds(e.a)
    if isinstance(e, Func):
        return {e.name} | _node_kinds(e.arg)
    return {type(e).__name__} | _node_kinds(e.a) | _node_kinds(e.b)


def _mesh_exprs(p):
    """Every expression the mask and the objective walk."""
    members = [f for pair in p.switches for f in pair]
    products = [Mul(f1, f2) for f1, f2 in p.switches]
    return [p.objective, *p.equalities, *p.inequalities, *members, *products]


def _open_mesh(grid):
    return np.meshgrid(*grid.axes(), indexing="ij", sparse=True)


def _mesh_walk(e, mesh, grad):
    """(value, gradient list or None) of ``e``'s own walk (``val``, or
    ``_derivatives`` when ``grad``) on the mesh carriers, as arrays and
    floats that broadcast to the mesh."""
    tree, x = topology._mesh_tree(e), [topology._Mesh(a) for a in mesh]
    if not grad:
        return tree.val(x).a, None
    v, g, _ = tree._derivatives(x, 1)
    return v.a, [getattr(gi, "a", gi) for gi in g]


def _dense(a, grid):
    """An array or float of a mesh walk broadcast to the grid's shape."""
    return np.broadcast_to(a, (grid.resolution,) * grid.n)


class TestMeshSlabs:
    """The mask and the objective do not depend on how the first axis is cut
    into slabs."""

    @MESH_TEXTS
    def test_fixtures_cover_every_node_and_nonfinite_values(self, text):
        p = parse_problem(text)
        assert _node_kinds(p.objective) == ALL_KINDS
        cons = [*p.equalities, *p.inequalities, *p.switches[0]]
        assert set().union(*map(_node_kinds, cons)) == ALL_KINDS
        grid = _grid(p, res=41)
        with np.errstate(all="ignore"):
            v, g = _mesh_walk(p.inequalities[0], _open_mesh(grid), True)
        assert np.isnan(v).any()
        assert not all(np.isfinite(gi).all() for gi in g)
        fvals = objective_values(p, grid)
        assert np.isnan(fvals).any() and np.isinf(fvals).any()
        mask = feasibility_mask(p, grid)
        assert mask.any() and not mask.all()

    @MESH_TEXTS
    def test_slab_size_does_not_change_a_bit(self, text, monkeypatch):
        p = parse_problem(text)
        grid = _grid(p, res=41)
        row = 41 ** (p.n - 1)
        results = []
        # one row per slab, 3 rows (41 is not a multiple), the whole grid
        for nodes in (1, 3 * row, 41 * row):
            monkeypatch.setattr(topology, "_SLAB_NODES", nodes)
            mask = feasibility_mask(p, grid)
            fvals = objective_values(p, grid)
            assert mask.dtype == bool and fvals.dtype == np.float64
            assert mask.shape == fvals.shape == (41,) * p.n
            results.append((mask.tobytes(), fvals.tobytes()))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize(
        "text",
        [
            "vars: x1 x2 x3\nobjective: x1\nineq: x1 + 1\n",
            "vars: x1 x2 x3\nobjective: x3^2\neq: x2\n",
            "vars: x1 x2 x3\nobjective: 3\nineq: 2\n",
            "vars: x1 x2\nobjective: 3\n",
        ],
        ids=["x1", "x3-only", "constants", "constant-2d"],
    )
    def test_arrays_of_partial_trees_are_whole(self, text, monkeypatch):
        # trees reading one axis or none walk at a broadcast shape; the
        # caller still gets full-shape arrays of its own
        p = parse_problem(text)
        grid = _grid(p, res=41)
        row = 41 ** (p.n - 1)
        for nodes in (1, 3 * row, 41 * row):
            monkeypatch.setattr(topology, "_SLAB_NODES", nodes)
            for a in _arrays(p, grid):
                assert type(a) is np.ndarray and a.shape == (41,) * p.n
                assert a.flags.c_contiguous and a.flags.writeable
                assert a.flags.owndata and a.base is None
        mask, fvals = _arrays(p, grid)
        axis = grid.axes()[0]
        if p.objective == Var(0):
            assert (fvals == axis.reshape(-1, 1, 1)).all()
        if p.inequalities == (Const(2.0),):
            assert mask.all() and (fvals == 3.0).all()


class TestMeshWalk:
    """The trees' own walks on mesh carriers against the scalar evaluator.
    numpy's exp, log and power round differently from libm, so values agree
    to rounding, not bitwise."""

    @MESH_TEXTS
    def test_matches_scalar_value_and_gradient(self, text):
        p = parse_problem(text)
        grid = _grid(p, res=41)
        mesh = _open_mesh(grid)
        rng = np.random.default_rng(3)
        nodes = rng.integers(0, 41, size=(300, p.n))
        axes = grid.axes()
        checked = 0
        for e in _mesh_exprs(p):
            with np.errstate(all="ignore"):
                v, g = _mesh_walk(e, mesh, True)
            v, g = _dense(v, grid), [_dense(gi, grid) for gi in g]
            for node in map(tuple, nodes):
                x = [axis[i] for axis, i in zip(axes, node)]
                try:
                    ref_v = eval_value(e, x)
                    ref_g = eval_gradient(e, x)
                except EvalDomainError:
                    continue
                np.testing.assert_allclose(v[node], ref_v, rtol=1e-12, atol=0)
                got_g = [gi[node] for gi in g]
                np.testing.assert_allclose(got_g, ref_g, rtol=1e-12, atol=0)
                checked += 1
        assert checked > 300

    @MESH_TEXTS
    def test_value_only_walk_keeps_the_value_bits(self, text):
        p = parse_problem(text)
        grid = _grid(p, res=41)
        mesh = _open_mesh(grid)
        with np.errstate(all="ignore"):
            for e in _mesh_exprs(p):
                v, g = _mesh_walk(e, mesh, False)
                vg, gg = _mesh_walk(e, mesh, True)
                assert g is None and len(gg) == p.n
                assert np.shape(v) == np.shape(vg)
                assert _dense(v, grid).tobytes() == _dense(vg, grid).tobytes()


# name -> (numpy function, derivative from the argument u and value w)
REFERENCE_FUNCTIONS = {
    "sin": (np.sin, lambda u, w: np.cos(u)),
    "cos": (np.cos, lambda u, w: -np.sin(u)),
    "exp": (np.exp, lambda u, w: w),
    "log": (np.log, lambda u, w: 1.0 / u),
}


def _reference_eval(e, mesh, grad):
    """(value array, list of partial-derivative arrays or None) over a dense
    mesh: the mesh walker the open-mesh walks replaced, kept as the bitwise
    reference; the caller sets the numpy error state."""
    n, shape = len(mesh), mesh[0].shape
    if isinstance(e, Const):
        return np.full(shape, e.value), [np.zeros(shape)] * n if grad else None
    if isinstance(e, Var):
        if not grad:
            return mesh[e.index], None
        g = [np.zeros(shape) for _ in range(n)]
        g[e.index] = np.ones(shape)
        return mesh[e.index], g
    if isinstance(e, Pow):
        u, gu = _reference_eval(e.base, mesh, grad)
        m = e.exponent
        v = u ** float(m)
        if not grad:
            return v, None
        if m == 0:
            return v, [np.zeros(shape)] * n
        a = m * u ** float(m - 1)
        return v, [a * gi for gi in gu]
    if isinstance(e, Neg):
        v, g = _reference_eval(e.a, mesh, grad)
        return -v, [-gi for gi in g] if grad else None
    if isinstance(e, Func):
        u, gu = _reference_eval(e.arg, mesh, grad)
        if e.name == "log":
            u = np.where(u > 0, u, np.nan)
        f, df = REFERENCE_FUNCTIONS[e.name]
        w = f(u)
        if not grad:
            return w, None
        d = df(u, w)
        return w, [d * gi for gi in gu]
    va, ga = _reference_eval(e.a, mesh, grad)
    vb, gb = _reference_eval(e.b, mesh, grad)
    if isinstance(e, Add):
        v, rule = va + vb, lambda x, y: x + y
    elif isinstance(e, Sub):
        v, rule = va - vb, lambda x, y: x - y
    elif isinstance(e, Mul):
        v, rule = va * vb, lambda x, y: va * y + vb * x
    else:
        v, rule = va / vb, lambda x, y: (x - v * y) / vb
    return v, [rule(x, y) for x, y in zip(ga, gb)] if grad else None


def _reference_arrays(p, grid):
    """The mask and the objective values from :func:`_reference_eval`, on
    dense meshes of slabs of whole rows of the first axis."""
    axes = grid.axes()
    shape = (grid.resolution,) * p.n
    mask, fvals = np.empty(shape, dtype=bool), np.empty(shape)
    scale = grid.feas_scale * grid.spacing
    checks = (
        [(h, True) for h in p.equalities]
        + [(g, False) for g in p.inequalities]
        + [(Mul(f1, f2), True) for f1, f2 in p.switches]
    )
    rows = max(1, (1 << 16) // grid.resolution ** (p.n - 1))
    with np.errstate(all="ignore"):
        for lo in range(0, grid.resolution, rows):
            mesh = np.meshgrid(axes[0][lo : lo + rows], *axes[1:], indexing="ij")
            fvals[lo : lo + rows] = _reference_eval(p.objective, mesh, False)[0]
            ok = np.ones(mesh[0].shape, dtype=bool)
            for e, two_sided in checks:
                v, g = _reference_eval(e, mesh, True)
                tol = scale * (1.0 + np.sqrt(sum(gi * gi for gi in g)))
                near = np.abs(v) <= tol if two_sided else v >= -tol
                ok &= np.isfinite(v) & near
            mask[lo : lo + rows] = ok
    return mask, fvals


# Var-free subtrees whose math-module walk raises (log(0-1), log(0),
# exp(800)) or could round apart from numpy's (sin(2), 2^-3), constant
# objectives and constraints, and one variable
EDGE_PROBLEMS = {
    "var-free-2d": """\
vars: x1 x2
objective: sin(2)*x1 + 2^-3*x2 + exp(3)
ineq: exp(800)*x1 + 1
switch: x1 | exp(3)
""",
    "var-free-nan-3d": """\
vars: x1 x2 x3
objective: log(0-1)*0 + x3
eq: 0*log(0) + x1*x2
ineq: cos(2)*x2 - 2^-3*x3 + sin(2)
""",
    "constants": """\
vars: x1 x2 x3
objective: 3
ineq: 2
""",
    "one-variable": """\
vars: x1
objective: sin(2)*x1 + log(x1) + x1^(-3)
eq: exp(x1) - exp(1)*x1^0
switch: x1 | 2^-3
""",
}

EXAMPLES = [CROSS_LINEAR, CROSS_QUADRATIC, INSTABILITY_BOTH, INSTABILITY_ONE,
            STABLE_WITHOUT_ND2]

BITWISE_AT_41 = {
    **{f"example{i}": text for i, text in enumerate(EXAMPLES)},
    "mid3": MID3,
    **{f"corpus-p{i:03d}": t for i, (t, _) in enumerate(_corpus()) if i % 5 == 0},
    "mesh1d": MESH_1D,
    "mesh2d": MESH_2D,
    "mesh3d": MESH_3D,
    **EDGE_PROBLEMS,
}


class TestOpenMeshBits:
    """The mask and the objective values from the trees' own walks on open
    meshes are byte-equal to the dense reference walker's on this machine.
    (No digest is pinned: numpy's transcendental functions round
    differently across CPU builds.)"""

    @pytest.mark.parametrize("text", BITWISE_AT_41.values(), ids=list(BITWISE_AT_41))
    @pytest.mark.parametrize("box", [(-2.0, 2.0), (-1.0, 2.0)], ids=["box2", "box1"])
    def test_byte_equal_to_the_reference_at_41(self, text, box):
        p = parse_problem(text)
        grid = _grid(p, *box, res=41)
        mask, fvals = _reference_arrays(p, grid)
        assert feasibility_mask(p, grid).tobytes() == mask.tobytes()
        assert objective_values(p, grid).tobytes() == fvals.tobytes()

    def test_byte_equal_to_the_reference_on_levelsets_3d(self):
        p = parse_problem(LEVELSETS_3D)
        grid = GridSpec.for_problem(p, (-2.0, 2.0))
        assert grid.resolution == 101
        mask, fvals = _reference_arrays(p, grid)
        assert feasibility_mask(p, grid).tobytes() == mask.tobytes()
        assert objective_values(p, grid).tobytes() == fvals.tobytes()


class TestGridDimension:
    """The grid must have one axis per variable of the problem."""

    def test_grid_with_more_axes_than_variables(self, cross_linear):
        grid = GridSpec(((-2.0, 2.0),) * 3, 16)
        for probe in (objective_values, feasibility_mask):
            with pytest.raises(ValueError, match="grid has 3 axes but the problem"):
                probe(cross_linear, grid)

    def test_grid_with_fewer_axes_than_variables(self, cross_linear):
        grid = GridSpec(((-2.0, 2.0),), 16)
        for probe in (objective_values, feasibility_mask):
            with pytest.raises(ValueError, match="grid has 1 axes but the problem"):
                probe(cross_linear, grid)


# perfbench's levelsets-3d problem, walked at its default 101^3 grid
LEVELSETS_3D = """\
vars: x1 x2 x3
objective: (x1^2-1)^2 + (x2^2-1)^2 + (x3-0.5)^2 + 0.2*x1*x2
switch: x1 - 0.5 | x3
"""


def test_feasibility_mask_memory_at_101_cubed():
    p = parse_problem(LEVELSETS_3D)
    grid = GridSpec.for_problem(p, (-2.0, 2.0))
    assert grid.resolution == 101
    tracemalloc.start()
    try:
        mask = feasibility_mask(p, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.shape == (101,) * 3 and mask.any()
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_objective_values_memory_at_101_cubed():
    p = parse_problem(LEVELSETS_3D)
    grid = GridSpec.for_problem(p, (-2.0, 2.0))
    assert grid.resolution == 101
    tracemalloc.start()
    try:
        fvals = objective_values(p, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fvals.shape == (101,) * 3 and np.isfinite(fvals).all()
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
