"""Feasibility masks, sublevel component counts and the mountain-pass count."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from collections import deque

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
from switchstat.stationarity import find_stationary_points
from switchstat.topology import (
    DegenerateInputError,
    DimensionError,
    GridSpec,
    LevelSweep,
    _active_labels,
    _mesh_eval,
    critical_level_report,
    feasibility_mask,
    mountain_pass_check,
    objective_values,
    sublevel_components,
    sublevel_labels,
    sweep_levels,
)
from tests.conftest import CROSS_QUADRATIC


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


def test_cli_import_does_not_load_ndimage(tmp_path):
    # only labelling needs scipy (ndimage, imported on first use), so the
    # CLI's import, analyze and relax load no scipy module at all
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
        " ('levelsets', ['--auto', '3'])):\n"
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
    assert seen["levelsets"][0] == 0
    assert "scipy.ndimage" in seen["levelsets"][1]


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


def _full_mesh(grid):
    return np.meshgrid(*grid.axes(), indexing="ij")


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
            v, g = _mesh_eval(p.inequalities[0], _full_mesh(grid), True)
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


class TestMeshEval:
    """The mesh walker against the scalar evaluator.  numpy's exp, log and
    power round differently from libm, so values agree to rounding, not
    bitwise."""

    @MESH_TEXTS
    def test_matches_scalar_value_and_gradient(self, text):
        p = parse_problem(text)
        grid = _grid(p, res=41)
        mesh = _full_mesh(grid)
        rng = np.random.default_rng(3)
        nodes = rng.integers(0, 41, size=(300, p.n))
        checked = 0
        for e in _mesh_exprs(p):
            with np.errstate(all="ignore"):
                v, g = _mesh_eval(e, mesh, True)
            for node in map(tuple, nodes):
                x = [m[node] for m in mesh]
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
        mesh = _full_mesh(_grid(p, res=41))
        with np.errstate(all="ignore"):
            for e in _mesh_exprs(p):
                v, g = _mesh_eval(e, mesh, False)
                vg, gg = _mesh_eval(e, mesh, True)
                assert g is None and len(gg) == p.n
                assert v.tobytes() == vg.tobytes()


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
