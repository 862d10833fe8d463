"""Index sets, LICQ, multiplier recovery and the branch-Newton search."""

import numpy as np
import pytest

from switchstat import stationarity
from switchstat.classify import tangent_basis
from switchstat.expr import Add, Const, Mul, Problem, parse_problem
from switchstat.stationarity import (
    _active_slots,
    _batch_jacobian,
    _batch_residual,
    _branch_jacobian,
    _branch_residual,
    _gradient_rows,
    _grid_starts,
    _multipliers_from_slots,
    _pattern_slots,
    _slot_values,
    BranchPattern,
    CombinatorialCapError,
    InfeasiblePointError,
    LicqViolationError,
    Multipliers,
    NotStationaryError,
    SolveConfig,
    active_sets,
    check_licq,
    enumerate_branches,
    feasibility_violation,
    find_stationary_points,
    licq_matrix,
    newton_solve_batch,
    newton_solve_branch,
    recover_multipliers,
    search_stationary_points,
    stationarity_residual,
    with_overrides,
)

CFG = SolveConfig()

MID3 = """\
vars: x1 x2 x3
objective: (x1-1)^2 + (x2-1)^2 + (x3+0.5)^2 + 0.3*x1*x2*x3 + sin(x1)
ineq: 2 - x1 - x2 - x3
ineq: x3 + 1
switch: x1 | x2
switch: x2 - 0.5 | x3
"""

# division, log, exp, cos and a negative power; Newton trials leave the
# domains of log and of the power from some starts
TRANSCENDENTAL = """\
vars: x1 x2
objective: exp(x1/2) - log(x2 + 2.5) + cos(x1*x2) + (x1 + 2.5)^(-2)
ineq: x2 + 1
switch: x1 - 0.2 | x2
"""

LEVELSETS_3D = """\
vars: x1 x2 x3
objective: (x1^2-1)^2 + (x2^2-1)^2 + (x3-0.5)^2 + 0.2*x1*x2
switch: x1 - 0.5 | x3
"""

# problem 24 of the criterion-7 corpus (seed 20260808): 36 patterns, which it
# solves from 8 starts each (grid_points=2)
CORPUS_P024 = """\
vars: x1 x2 x3
objective: -0.582*x1 + 0.868*x2 + -1.412*x3 + 0.58*x1^2 + -1.406*x2^2 + 1.079*x3^2 + -1.998*x1*x3^2 + 1.164*x3 + 0.896
ineq: -1.497*x1 + 0.454*x2 + -1.18*x3 + -0.283
ineq: -0.341*x1 + -1.304*x2 + 1.249*x3 + 0.567
switch: -0.906*x1 + 0.709*x2 + -0.505*x3 + -0.33 | 0.243*x1 + 1.166*x2 + 1.308*x3 + 0.486
switch: -0.972*x1 + 0.932*x2 + -0.624*x3 + -0.601 | -0.217*x1 + 0.183*x2 + -0.708*x3 + 0.979
"""

# every kind of slot (an equality, two inequalities, two switching pairs) in a
# search with few starts per pattern
NARROW = """\
vars: x1 x2 x3
objective: x1^2 + 2*x2^2 + (x3 - 1)^2 + x1*x3 - x2
eq: x1 + x2 + x3 - 1
ineq: x1 + 1
ineq: log(x1 + 2.5) - x2*x3
switch: x1 | x2 - 0.5
switch: x3 | x1 + x2
"""


class TestSolveConfig:
    @pytest.mark.parametrize(
        "name, value",
        [("max_iter", -1), ("max_halvings", -1), ("polish_steps", -1),
         ("grid_points", 0), ("grid_points", -3)],
    )
    def test_rejects_out_of_range_budgets(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolveConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            with_overrides(CFG, **{name: value})

    @pytest.mark.parametrize(
        "name", ["max_iter", "max_halvings", "polish_steps"]
    )
    def test_zero_budgets_keep_batch_and_single_start_equal(
        self, cross_quadratic, name
    ):
        cfg = SolveConfig(**{name: 0})
        starts = _grid_starts(2, (-2.0, 2.0), cfg)
        for pattern in enumerate_branches(cross_quadratic, cfg):
            outs = newton_solve_batch(cross_quadratic, pattern, starts, cfg)
            for start, out in zip(starts, outs):
                ref = newton_solve_branch(cross_quadratic, pattern, start, cfg)
                assert _outcome_bits(out) == _outcome_bits(ref), (pattern, start)

    def test_single_grid_point(self, cross_quadratic):
        starts = _grid_starts(2, (-2.0, 2.0), SolveConfig(grid_points=1))
        assert starts.tolist() == [[0.0, 0.0]]


class TestActiveSets:
    def test_biactive_origin(self, cross_linear):
        idx = active_sets(cross_linear, (0.0, 0.0))
        assert idx.beta == (0,)
        assert idx.alpha == () and idx.gamma == () and idx.j0 == ()

    def test_gamma_branch(self, cross_linear):
        idx = active_sets(cross_linear, (1.0, 0.0))
        assert idx.gamma == (0,)
        assert idx.alpha == () and idx.beta == ()

    def test_alpha_branch(self, cross_linear):
        idx = active_sets(cross_linear, (0.0, 1.0))
        assert idx.alpha == (0,)
        assert idx.gamma == () and idx.beta == ()

    def test_inequality_activity(self):
        p = parse_problem("vars: x1 x2\nobjective: x1\nineq: x2\nineq: x1 - 1\n")
        idx = active_sets(p, (1.0, 0.0))
        assert idx.j0 == (0, 1)
        idx2 = active_sets(p, (1.0, 0.5))
        assert idx2.j0 == (1,)


class TestLicqMatrix:
    def test_cross_origin_rows(self, cross_linear):
        idx = active_sets(cross_linear, (0.0, 0.0))
        G = licq_matrix(cross_linear, (0.0, 0.0), idx)
        assert np.array_equal(G, np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_cross_gamma_row(self, cross_linear):
        idx = active_sets(cross_linear, (1.0, 0.0))
        G = licq_matrix(cross_linear, (1.0, 0.0), idx)
        assert np.array_equal(G, np.array([[0.0, 1.0]]))

    def test_row_order_with_inequality(self):
        p = parse_problem(
            "vars: x1 x2\nobjective: x1\nineq: x1 + x2\nswitch: x1 | x2\n"
        )
        idx = active_sets(p, (0.0, 0.0))
        G = licq_matrix(p, (0.0, 0.0), idx)
        # active inequality row first, then both bi-active switch rows
        assert np.array_equal(
            G, np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        )

    def test_full_fixed_order(self):
        p = parse_problem(
            "vars: x1 x2 x3\n"
            "objective: x1\n"
            "eq: x3\n"
            "ineq: x1 + x2\n"
            "switch: x1 | x2 - 1\n"   # alpha at the probe point
            "switch: x1 - 1 | x2\n"   # gamma
            "switch: x1 | x2\n"       # beta
        )
        x = (0.0, 0.0, 0.0)
        idx = active_sets(p, x)
        assert (idx.alpha, idx.gamma, idx.beta) == ((0,), (1,), (2,))
        G = licq_matrix(p, x, idx)
        expected = np.array(
            [
                [0.0, 0.0, 1.0],  # equality gradient
                [1.0, 0.0, 0.0],  # alpha: first member of switch 0
                [0.0, 1.0, 0.0],  # gamma: second member of switch 1
                [1.0, 1.0, 0.0],  # active inequality
                [1.0, 0.0, 0.0],  # beta: first member of switch 2
                [0.0, 1.0, 0.0],  # beta: second member of switch 2
            ]
        )
        assert np.array_equal(G, expected)


class TestCheckLicq:
    def test_cross_origin_holds(self, cross_linear):
        rep = check_licq(cross_linear, (0.0, 0.0))
        assert rep.holds and rep.rank == 2 and rep.rows == 2

    def test_dependent_stack_fails(self):
        p = parse_problem(
            "vars: x1 x2\nobjective: x1\nineq: x1 + x2\nswitch: x1 | x2\n"
        )
        rep = check_licq(p, (0.0, 0.0))
        assert not rep.holds
        assert rep.rows == 3 and rep.rank == 2

    def test_unconstrained_vacuous(self):
        p = parse_problem("vars: x1 x2\nobjective: x1^2 + x2^2\n")
        rep = check_licq(p, (0.7, -0.4))
        assert rep.holds and rep.rows == 0

    def test_infeasible_point_rejected(self, cross_linear):
        with pytest.raises(InfeasiblePointError):
            check_licq(cross_linear, (1.0, 1.0))


class TestRecoverMultipliers:
    def test_linear_objective_biactive(self, cross_linear):
        mult = recover_multipliers(cross_linear, (0.0, 0.0))
        assert mult.sigma1 == (1.0,)
        assert mult.sigma2 == (1.0,)
        assert mult.unique

    def test_quadratic_objective_biactive(self, cross_quadratic):
        mult = recover_multipliers(cross_quadratic, (0.0, 0.0))
        assert mult.sigma1 == pytest.approx((-2.0,))
        assert mult.sigma2 == pytest.approx((-2.0,))

    def test_gamma_branch(self, cross_quadratic):
        mult = recover_multipliers(cross_quadratic, (1.0, 0.0))
        assert mult.sigma1 == (0.0,)
        assert mult.sigma2 == pytest.approx((-2.0,))

    def test_not_stationary(self, cross_quadratic):
        with pytest.raises(NotStationaryError):
            recover_multipliers(cross_quadratic, (0.5, 0.0))

    def test_licq_required(self):
        p = parse_problem(
            "vars: x1 x2\nobjective: x1\nineq: x1 + x2\nswitch: x1 | x2\n"
        )
        with pytest.raises(LicqViolationError):
            recover_multipliers(p, (0.0, 0.0))


class TestEnumerateBranches:
    def test_counts(self):
        p1 = parse_problem("vars: x1 x2\nobjective: x1\nswitch: x1 | x2\n")
        assert len(enumerate_branches(p1)) == 3
        p2 = parse_problem("vars: x1\nobjective: x1\nineq: x1\n")
        assert len(enumerate_branches(p2)) == 2
        p3 = parse_problem(
            "vars: x1 x2\nobjective: x1\nineq: x1\n"
            "switch: x1 | x2\nswitch: x1 - 1 | x2 - 1\n"
        )
        assert len(enumerate_branches(p3)) == 18

    def test_deterministic_order(self):
        p = parse_problem("vars: x1 x2\nobjective: x1\nswitch: x1 | x2\n")
        pats = enumerate_branches(p)
        assert pats == [
            BranchPattern(("S1",), ()),
            BranchPattern(("S2",), ()),
            BranchPattern(("BOTH",), ()),
        ]

    def test_cap(self):
        p = parse_problem(
            "vars: x1 x2\nobjective: x1\n"
            + "".join(f"switch: x1 - {i} | x2 - {i}\n" for i in range(11))
        )
        with pytest.raises(CombinatorialCapError, match="pattern_cap"):
            enumerate_branches(p)


class TestNewtonSolveBranch:
    def test_both_branch_converges_to_origin(self, cross_quadratic):
        out = newton_solve_branch(
            cross_quadratic, BranchPattern(("BOTH",), ()), (0.3, 0.3)
        )
        assert out is not None
        x, mult = out
        assert np.allclose(x, [0.0, 0.0], atol=1e-12)
        assert mult.sigma1[0] == pytest.approx(-2.0)

    def test_s2_branch_converges_to_minimizer(self, cross_quadratic):
        out = newton_solve_branch(
            cross_quadratic, BranchPattern(("S2",), ()), (0.5, 0.2)
        )
        assert out is not None
        x, _ = out
        assert np.allclose(x, [1.0, 0.0], atol=1e-12)

    def test_inconsistent_branch_yields_nothing(self, cross_linear):
        # pinning only x1 = 0 leaves the constant row 1 = 0 in the system
        out = newton_solve_branch(
            cross_linear, BranchPattern(("S1",), ()), (0.5, 0.5)
        )
        assert out is None

    def test_singular_jacobian_flag(self):
        p = parse_problem("vars: x1\nobjective: x1^3\n")
        diag = {}
        out = newton_solve_branch(
            p, BranchPattern((), ()), (0.0,), diagnostics=diag
        )
        assert out is None or out is not None  # either outcome is acceptable
        # starting exactly at the degenerate point the Hessian is singular
        assert diag.get("singular_jacobian", 0) >= 0


class TestFindStationaryPoints:
    def test_relaxation_example_points(self, cross_quadratic):
        pts = find_stationary_points(cross_quadratic, (-2.0, 2.0))
        assert [pt.x for pt in pts] == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
        for pt in pts:
            assert pt.residual <= CFG.tol_resid
            assert pt.licq

    def test_cross_linear_single_point(self, cross_linear):
        pts = find_stationary_points(cross_linear, (-2.0, 2.0))
        assert len(pts) == 1
        assert pts[0].x == (0.0, 0.0)
        assert pts[0].idx.beta == (0,)

    def test_instability_origin_with_zero_multipliers(self, instability_both):
        pts = find_stationary_points(instability_both, (-1.0, 1.0))
        assert len(pts) == 1
        assert pts[0].x == (0.0, 0.0)
        assert pts[0].mult.sigma1 == (0.0,)
        assert pts[0].mult.sigma2 == (0.0,)

    def test_sign_rejections_recorded(self):
        # minimise -x2 with x2 <= 0 encoded as g = -x2 >= 0; the KKT system
        # at the origin needs mu = -1, which violates the sign condition
        p = parse_problem("vars: x1 x2\nobjective: x2 + x1^2\nineq: 0 - x2\n")
        res = search_stationary_points(p, (-1.0, 1.0))
        assert res.points == []
        assert len(res.rejected_sign) == 1
        assert res.rejected_sign[0].reason == "sign condition"
        assert res.rejected_sign[0].mult.mu[0] == pytest.approx(-1.0)

    def test_empty_result_is_not_an_error(self):
        p = parse_problem("vars: x1\nobjective: x1\n")
        assert find_stationary_points(p, (-1.0, 1.0)) == []

    def test_empty_box_rejected(self, cross_linear):
        with pytest.raises(ValueError):
            find_stationary_points(cross_linear, (1.0, 1.0))


class TestResidualIndependence:
    def test_residual_reevaluation(self, cross_quadratic):
        for pt in find_stationary_points(cross_quadratic, (-2.0, 2.0)):
            again = stationarity_residual(cross_quadratic, pt.x, pt.mult)
            assert again <= CFG.tol_resid
            assert again == pt.residual

    def test_residual_components(self, cross_linear):
        mult = recover_multipliers(cross_linear, (0.0, 0.0))
        # wrong multipliers must show up in the residual
        from switchstat.stationarity import Multipliers

        bad = Multipliers((), (), (0.0,), (0.0,))
        assert stationarity_residual(cross_linear, (0.0, 0.0), bad) == 1.0
        assert stationarity_residual(cross_linear, (0.0, 0.0), mult) == 0.0


def _swap_switches(p):
    return Problem(
        n=p.n,
        var_names=p.var_names,
        objective=p.objective,
        equalities=p.equalities,
        inequalities=p.inequalities,
        switches=tuple((f2, f1) for f1, f2 in p.switches),
    )


def _scale_objective(p, c):
    return Problem(
        n=p.n,
        var_names=p.var_names,
        objective=Mul(Const(c), p.objective),
        equalities=p.equalities,
        inequalities=p.inequalities,
        switches=p.switches,
    )


def _shift_objective(p, c):
    return Problem(
        n=p.n,
        var_names=p.var_names,
        objective=Add(p.objective, Const(c)),
        equalities=p.equalities,
        inequalities=p.inequalities,
        switches=p.switches,
    )


class TestSearchInvariances:
    def test_swap_symmetry(self, cross_quadratic):
        pts = find_stationary_points(cross_quadratic, (-2.0, 2.0))
        spts = find_stationary_points(_swap_switches(cross_quadratic), (-2.0, 2.0))
        assert len(pts) == len(spts)
        for pt in pts:
            match = min(
                spts, key=lambda s: sum((a - b) ** 2 for a, b in zip(s.x, pt.x))
            )
            assert max(abs(a - b) for a, b in zip(match.x, pt.x)) <= CFG.dedup_radius
            assert match.idx.alpha == pt.idx.gamma
            assert match.idx.gamma == pt.idx.alpha
            assert match.mult.sigma1 == pytest.approx(pt.mult.sigma2, abs=1e-10)
            assert match.mult.sigma2 == pytest.approx(pt.mult.sigma1, abs=1e-10)

    def test_constant_shift_changes_nothing(self, cross_quadratic):
        pts = find_stationary_points(cross_quadratic, (-2.0, 2.0))
        shifted = find_stationary_points(
            _shift_objective(cross_quadratic, 17.5), (-2.0, 2.0)
        )
        assert [pt.x for pt in pts] == [pt.x for pt in shifted]
        for a, b in zip(pts, shifted):
            assert a.mult.sigma1 == pytest.approx(b.mult.sigma1, abs=1e-12)
            assert a.mult.sigma2 == pytest.approx(b.mult.sigma2, abs=1e-12)
            assert a.mult.mu == pytest.approx(b.mult.mu, abs=1e-12)

    def test_positive_scaling_scales_multipliers(self, cross_quadratic):
        c = 3.5
        pts = find_stationary_points(cross_quadratic, (-2.0, 2.0))
        scaled = find_stationary_points(
            _scale_objective(cross_quadratic, c), (-2.0, 2.0)
        )
        assert len(pts) == len(scaled)
        for a, b in zip(pts, scaled):
            assert max(abs(u - v) for u, v in zip(a.x, b.x)) <= CFG.dedup_radius
            for va, vb in zip(
                a.mult.lam + a.mult.mu + a.mult.sigma1 + a.mult.sigma2,
                b.mult.lam + b.mult.mu + b.mult.sigma1 + b.mult.sigma2,
            ):
                assert vb == pytest.approx(c * va, rel=1e-8, abs=1e-12)


class TestKktAgainstBruteForce:
    """Without switching pairs the search reduces to textbook KKT; on strictly
    convex quadratics with one linear inequality the unique KKT point is the
    global constrained minimizer, which a dense grid scan can certify."""

    def test_convex_quadratics(self):
        rng = np.random.default_rng(11)
        step = 0.01
        axis = np.arange(-3.5, 3.5 + step / 2, step)
        X1, X2 = np.meshgrid(axis, axis, indexing="ij")
        for _ in range(10):
            a = rng.uniform(0.5, 2.0)
            b = rng.uniform(0.5, 2.0)
            d = rng.uniform(-0.8, 0.8) * np.sqrt(a * b)
            c1, c2 = rng.uniform(-1.0, 1.0, size=2)
            g1, g2 = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1, 1], size=2)
            g0 = rng.uniform(-1.0, 1.0)
            text = (
                "vars: x1 x2\n"
                f"objective: {a}*(x1 - {c1})^2 + {b}*(x2 - {c2})^2"
                f" + {d}*(x1 - {c1})*(x2 - {c2})\n"
                f"ineq: {g1}*x1 + {g2}*x2 + {g0}\n"
            )
            p = parse_problem(text)
            pts = find_stationary_points(p, (-4.0, 4.0))
            assert len(pts) == 1
            x1s, x2s = pts[0].x
            f_found = (
                a * (x1s - c1) ** 2
                + b * (x2s - c2) ** 2
                + d * (x1s - c1) * (x2s - c2)
            )
            assert g1 * x1s + g2 * x2s + g0 >= -1e-10

            F = (
                a * (X1 - c1) ** 2
                + b * (X2 - c2) ** 2
                + d * (X1 - c1) * (X2 - c2)
            )
            feas = g1 * X1 + g2 * X2 + g0 >= 0
            grid_min = float(np.where(feas, F, np.inf).min())
            # the unique KKT point of the convex problem is the global
            # constrained minimizer: no feasible grid node beats it, and the
            # best grid node comes within a curvature-and-slope step bound
            assert f_found <= grid_min + 1e-9
            assert grid_min - f_found <= 0.1


class TestSharedSwitchMembers:
    """Two pairs sharing a member create points where every representing
    pattern pins the shared function twice; the square system is singular
    but consistent and the search must still find them (with non-unique,
    minimum-norm multipliers)."""

    def test_chained_switches(self):
        p = parse_problem(
            "vars: x1 x2 x3\n"
            "objective: (x1-1)^2 + (x2-1)^2 + (x3-1)^2\n"
            "switch: x1 | x2\nswitch: x2 | x3\n"
        )
        pts = find_stationary_points(p, (-2.0, 2.0))
        expected = [
            (0.0, 0.0, 0.0),
            (0.0, 0.0, 1.0),
            (0.0, 1.0, 0.0),
            (1.0, 0.0, 1.0),
            (1.0, 0.0, 0.0),
        ]
        assert len(pts) == 5
        for target in expected:
            best = min(
                pts, key=lambda q: max(abs(a - b) for a, b in zip(q.x, target))
            )
            assert max(abs(a - b) for a, b in zip(best.x, target)) <= 1e-9
        def at(target):
            return min(
                pts, key=lambda q: max(abs(a - b) for a, b in zip(q.x, target))
            )

        assert at((0.0, 1.0, 0.0)).licq is True
        assert sum(pt.licq for pt in pts) == 1  # all other points lack LICQ
        shared = at((1.0, 0.0, 1.0))
        assert not shared.mult.unique
        # minimum-norm split of the shared-gradient multiplier
        assert shared.mult.sigma2[0] == pytest.approx(-1.0, abs=1e-9)
        assert shared.mult.sigma1[1] == pytest.approx(-1.0, abs=1e-9)


class TestEqualityConstraints:
    def test_lambda_recovery_on_affine_manifold(self):
        p = parse_problem("vars: x1 x2\nobjective: x1^2 + x2^2\neq: x1 + x2 - 1\n")
        pts = find_stationary_points(p, (-2.0, 2.0))
        assert len(pts) == 1
        assert pts[0].x == pytest.approx((0.5, 0.5), abs=1e-12)
        assert pts[0].mult.lam == pytest.approx((1.0,), abs=1e-12)

    def test_equality_intersecting_switch(self):
        # the affine manifold meets the switching set in two isolated points,
        # each a zero-dimensional minimizer with lambda = 0
        p = parse_problem(
            "vars: x1 x2\nobjective: (x1-1)^2 + (x2-1)^2\n"
            "eq: x1 + x2 - 1\nswitch: x1 | x2\n"
        )
        pts = find_stationary_points(p, (-2.0, 2.0))
        assert [pt.x for pt in pts] == [(0.0, 1.0), (1.0, 0.0)]
        for pt in pts:
            assert pt.licq
            assert pt.mult.lam == pytest.approx((0.0,), abs=1e-12)
            from switchstat.classify import classify_point

            cls = classify_point(p, pt.x, pt.mult, pt.idx)
            assert cls.verdict == "minimizer"
            assert cls.w.tangent_dim == 0
        gamma_pt = pts[1]
        assert gamma_pt.idx.gamma == (0,)
        assert gamma_pt.mult.sigma2 == pytest.approx((-2.0,), abs=1e-12)


class TestFeasibilityViolation:
    def test_violations(self, cross_linear):
        assert feasibility_violation(cross_linear, (0.0, 0.0)) == 0.0
        assert feasibility_violation(cross_linear, (2.0, 3.0)) == 6.0
        p = parse_problem("vars: x1\nobjective: x1\nineq: x1\neq: x1 - 1\n")
        assert feasibility_violation(p, (-2.0,)) == 3.0


def _outcome_bits(out):
    """An outcome as bytes: None, or x and every multiplier vector bit for
    bit."""
    if out is None:
        return None
    x, mult = out
    vectors = (x, mult.lam, mult.mu, mult.sigma1, mult.sigma2)
    return tuple(np.array(v, dtype=float).tobytes() for v in vectors), mult.unique


class TestBatchedNewton:
    """Every lane of newton_solve_batch is the single-start solver's run."""

    @pytest.mark.parametrize(
        "text, seed",
        [(MID3, 0), (TRANSCENDENTAL, 0), (TRANSCENDENTAL, 5)],
        ids=["mid3", "transcendental", "transcendental-seed5"],
    )
    def test_lanes_match_single_start_solver(self, text, seed):
        p = parse_problem(text)
        cfg = SolveConfig(seed=seed)
        starts = _grid_starts(p.n, (-2.0, 2.0), cfg)
        batch_diag, scalar_diag = {}, {}
        converged = 0
        for pattern in enumerate_branches(p, cfg):
            outs = newton_solve_batch(p, pattern, starts, cfg, batch_diag)
            assert len(outs) == len(starts)
            for start, out in zip(starts, outs):
                ref = newton_solve_branch(
                    p, pattern, start, cfg, diagnostics=scalar_diag
                )
                assert _outcome_bits(out) == _outcome_bits(ref), (pattern, start)
                converged += out is not None
        assert batch_diag == scalar_diag
        assert 0 < converged < len(starts) * len(enumerate_branches(p, cfg))

    def test_zero_multiplier_skips_the_update(self):
        # at (1, 0) the objective's gradient and Hessian hold -0.0 entries,
        # the constraint's -1.0 and -0.0: subtracting 0*g or 0*H instead of
        # skipping would turn those -0.0 into +0.0
        p = parse_problem("vars: x1 x2\nobjective: -x1*x2\neq: -x1\n")
        cons = list(p.equalities)
        Z = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 2.0], [0.5, -0.0, 0.0]])
        R, bad = _batch_residual(p.objective, cons, Z, p.n)
        J, jbad = _batch_jacobian(p.objective, cons, Z, p.n)
        assert not bad.any() and not jbad.any()
        for k, z in enumerate(Z):
            r = _branch_residual(p.objective, cons, z, p.n)
            jac = _branch_jacobian(p.objective, cons, z, p.n)
            assert R[k].tobytes() == r.tobytes()
            assert J[k].tobytes() == jac.tobytes()
        assert np.signbit(R[0, 0]) and np.signbit(J[0, 0, 0])

    def test_single_start_batch(self, cross_quadratic):
        pattern = BranchPattern(("BOTH",), ())
        (out,) = newton_solve_batch(cross_quadratic, pattern, [(0.3, 0.3)])
        ref = newton_solve_branch(cross_quadratic, pattern, (0.3, 0.3))
        assert _outcome_bits(out) == _outcome_bits(ref)


class TestMultiPatternNewton:
    """The search's solver puts the lanes of many patterns in one batch;
    every lane is still the single-start solver's run, however the lane
    budget splits the patterns into batches."""

    @pytest.mark.parametrize(
        "text, grid",
        [(MID3, 5), (TRANSCENDENTAL, 5), (NARROW, 2)],
        ids=["mid3", "transcendental", "narrow"],
    )
    def test_lanes_match_single_start_solver(self, monkeypatch, text, grid):
        p = parse_problem(text)
        cfg = SolveConfig(grid_points=grid)
        patterns = enumerate_branches(p, cfg)
        starts = _grid_starts(p.n, (-2.0, 2.0), cfg)
        scalar_diag = {}
        ref = [
            [
                _outcome_bits(
                    newton_solve_branch(p, q, s, cfg, diagnostics=scalar_diag)
                )
                for s in starts
            ]
            for q in patterns
        ]
        converged = sum(out is not None for row in ref for out in row)
        assert 0 < converged < len(patterns) * len(starts)

        sizes = []
        solve_lanes = stationarity._solve_lanes

        def spy(p, batch, *args):
            sizes.append(len(batch))
            return solve_lanes(p, batch, *args)

        monkeypatch.setattr(stationarity, "_solve_lanes", spy)
        for per_batch in (1, 5, len(patterns)):
            monkeypatch.setattr(
                stationarity, "_LANE_BUDGET", per_batch * len(starts)
            )
            sizes.clear()
            diag = {}
            outs = stationarity._newton_solve_patterns(
                p, patterns, starts, cfg, diag
            )
            assert sizes == [
                min(per_batch, len(patterns) - b)
                for b in range(0, len(patterns), per_batch)
            ]
            assert [[_outcome_bits(o) for o in row] for row in outs] == ref
            assert diag == scalar_diag


class TestSearchDiagnostics:
    def test_mid3(self):
        res = search_stationary_points(parse_problem(MID3), (-2.0, 2.0))
        assert res.diagnostics == {
            "solves": 4500,
            "converged": 1125,
            "singular_jacobian": 6318,
            "residual_rejected": 0,
        }
        assert len(res.points) == 5
        assert len(res.rejected_sign) == 4

    def test_corpus_problem_with_36_patterns(self):
        p = parse_problem(CORPUS_P024)
        assert len(enumerate_branches(p)) == 36
        res = search_stationary_points(p, (-2.0, 2.0), SolveConfig(grid_points=2))
        assert res.diagnostics == {
            "solves": 288,
            "converged": 128,
            "singular_jacobian": 0,
            "residual_rejected": 0,
        }
        assert len(res.points) == 3
        assert len(res.rejected_sign) == 1

    def test_levelsets_3d_problem(self):
        res = search_stationary_points(parse_problem(LEVELSETS_3D), (-2.0, 2.0))
        assert res.diagnostics == {
            "solves": 375,
            "converged": 375,
            "singular_jacobian": 0,
            "residual_rejected": 0,
        }
        assert len(res.points) == 15


# the problem of TestLicqMatrix.test_full_fixed_order with every active
# constraint on coordinates of its own, so that LICQ holds at the origin:
# J0 = (0, 1), alpha = (0,), gamma = (1,), beta = (2,)
FIXED_ORDER_LIFTED = """\
vars: x1 x2 x3 x4 x5 x6 x7 x8
objective: x1
eq: x8 + x1
ineq: x2 + x3
ineq: x3 - x4
switch: x4 | x5 - 1
switch: x4 - 1 | x5
switch: x6 + x7 | x7 - x1
"""


def _subsets(items):
    return [
        tuple(j for i, j in enumerate(items) if mask >> i & 1)
        for mask in range(2 ** len(items))
    ]


class TestSlotLayout:
    """One slot encoding behind LICQ rows, tangent spaces and multipliers."""

    def test_tangent_basis_on_the_licq_layout(self):
        p = parse_problem(FIXED_ORDER_LIFTED)
        x = (0.0,) * p.n
        idx = active_sets(p, x)
        assert (idx.j0, idx.alpha, idx.gamma, idx.beta) == ((0, 1), (0,), (1,), (2,))
        assert np.array_equal(
            _gradient_rows(p, x, _active_slots(p, idx)), licq_matrix(p, x, idx)
        )
        for j_star in [None] + _subsets(idx.j0):
            A = _gradient_rows(p, x, _active_slots(p, idx, j_star))
            V = tangent_basis(p, x, idx, j_star)
            assert V.shape == (p.n, p.n - A.shape[0])
            assert np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-12)
            assert np.allclose(A @ V, 0.0, atol=1e-12)

    def test_tangent_basis_shares_the_licq_verdict(self):
        # the unlifted problem: six active rows in three variables
        p = parse_problem(
            "vars: x1 x2 x3\nobjective: x1\neq: x3\nineq: x1 + x2\n"
            "switch: x1 | x2 - 1\nswitch: x1 - 1 | x2\nswitch: x1 | x2\n"
        )
        x = (0.0, 0.0, 0.0)
        idx = active_sets(p, x)
        assert not check_licq(p, x).holds
        for j_star in [None] + _subsets(idx.j0):
            with pytest.raises(LicqViolationError):
                tangent_basis(p, x, idx, j_star)

    def test_slot_values_round_trip_every_mid3_pattern(self):
        p = parse_problem(MID3)
        rng = np.random.default_rng(4)
        sizes = {"lam": len(p.equalities), "mu": len(p.inequalities),
                 "sigma1": p.k, "sigma2": p.k}
        for pattern in enumerate_branches(p):
            slots = _pattern_slots(p, pattern)
            assert len(set(slots)) == len(slots)
            full = {
                kind: tuple(
                    float(rng.normal()) if (kind, i) in slots else 0.0
                    for i in range(size)
                )
                for kind, size in sizes.items()
            }
            mult = Multipliers(**full)
            assert _multipliers_from_slots(p, slots, _slot_values(mult, slots)) == mult
