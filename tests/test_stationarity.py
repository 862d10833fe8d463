"""Index sets, LICQ, multiplier recovery and the branch-Newton search."""

import ast
import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest

from switchstat import relaxation, stationarity
from switchstat.classify import lagrangian_hessian, tangent_basis
from switchstat.expr import (
    Add,
    Const,
    EvalDomainError,
    Mul,
    Problem,
    _affine_form,
    eval_gradient,
    eval_hessian,
    parse_expression,
    parse_problem,
)
from switchstat.linalg import SingularSystemError, ToleranceConfig, rank, solve_linear
from switchstat.relaxation import continue_path, kkt_points_relaxed, relax
from tests.conftest import (
    CROSS_LINEAR,
    CROSS_QUADRATIC,
    INSTABILITY_BOTH,
    INSTABILITY_ONE,
    STABLE_WITHOUT_ND2,
)
from tests.test_expr import FOLDS_TO_A_DOMAIN_ERROR, _random_tree
from switchstat.stationarity import (
    _active_slots,
    _batch_branch,
    _branch_code,
    _branch_empty,
    _branch_jacobians,
    _branch_program,
    _branch_shape,
    _branch_system,
    _certificate_rows,
    _max_norm,
    _gradient_rows,
    _grid_starts,
    _multipliers_from_slots,
    _newton_solve_patterns,
    _pattern_slots,
    _problem_slots,
    _slot_expr,
    _slot_values,
    BranchPattern,
    CombinatorialCapError,
    IndexSets,
    InfeasiblePointError,
    LicqViolationError,
    Multipliers,
    NotStationaryError,
    SolveConfig,
    active_sets,
    check_licq,
    complementarity_violation,
    enumerate_branches,
    feasibility_violation,
    find_stationary_points,
    licq_matrix,
    newton_solve_branch,
    recover_multipliers,
    search_stationary_points,
    stationarity_residual,
    with_overrides,
)

CFG = SolveConfig()

# the radius of the search's affine forms for the box (-2, 2): that of its box
# inflated by box_inflation = 0.1 on each side
RADIUS = 2.4

# two switching pairs that share the member x2
CHAINED_SWITCHES = """\
vars: x1 x2 x3
objective: (x1-1)^2 + (x2-1)^2 + (x3-1)^2
switch: x1 | x2
switch: x2 | x3
"""

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

# problems 17 and 84 of the same corpus: 32 of the first's 36 patterns and all
# 18 of the second's pin affine constraints with no common zero
CORPUS_P017 = """\
vars: x1 x2
objective: 1.053*x1 + 0.294*x2 + 0.851*x1^2 + -0.397*x2^2 + -1.077*x1 + 1.096*x2
ineq: 0.91*x1 + 1.108*x2 + 0.407
ineq: 1.252*x1 + -0.726*x2 + -0.332
switch: -0.465*x1 + 0.231*x2 + 0.402 | -1.374*x1 + 0.191*x2 + 0.797
switch: -0.677*x1 + -0.488*x2 + 0.105 | -0.164*x1 + -1.246*x2 + -0.246
"""

CORPUS_P084 = """\
vars: x1 x2
objective: 1.68*x1 + 0.51*x2 + 0.249*x1^2 + -0.653*x2^2 + -1.902*x1^2*x2
eq: 1.335*x1 + 0.701*x2 + 0.875
ineq: 0.152*x1 + 0.318*x2 + -0.617
switch: 1.224*x1 + -1.414*x2 + 0.4 | 0.926*x1 + 1.433*x2 + 0.384
switch: -0.398*x1 + -1.052*x2 + 0.021 | -1.163*x1 + -0.414*x2 + -0.361
"""

# problem 76 of the same corpus: at tol_resid=1e-13 its search rejects one
# candidate on the residual
CORPUS_P076 = """\
vars: x1 x2 x3
objective: -1.609*x1 + -1.062*x2 + -0.37*x3 + -1.997*x1^2 + 0.67*x2^2 + 0.52*x3^2 + 1.25*x3
switch: 0.946*x1 + 1.427*x2 + 0.194*x3 + 0.024 | 0.906*x1 + 0.689*x2 + 0.096*x3 + 0.902
switch: -0.63*x1 + 0.573*x2 + -1.463*x3 + -0.239 | 0.53*x1 + 1.248*x2 + -0.925*x3 + 0.746
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
         ("grid_points", 0), ("grid_points", -3),
         ("tol_feas", math.nan), ("tol_feas", math.inf),
         ("tol_feas", -math.inf), ("tol_feas", -1.0),
         ("pattern_cap", -1), ("subset_cap", -1), ("seed", -1),
         ("box_inflation", -0.5), ("match_radius", -1.0),
         ("rank_floor", -1e-3), ("eig_zero", math.nan),
         ("solve_residual", math.inf)],
    )
    def test_rejects_out_of_range_budgets(self, name, value):
        # the linear-algebra settings live in the nested ToleranceConfig
        record = (ToleranceConfig if name in ToleranceConfig.__dataclass_fields__
                  else SolveConfig)
        with pytest.raises(ValueError, match=name):
            record(**{name: value})
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
            outs = _newton_solve_patterns(
                cross_quadratic, [pattern], starts, cfg, None
            )[0]
            for start, out in zip(starts, outs):
                ref = newton_solve_branch(cross_quadratic, pattern, start, cfg)
                assert _outcome_bits(out) == _outcome_bits(ref), (pattern, start)

    def test_single_grid_point(self, cross_quadratic):
        starts = _grid_starts(2, (-2.0, 2.0), SolveConfig(grid_points=1))
        assert starts.tolist() == [[0.0, 0.0]]

    def test_start_cap(self, cross_quadratic, monkeypatch):
        # the default 5^2 rows of a 2-variable problem pass a cap of 25 and
        # exceed one of 24 before any row is built or any lane is solved
        monkeypatch.setattr(stationarity, "_MAX_STARTS", 25)
        assert _grid_starts(2, (-2.0, 2.0), SolveConfig()).shape == (25, 2)
        points = search_stationary_points(cross_quadratic, (-2.0, 2.0)).points
        assert len(points) == 3

        def spy(*args):
            raise AssertionError("called past the start cap")

        monkeypatch.setattr(stationarity, "_MAX_STARTS", 24)
        monkeypatch.setattr(stationarity.itertools, "product", spy)
        monkeypatch.setattr(stationarity, "_newton_solve_patterns", spy)
        message = "5\\^2 multi-start rows exceed the start cap of 24 rows"
        with pytest.raises(CombinatorialCapError, match=message):
            _grid_starts(2, (-2.0, 2.0), SolveConfig())
        monkeypatch.setattr(stationarity, "enumerate_branches", lambda p, cfg: [])
        with pytest.raises(CombinatorialCapError, match=message):
            search_stationary_points(cross_quadratic, (-2.0, 2.0))


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

    def test_square_residual_test_is_the_filters(self):
        # the square multiplier solve at this bi-active corner leaves a
        # rounding residual of 2.2e-16: at solve_residual 0 recover_multipliers
        # raises solve_linear's error and the accept filter rejects the
        # candidate on the residual; at the default both keep the multipliers
        p = parse_problem(
            "vars: x1 x2\nobjective: 0.1*x1 + 0.7*x2\n"
            "switch: 0.3*x1 + 0.9*x2 | 1.1*x1 - 0.7*x2\n"
        )
        x = np.zeros(2)
        strict = SolveConfig(lin=ToleranceConfig(solve_residual=0.0))
        G = licq_matrix(p, x, active_sets(p, x))
        with pytest.raises(SingularSystemError) as expected:
            solve_linear(G.T, eval_gradient(p.objective, x), strict.lin)
        with pytest.raises(SingularSystemError) as raised:
            recover_multipliers(p, x, strict)
        assert str(raised.value) == str(expected.value)
        verdicts = stationarity._accept_verdicts(p, x[None], -3.0, 3.0, strict)
        assert verdicts[0].kind == "residual"
        verdict = stationarity._accept_verdicts(p, x[None], -3.0, 3.0, CFG)[0]
        assert verdict.kind == "accept"
        assert repr(verdict.mult) == repr(recover_multipliers(p, x))


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
        # (S2, S1) pins the shared member x2 twice, so every Jacobian of the
        # branch system is singular; the first iteration's minimum-norm step
        # lands on the root, and the polish's singular steps are not counted
        p = parse_problem(CHAINED_SWITCHES)
        pattern = BranchPattern(("S2", "S1"), ())
        start = (0.5, 0.5, 0.5)
        for polish_steps in (4, 0):
            cfg = SolveConfig(polish_steps=polish_steps)
            diag, batch_diag = {}, {}
            out = newton_solve_branch(p, pattern, start, cfg, diagnostics=diag)
            assert diag == {"singular_jacobian": 1}, polish_steps
            x, mult = out
            assert x == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)
            # the minimum-norm split of the doubly pinned x2's multiplier
            assert mult.sigma2 == pytest.approx((-1.0, 0.0), abs=1e-12)
            assert mult.sigma1 == pytest.approx((0.0, -1.0), abs=1e-12)
            ((lane,),) = _newton_solve_patterns(
                p, [pattern], [start], cfg, batch_diag
            )
            assert _outcome_bits(lane) == _outcome_bits(out)
            assert batch_diag == diag


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

    @pytest.mark.parametrize(
        "box, inflation",
        [((0.0, math.inf), 0.1), ((-math.inf, 0.0), 0.0), ((0.0, 1.7e308), 0.1),
         ((-2.0, 2.0), 1e308)],
        ids=["inf", "minus-inf", "overflowing-bound", "overflowing-inflation"],
    )
    def test_box_not_finite_after_inflation_rejected(self, cross_linear, box, inflation):
        cfg = with_overrides(CFG, box_inflation=inflation)
        with pytest.raises(ValueError, match="box .* is not finite"):
            search_stationary_points(cross_linear, box, cfg)


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
        p = parse_problem(CHAINED_SWITCHES)
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


# log(x1 + 0.5) is undefined at x1 <= -0.5
UNDEFINED_CONSTRAINT = """\
vars: x1 x2
objective: (x1+1)^2 + (x2-1)^2
ineq: log(x1+0.5)
switch: x1 | x2
"""


class TestUndefinedConstraint:
    """A point where a constraint function is undefined is infeasible."""

    def test_public_api_calls_it_infeasible(self):
        p = parse_problem(UNDEFINED_CONSTRAINT)
        assert feasibility_violation(p, (-1.0, 0.0)) == math.inf
        with pytest.raises(InfeasiblePointError):
            check_licq(p, (-1.0, 0.0))
        with pytest.raises(InfeasiblePointError):
            recover_multipliers(p, (-1.0, 0.0))
        assert check_licq(p, (0.5, 0.0)).holds

    @pytest.mark.parametrize("kind", ["eq", "ineq"])
    def test_residual_is_inf_where_a_constraint_is_undefined(self, kind):
        p = parse_problem(UNDEFINED_CONSTRAINT.replace("ineq:", f"{kind}:"))
        for y in (0.0, 2.0):
            # the undefined constraint's multiplier is 0.0 or not
            mult = Multipliers((y,) * len(p.equalities),
                               (y,) * len(p.inequalities), (0.0,), (1.0,))
            assert stationarity_residual(p, (-1.0, 0.0), mult) == math.inf
        zero = Multipliers((0.0,) * len(p.equalities),
                           (0.0,) * len(p.inequalities), (0.0,), (0.0,))
        assert math.isfinite(stationarity_residual(p, (0.5, 0.0), zero))

    def test_complementarity_is_inf_where_a_constraint_is_undefined(self):
        p = parse_problem(UNDEFINED_CONSTRAINT)
        x = (-1.0, 0.0)
        mult = Multipliers((), (2.0,), (0.0,), (1.0,))
        assert complementarity_violation(p, x, mult) == math.inf
        # a zero multiplier leaves the undefined constraint unread
        mult = Multipliers((), (0.0,), (0.0,), (1.0,))
        assert complementarity_violation(p, x, mult) == 0.0

    def test_residual_raises_where_only_a_gradient_is_undefined(self):
        # x2*x1^(-1) is defined and 0 at (1e-300, 0), so the point is
        # feasible, but its gradient holds x1^(-2), which overflows; only a
        # nonzero multiplier needs that gradient
        p = parse_problem("vars: x1 x2\nobjective: x1^2 + x2^2\nineq: x2*x1^(-1)\n")
        x = (1e-300, 0.0)
        assert stationarity_residual(p, x, Multipliers((), (0.0,), (), ())) == 2e-300
        with pytest.raises(EvalDomainError):
            stationarity_residual(p, x, Multipliers((), (1.0,), (), ()))

    def test_defined_constraint_with_undefined_gradient_is_dropped(self):
        # x2*x1^(-1) is 0 and active at (1e-300, 0), but its gradient holds
        # x1^(-2), which overflows
        p = parse_problem("vars: x1 x2\nobjective: x1^2 + x2^2\nineq: x2*x1^(-1)\n")
        x = np.array([1e-300, 0.0])
        assert feasibility_violation(p, x) == 0.0
        with pytest.raises(EvalDomainError):
            check_licq(p, x)
        lo, hi = np.full(2, -3.0), np.full(2, 3.0)
        verdict = stationarity._accept_verdicts(p, x[None], lo, hi, CFG)[0]
        assert verdict.kind == "infeasible"


def _outcome_bits(out):
    """An outcome as bytes: None, or x and every multiplier vector bit for
    bit."""
    if out is None:
        return None
    x, mult = out
    vectors = (x, mult.lam, mult.mu, mult.sigma1, mult.sigma2)
    return tuple(np.array(v, dtype=float).tobytes() for v in vectors), mult.unique


class TestBatchedNewton:
    """Every lane of a one-pattern batch is the single-start solver's
    run."""

    @pytest.mark.parametrize(
        "text, seed",
        [(MID3, 0), (TRANSCENDENTAL, 0), (TRANSCENDENTAL, 5)],
        ids=["mid3", "transcendental", "transcendental-seed5"],
    )
    def test_lanes_match_single_start_solver(self, text, seed):
        p = parse_problem(text)
        cfg = SolveConfig(seed=seed)
        starts = _grid_starts(p.n, (-2.0, 2.0), cfg)
        converged = 0
        for pattern in enumerate_branches(p, cfg):
            batch_diag, scalar_diag = {}, {}
            outs = _newton_solve_patterns(p, [pattern], starts, cfg, batch_diag)[0]
            assert len(outs) == len(starts)
            for start, out in zip(starts, outs):
                ref = newton_solve_branch(
                    p, pattern, start, cfg, diagnostics=scalar_diag
                )
                assert _outcome_bits(out) == _outcome_bits(ref), (pattern, start)
                converged += out is not None
            assert batch_diag == scalar_diag, pattern
        assert 0 < converged < len(starts) * len(enumerate_branches(p, cfg))

    def test_failed_polish_round_keeps_the_lane(self):
        # 0*x1^(-1) has a finite gradient at x1 = 1e-110 but no Hessian
        # there (x1^(-3) overflows).  The start (1e-110, 0) is converged, so
        # only its polish walks the Hessian: that round fails and the lane
        # keeps the start's bits.  From (1e-110, 0.5) the failing Jacobian
        # walk is an iteration's, and the lane is lost.
        p = parse_problem("vars: x1 x2\nobjective: 0*x1^(-1) + x2^2\n")
        (pattern,) = enumerate_branches(p, CFG)
        starts = np.array([[1e-110, 0.0], [1e-110, 0.5], [1.0, 0.5]])
        outs = _newton_solve_patterns(p, [pattern], starts, CFG)[0]
        for start, out in zip(starts, outs):
            ref = newton_solve_branch(p, pattern, start, CFG)
            assert _outcome_bits(out) == _outcome_bits(ref), start
        assert outs[0][0].tobytes() == starts[0].tobytes()
        assert outs[1] is None and outs[2] is not None

    def test_zero_multiplier_skips_the_update(self):
        # at (1, 0) the objective's gradient and Hessian hold -0.0 entries,
        # the constraint's -1.0 and -0.0: subtracting 0*g or 0*H instead of
        # skipping would turn those -0.0 into +0.0
        p = parse_problem("vars: x1 x2\nobjective: -x1*x2\neq: -x1\n")
        cons = list(p.equalities)
        Z = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 2.0], [0.5, -0.0, 0.0]])
        include = np.ones((len(Z), len(cons)), dtype=bool)
        R, H, G, bad = _batch_branch(p.objective, cons, Z, p.n, include, False)
        assert H is None and G is None
        RH, H, G, jbad = _batch_branch(p.objective, cons, Z, p.n, include, True)
        J = _branch_jacobians(H, G)
        assert not bad.any() and not jbad.any()
        assert RH.tobytes() == R.tobytes()
        shape, consts = _branch_shape(p.objective, cons, p.n)
        residual, jacobian = _branch_code(shape)
        for k, z in enumerate(Z):
            r, no_jac = _branch_system(p.objective, cons, z, p.n, False)
            rh, jac = _branch_system(p.objective, cons, z, p.n, True)
            assert no_jac is None and rh.tobytes() == r.tobytes()
            assert R[k].tobytes() == r.tobytes()
            assert J[k].tobytes() == jac.tobytes()
            assert np.array(residual(z.tolist(), consts)).tobytes() == r.tobytes()
            assert np.array(jacobian(z.tolist(), consts)).tobytes() == jac.tobytes()
        assert np.signbit(R[0, 0]) and np.signbit(J[0, 0, 0])

    def test_singular_lanes_leave_the_others_stacked(self, monkeypatch):
        # a zero gradient row makes a lane's Jacobian singular, and a
        # repeated row mostly does: where a pattern's stacked solve fails,
        # every lane of it must keep the bits and the singular_jacobian
        # count of its single step, and the lanes of a pattern whose stacked
        # solve succeeds keep the bits of their single solve without
        # reaching the single step
        single = stationarity._newton_step
        one_by_one = []

        def spy(J, r, diagnostics):
            one_by_one.append(J.tobytes())
            return single(J, r, diagnostics)

        def solvable(Jk):
            try:
                np.linalg.solve(Jk, np.ones(len(Jk)))
            except np.linalg.LinAlgError:
                return False
            return True

        monkeypatch.setattr(stationarity, "_newton_step", spy)
        rng = np.random.default_rng(12)
        for n, m in [(1, 1), (1, 2), (2, 2), (3, 2), (3, 4), (4, 3)]:
            # pattern 0 pins slots 0..m-1, pattern 1 slot m alone
            cols = [np.arange(m), np.array([m])]
            lane_pattern = np.repeat([0, 1], 30)
            H = rng.normal(size=(60, n, n))
            G = rng.normal(size=(60, m + 1, n))
            R = rng.normal(size=(60, n + m + 1))
            G[:30:4, m - 1] = G[:30:4, 0]
            G[1:30:7, 0] = 0.0
            ref_diag, diag = {}, {}
            ref = np.zeros_like(R)
            singular = 0
            for k, q in enumerate(lane_pattern):
                unknowns = np.concatenate([np.arange(n), n + cols[q]])
                Jk = _branch_jacobians(H[k:k + 1], G[k:k + 1][:, cols[q]])[0]
                singular += not solvable(Jk)
                ref[k, unknowns] = single(Jk, R[k, unknowns], ref_diag)
            assert singular >= 5
            one_by_one.clear()
            steps = stationarity._pattern_steps(H, G, R, lane_pattern, cols, diag)
            assert steps.tobytes() == ref.tobytes()
            assert diag == ref_diag == {"singular_jacobian": singular}
            # every lane of pattern 0, whose stacked solve fails, and none
            # of pattern 1
            assert len(one_by_one) == 30

    def test_single_start_batch(self, cross_quadratic):
        pattern = BranchPattern(("BOTH",), ())
        ((out,),) = _newton_solve_patterns(
            cross_quadratic, [pattern], [(0.3, 0.3)], CFG, None
        )
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

    # the lane budget also sizes a damping round's first walk: at 1 it tries
    # one factor per lane, at the default two per lane of these 100-lane
    # batches, at 10**6 every factor at once
    @pytest.mark.parametrize(
        "budget", [1, stationarity._LANE_BUDGET, 10**6],
        ids=["budget1", "default", "budget1e6"],
    )
    @pytest.mark.parametrize("box", [(-1.0, 2.0), (-2.0, 2.0)],
                             ids=["box-1,2", "box-2,2"])
    @pytest.mark.parametrize("text", [INSTABILITY_ONE, INSTABILITY_BOTH],
                             ids=["instability_one", "instability_both"])
    def test_relaxed_lanes_match_single_start_solver(
        self, monkeypatch, text, box, budget
    ):
        # the relaxed problems at t = 0.1, as relax's first search solves
        # them: their lanes need deep halvings, some find no improving
        # damping, and on (-2, 2) a round of instability_both loses every
        # lane to the step blow-up test before damping
        q = relax(parse_problem(text), 0.1).problem
        patterns = enumerate_branches(q, CFG)
        starts = _grid_starts(q.n, box, CFG)
        scalar_diag = {}
        ref = [
            [
                _outcome_bits(
                    newton_solve_branch(q, pattern, s, CFG, diagnostics=scalar_diag)
                )
                for s in starts
            ]
            for pattern in patterns
        ]
        monkeypatch.setattr(stationarity, "_LANE_BUDGET", budget)
        diag = {}
        outs = _newton_solve_patterns(q, patterns, starts, CFG, diag)
        assert [[_outcome_bits(o) for o in row] for row in outs] == ref
        assert diag == scalar_diag

    @staticmethod
    def _count_walks(monkeypatch):
        walks = {False: 0, True: 0}
        eval_batch = stationarity.eval_batch

        def spy(e, X, hessian=False):
            walks[hessian] += 1
            return eval_batch(e, X, hessian)

        monkeypatch.setattr(stationarity, "eval_batch", spy)
        return walks

    def test_narrow_batch_damping_takes_few_walks(self, monkeypatch):
        # one batch of 100 lanes; doubling from one factor per lane took 738
        # gradient walks
        walks = self._count_walks(monkeypatch)
        q = relax(parse_problem(INSTABILITY_ONE), 0.1).problem
        search_stationary_points(q, (-1.0, 2.0))
        assert walks[False] <= 250
        assert walks[True] == 156

    def test_wide_batches_keep_their_walks(self, monkeypatch):
        # mid3's first batch holds 1000 lanes, more than a first damping walk
        # holds rows, so it still tries one factor first
        walks = self._count_walks(monkeypatch)
        search_stationary_points(parse_problem(MID3), (-2.0, 2.0))
        assert walks == {False: 105, True: 81}


# a switching pair whose members differ by 3e-11: pinning both leaves the
# residual 1.5e-11 at best, within the default tol_resid
NEAR_MISS = """\
vars: x1 x2
objective: (x1-1)^2 + x2^2
switch: x1 | x1 - 3e-11
"""


def _forms(p, radius=RADIUS):
    """Every slot with its affine form at ``radius``, as the search computes
    them."""
    return [
        (s, _affine_form(_slot_expr(p, s), p.n, radius)) for s in _problem_slots(p)
    ]


def _inflated(box, cfg=CFG):
    """The search's inflated box for ``box``: the filter's bounds."""
    lo, hi = box
    pad = cfg.box_inflation * (hi - lo)
    return lo - pad, hi + pad


def _certified(p, lo=-RADIUS, hi=RADIUS, cfg=CFG):
    """The patterns _branch_empty certifies in the inflated box [lo, hi]
    (each a float or one float per axis), with the forms taken at the radius
    of that box, as the search takes them."""
    radius = float(max(np.abs(lo).max(), np.abs(hi).max()))
    rows = _certificate_rows(p, _forms(p, radius), lo, hi, cfg)
    return {q for q in enumerate_branches(p, cfg) if _branch_empty(q, rows)}


def _rewrite_constraints(text, rewrite):
    """``text`` with the k-th constraint function (equalities, inequalities
    and switching members in file order) replaced by ``rewrite(k, body)``."""
    lines, k = [], 0
    for line in text.splitlines():
        key, _, body = line.partition(":")
        if key in ("eq", "ineq", "switch"):
            members = []
            for member in body.split("|"):
                members.append(rewrite(k, member.strip()))
                k += 1
            line = f"{key}: " + " | ".join(members)
        lines.append(line)
    return "\n".join(lines) + "\n"


# each transform returns the moved text, the inflated box that corresponds to
# (-RADIUS, RADIUS) per axis, and the map from a pattern to its moved pattern

def _scaled(factors):
    def transform(text):
        def scale(k, body):
            return f"{factors[k % len(factors)]}*({body})"

        return _rewrite_constraints(text, scale), (-RADIUS, RADIUS), lambda q: q

    return transform


def _permuted(text):
    # the same expressions over reordered unknowns
    return (text.replace("vars: x1 x2 x3", "vars: x3 x1 x2"), (-RADIUS, RADIUS),
            lambda q: q)


def _pairs_reversed(text):
    lines = text.splitlines()
    switch = [line for line in lines if line.startswith("switch:")][::-1]
    lines = [switch.pop(0) if line.startswith("switch:") else line for line in lines]
    return (
        "\n".join(lines) + "\n",
        (-RADIUS, RADIUS),
        lambda q: BranchPattern(q.switches[::-1], q.actives),
    )


def _members_swapped(text):
    def swap(line):
        if not line.startswith("switch:"):
            return line
        first, second = line[len("switch:"):].split("|")
        return f"switch: {second.strip()} | {first.strip()}"

    flip = {"S1": "S2", "S2": "S1", "BOTH": "BOTH"}
    return (
        "\n".join(swap(line) for line in text.splitlines()) + "\n",
        (-RADIUS, RADIUS),
        lambda q: BranchPattern(tuple(flip[s] for s in q.switches), q.actives),
    )


def _translated(text):
    # x -> x - t moves every point, and the box with it, by t
    shift = {"1": "0.3", "2": "-0.7", "3": "1.25"}
    moved = re.sub(
        r"x(\d)", lambda m: f"(x{m.group(1)} - {shift[m.group(1)]})",
        text.split("\n", 1)[1],
    )
    t = np.array([float(shift[k]) for k in "123"])
    return (text.split("\n", 1)[0] + "\n" + moved, (t - RADIUS, t + RADIUS),
            lambda q: q)


def _corpus():
    """``(text, grid_points)`` for the 100 problems of the criterion-7 corpus,
    read from ``perfbench/corpus.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(text, module.grid_points(text)) for text in module.corpus()]


class TestCertifiedPatterns:
    """The search does not solve a pattern whose branch polyhedron (pinned
    affine rows, unpinned affine inequalities, inflated box) _branch_empty
    certifies empty: none of its lanes gives a point the filter keeps."""

    def test_mid3_certifies_exactly_the_dead_patterns(self):
        p = parse_problem(MID3)
        starts = _grid_starts(p.n, (-2.0, 2.0), CFG)
        dead = {
            q for q in enumerate_branches(p)
            if all(newton_solve_branch(p, q, s) is None for s in starts)
        }
        assert len(dead) == 27
        assert _certified(p) == dead
        # (S2, S1) pins both x2 and x2 - 0.5
        assert BranchPattern(("S2", "S1"), (False, False)) in dead

    def test_function_pinned_twice_is_not_certified(self):
        # (S2, S1) pins x2 twice: consistent and singular, and the
        # least-squares steps still converge (test_singular_jacobian_flag)
        p = parse_problem(CHAINED_SWITCHES)
        assert _certified(p) == set()

    def test_near_miss_is_not_certified(self):
        # the pins miss by 3e-11, within 2 tol_resid = 2e-10: every lane of
        # the pattern converges through the least-squares step, as
        # single-start
        p = parse_problem(NEAR_MISS)
        both = BranchPattern(("BOTH",), ())
        assert both not in _certified(p)
        starts = _grid_starts(p.n, (-2.0, 2.0), CFG)
        diag = {}
        outs = _newton_solve_patterns(p, [both], starts, CFG, diag)[0]
        assert all(out is not None for out in outs)
        assert diag == {"singular_jacobian": len(starts)}
        for start, out in zip(starts, outs):
            ref = newton_solve_branch(p, both, start, CFG)
            assert _outcome_bits(out) == _outcome_bits(ref)
        # and a tolerance below half the miss certifies it
        assert both in _certified(p, cfg=SolveConfig(tol_resid=1e-11))

    def test_constant_member_and_nonaffine_pins(self):
        # a pinned nonzero constant is inconsistent on its own; the nonaffine
        # x2^2 - 1 takes no part, so pinning it with x2 is not certified
        p = parse_problem(
            "vars: x1 x2\nobjective: x1^2 + x2^2\n"
            "switch: 2/4 | x1\nswitch: x2^2 - 1 | x2\n"
        )
        assert _certified(p) == {
            q for q in enumerate_branches(p) if q.switches[0] in ("S1", "BOTH")
        }

    def test_rounding_bound_keeps_a_margin(self):
        # in exact arithmetic (x1 + 1)*fl(1/3)*3 - 1 and x1 have no common
        # zero, but the float walk gives both 0.0 at x1 = 0: the rounding
        # bound must keep the pattern uncertified even at tol_resid = 0, and
        # its lane from x1 = 0 converges there
        p = parse_problem(
            "vars: x1\nobjective: x1^2\nswitch: (x1 + 1)*(1/3)*3 - 1 | x1\n"
        )
        (a1,), b1, _, _ = _affine_form(p.switches[0][0], 1, RADIUS)
        (a2,), b2, _, _ = _affine_form(p.switches[0][1], 1, RADIUS)
        assert a1 * b2 - a2 * b1 != 0
        both = BranchPattern(("BOTH",), ())
        cfg = SolveConfig(tol_resid=0.0)
        assert both not in _certified(p, cfg=cfg)
        starts = _grid_starts(p.n, (-2.0, 2.0), cfg)
        outs = _newton_solve_patterns(p, [both], starts, cfg)[0]
        assert [_outcome_bits(out) for out in outs] == [
            _outcome_bits(newton_solve_branch(p, both, s, cfg)) for s in starts
        ]
        assert starts[2].tolist() == outs[2][0].tolist() == [0.0]

    @pytest.mark.parametrize(
        "text, cfg",
        [(MID3, CFG), (NARROW, SolveConfig(grid_points=2))],
        ids=["mid3", "narrow"],
    )
    def test_search_certifies_each_pattern_once(self, monkeypatch, text, cfg):
        # one affine form per slot at the search's radius, one set of rows
        # in the filter's box, one certificate per pattern, and the solver
        # gets the uncertified patterns in order
        p = parse_problem(text)
        walked, built, checked, solved = [], [], [], []
        affine_form = stationarity._affine_form
        certificate_rows = stationarity._certificate_rows
        branch_empty = stationarity._branch_empty
        solve = stationarity._newton_solve_patterns

        def walk(e, n, radius):
            walked.append((e, radius))
            return affine_form(e, n, radius)

        def build(p, forms, lo, hi, cfg):
            built.append((lo, hi))
            return certificate_rows(p, forms, lo, hi, cfg)

        def certify(q, rows):
            checked.append((q, id(rows)))
            return branch_empty(q, rows)

        def solver(p, patterns, *args):
            solved.extend(patterns)
            return solve(p, patterns, *args)

        monkeypatch.setattr(stationarity, "_affine_form", walk)
        monkeypatch.setattr(stationarity, "_certificate_rows", build)
        monkeypatch.setattr(stationarity, "_branch_empty", certify)
        monkeypatch.setattr(stationarity, "_newton_solve_patterns", solver)
        res = search_stationary_points(p, (-2.0, 2.0), cfg)
        slots = _problem_slots(p)
        assert len(walked) == len(slots)
        assert all(e is _slot_expr(p, s) for (e, _), s in zip(walked, slots))
        assert {radius for _, radius in walked} == {RADIUS}
        assert built == [(-RADIUS, RADIUS)]
        assert [q for q, _ in checked] == enumerate_branches(p, cfg)
        assert len({rows for _, rows in checked}) == 1
        certified = _certified(p, cfg=cfg)
        assert solved == [q for q, _ in checked if q not in certified]
        assert res.diagnostics["inconsistent_patterns"] == len(certified) > 0

    @pytest.mark.parametrize(
        "text, cfg, box",
        [(MID3, CFG, (-2.0, 2.0)), (NARROW, CFG, (-2.0, 2.0)),
         (NARROW, SolveConfig(grid_points=2), (-2.0, 2.0)),
         (CORPUS_P017, SolveConfig(grid_points=3), (-2.0, 2.0)),
         (CORPUS_P024, SolveConfig(grid_points=2), (-2.0, 2.0)),
         (CORPUS_P084, SolveConfig(grid_points=3), (-2.0, 2.0)),
         (CORPUS_P024, SolveConfig(grid_points=3), (-1.0, 2.0))],
        ids=["mid3", "narrow", "narrow-grid2", "corpus-p017", "corpus-p024",
             "corpus-p084", "corpus-p024-box"],
    )
    def test_skipping_certified_patterns_drops_nothing(
        self, monkeypatch, text, cfg, box
    ):
        p = parse_problem(text)
        lo, hi = _inflated(box, cfg)
        certified = [
            q for q in enumerate_branches(p, cfg) if q in _certified(p, lo, hi, cfg)
        ]
        assert certified
        skipped = search_stationary_points(p, box, cfg)
        monkeypatch.setattr(stationarity, "_branch_empty", lambda *a: False)
        every = search_stationary_points(p, box, cfg)
        # repr tells -0.0 from 0.0 and prints every float exactly; a point's
        # repr holds its multipliers and source pattern
        assert repr(skipped.points) == repr(every.points)
        assert repr(skipped.rejected_sign) == repr(every.rejected_sign)
        for key in ("residual_rejected", "dropped_complementarity",
                    "rejected_sign_candidates", "duplicates"):
            assert skipped.diagnostics[key] == every.diagnostics[key]
        assert skipped.diagnostics["inconsistent_patterns"] == len(certified)
        assert every.diagnostics["inconsistent_patterns"] == 0
        # solved anyway, every converged lane of a certified pattern is
        # dropped as outside the box or infeasible
        starts = _grid_starts(p.n, box, cfg)
        X = [
            out[0]
            for outs in _newton_solve_patterns(p, certified, starts, cfg)
            for out in outs if out is not None
        ]
        verdicts = stationarity._accept_verdicts(
            p, np.array(X).reshape(-1, p.n), lo, hi, cfg
        )
        assert {v.kind for v in verdicts} <= {"box", "infeasible"}

    @pytest.mark.parametrize("text", [MID3, NARROW], ids=["mid3", "narrow"])
    @pytest.mark.parametrize(
        "transform",
        [_scaled(("1e6", "1e-6")), _scaled(("1e-6", "1e6")), _permuted,
         _pairs_reversed, _members_swapped, _translated],
        ids=["scaled-up-down", "scaled-down-up", "permuted", "pairs-reversed",
             "members-swapped", "translated"],
    )
    def test_certified_set_is_invariant(self, text, transform):
        base = _certified(parse_problem(text))
        assert 0 < len(base) < len(enumerate_branches(parse_problem(text)))
        moved, (lo, hi), relabel = transform(text)
        assert moved != text
        certified = _certified(parse_problem(moved), lo, hi)
        assert {relabel(q) for q in certified} == base

    def test_corpus_searches_are_unchanged(self, monkeypatch):
        # the 100 criterion-7 problems at their grid_points, with and without
        # the certificate: about 4 s on 2 vCPUs
        problems = [
            (parse_problem(text), SolveConfig(grid_points=g))
            for text, g in _corpus()
        ]
        skipped = [search_stationary_points(p, (-2.0, 2.0), cfg)
                   for p, cfg in problems]
        monkeypatch.setattr(stationarity, "_branch_empty", lambda *a: False)
        every = [search_stationary_points(p, (-2.0, 2.0), cfg)
                 for p, cfg in problems]
        for a, b in zip(skipped, every):
            assert repr(a.points) == repr(b.points)
            assert repr(a.rejected_sign) == repr(b.rejected_sign)
            for key in ("residual_rejected", "rejected_sign_candidates",
                        "duplicates"):
                assert a.diagnostics[key] == b.diagnostics[key]
            _assert_outcomes_sum(a)
            _assert_outcomes_sum(b)
        total = sum(r.diagnostics["inconsistent_patterns"] for r in skipped)
        assert total == 508


# pins x1 = c and x2 = 0 (the pattern BOTH)
def _pinned_at(c):
    return parse_problem(
        f"vars: x1 x2\nobjective: (x1-3)^2 + x2^2\nswitch: x1 - ({c!r}) | x2\n"
    )


class TestBranchEmpty:
    """Unit cases of the certificate in the inflated box [-2.4, 2.4]^n."""

    BOTH = BranchPattern(("BOTH",), ())

    @pytest.mark.parametrize(
        "c, empty",
        [(RADIUS, False), (-RADIUS, False),
         (RADIUS + 2e-10, True), (-RADIUS - 2e-10, True)],
        ids=["upper-face", "lower-face", "above", "below"],
    )
    def test_pins_meeting_at_a_point_and_the_box(self, c, empty):
        # the filter's box is closed, so a point on a face is kept; beyond
        # tol_resid plus the rounding bound outside it, none is
        assert (self.BOTH in _certified(_pinned_at(c))) is empty

    @pytest.mark.parametrize("outside, empty", [(0, False), (1, True)])
    @pytest.mark.parametrize("kind", ["pins", "inequality"])
    def test_box_face_touching_a_row_is_exact(self, kind, outside, empty):
        # x1 has no rounding, so pinning it leaves |x1| <= t = _up(tol_resid)
        # and the unpinned x1 >= 0 leaves x1 >= -_up(tol_feas); the box's
        # upper face x1 = hi touches that at hi = -t and misses it one float
        # below
        if kind == "pins":
            text, q, tol = "switch: x1 | x2", self.BOTH, CFG.tol_resid
        else:
            text, q, tol = "ineq: x1", BranchPattern((), (False,)), CFG.tol_feas
        p = parse_problem(f"vars: x1 x2\nobjective: x1^2 + x2^2\n{text}\n")
        hi = -math.nextafter(tol, math.inf)
        for _ in range(outside):
            hi = math.nextafter(hi, -math.inf)
        assert (q in _certified(p, (-1.0, -1.0), (hi, 1.0))) is empty

    @pytest.mark.parametrize("miss, empty", [(0.9e-8, False), (1.1e-8, True)])
    def test_unpinned_inequality_margin(self, miss, empty):
        # x1 = 0 is pinned and x1 >= miss is not: the filter keeps values
        # down to -tol_feas = -1e-8
        p = parse_problem(
            f"vars: x1 x2\nobjective: x1^2 + x2^2\neq: x1\nineq: x1 - {miss!r}\n"
        )
        inactive = BranchPattern((), (False,))
        assert (inactive in _certified(p)) is empty
        # pinning both x1 and x1 - miss misses by far more than tol_resid
        assert BranchPattern((), (True,)) in _certified(p)

    @pytest.mark.parametrize(
        "ineq, certified", [("-x1^2 - 1", False), ("-x1 - 3", True)],
        ids=["nonaffine", "affine"],
    )
    def test_nonaffine_inequality_takes_no_part(self, ineq, certified):
        # both inequalities fail everywhere in the box, but only an affine
        # one is a row of the certificate
        p = parse_problem(
            f"vars: x1 x2\nobjective: x1^2 + x2^2\nineq: {ineq}\nswitch: x1 | x2\n"
        )
        patterns = set(enumerate_branches(p))
        assert _certified(p) == (patterns if certified else set())

    def test_row_cap(self, monkeypatch):
        # x1 + x2 + x3 >= 7.3 misses the box, whose corner gives 7.2; the
        # elimination holds 3 rows after its first variable
        p = parse_problem(
            "vars: x1 x2 x3\nobjective: x1^2 + x2^2 + x3^2\n"
            "ineq: x1 + x2 + x3 - 7.3\n"
        )
        inactive = BranchPattern((), (False,))
        assert inactive in _certified(p)
        res = search_stationary_points(p, (-2.0, 2.0))
        monkeypatch.setattr(stationarity, "_ROW_CAP", 2)
        assert inactive not in _certified(p)
        capped = search_stationary_points(p, (-2.0, 2.0))
        assert repr(capped.points) == repr(res.points)
        assert repr(capped.rejected_sign) == repr(res.rejected_sign)
        assert (capped.diagnostics["inconsistent_patterns"]
                == res.diagnostics["inconsistent_patterns"] - 1)


class TestSearchDiagnostics:
    def test_mid3(self):
        res = search_stationary_points(parse_problem(MID3), (-2.0, 2.0))
        assert res.diagnostics == {
            "solves": 4500,
            "converged": 1125,
            "singular_jacobian": 0,
            "inconsistent_patterns": 27,
            "residual_rejected": 0,
            "dropped_box": 0,
            "dropped_infeasible": 0,
            "dropped_complementarity": 0,
            "rejected_sign_candidates": 500,
            "duplicates": 620,
        }
        assert len(res.points) == 5
        assert len(res.rejected_sign) == 4

    def test_corpus_problem_with_36_patterns(self):
        p = parse_problem(CORPUS_P024)
        assert len(enumerate_branches(p)) == 36
        res = search_stationary_points(p, (-2.0, 2.0), SolveConfig(grid_points=2))
        assert res.diagnostics == {
            "solves": 288,
            "converged": 48,
            "singular_jacobian": 0,
            "inconsistent_patterns": 30,
            "residual_rejected": 0,
            "dropped_box": 12,
            "dropped_infeasible": 8,
            "dropped_complementarity": 0,
            "rejected_sign_candidates": 8,
            "duplicates": 17,
        }
        assert len(res.points) == 3
        assert len(res.rejected_sign) == 1

    @pytest.mark.parametrize(
        "grid, starts, converged, singular",
        [(5, 125, 500, 23), (2, 8, 32, 9)],
        ids=["grid5", "grid2"],
    )
    def test_narrow(self, grid, starts, converged, singular):
        # 28 of the 36 patterns are certified and not solved
        p = parse_problem(NARROW)
        res = search_stationary_points(
            p, (-2.0, 2.0), SolveConfig(grid_points=grid)
        )
        assert res.diagnostics == {
            "solves": 36 * starts,
            "converged": converged,
            "singular_jacobian": singular,
            "inconsistent_patterns": 28,
            "residual_rejected": 0,
            "dropped_box": 0,
            "dropped_infeasible": 0,
            "dropped_complementarity": 0,
            "rejected_sign_candidates": 0,
            "duplicates": converged - 4,
        }
        assert len(res.points) == 4
        assert res.rejected_sign == []

    def test_levelsets_3d_problem(self):
        res = search_stationary_points(parse_problem(LEVELSETS_3D), (-2.0, 2.0))
        assert res.diagnostics == {
            "solves": 375,
            "converged": 375,
            "singular_jacobian": 0,
            "inconsistent_patterns": 0,
            "residual_rejected": 0,
            "dropped_box": 0,
            "dropped_infeasible": 0,
            "dropped_complementarity": 0,
            "rejected_sign_candidates": 0,
            "duplicates": 360,
        }
        assert len(res.points) == 15


def _reference_verdict(p, x, lo, hi, cfg):
    """The accept filter on one candidate by scalar tree walks at ``x`` alone,
    with feasibility and complementarity folded by Python's ``max``: the
    filter the batched :func:`stationarity._accept_verdicts` replaced, each
    of its drops labelled by its reason.  A nan feasibility term is
    infeasible, as an undefined constraint is."""
    if np.any(x < lo) or np.any(x > hi):
        return stationarity._Verdict("box")
    xl = [float(v) for v in x]
    infeasible = stationarity._Verdict("infeasible")
    try:
        terms = [abs(h.val(xl)) for h in p.equalities]
        terms += [-g.val(xl) for g in p.inequalities]
        terms += [abs(f1.val(xl) * f2.val(xl)) for f1, f2 in p.switches]
    except EvalDomainError:
        return infeasible
    feas = 0.0  # never falls, so -g stands for max(0, -g)
    for t in terms:
        feas = max(feas, t)
    if any(math.isnan(t) for t in terms) or feas > cfg.tol_feas:
        return infeasible
    tol = cfg.tol_active
    j0 = tuple(j for j, g in enumerate(p.inequalities) if abs(g.val(xl)) <= tol)
    zero = [(abs(f1.val(xl)) <= tol, abs(f2.val(xl)) <= tol) for f1, f2 in p.switches]
    idx = IndexSets(
        j0,
        tuple(m for m, (z1, z2) in enumerate(zero) if z1 and not z2),
        tuple(m for m, (z1, z2) in enumerate(zero) if z1 and z2),
        tuple(m for m, (z1, z2) in enumerate(zero) if z2 and not z1),
    )
    slots = _active_slots(p, idx)
    try:
        G = _gradient_rows(p, x, slots)
    except EvalDomainError:
        return infeasible
    licq = rank(G, cfg.lin) == G.shape[0]
    mult, error = stationarity._multiplier_rule(
        p, eval_gradient(p.objective, x), slots, G, licq, cfg
    )
    if any(mj < -cfg.tol_sign for mj in mult.mu):
        return stationarity._Verdict("sign", mult, idx)
    if error is not None:
        return stationarity._Verdict("residual")
    weighted = list(stationarity._weighted_slots(p, mult))
    comp = 0.0
    for (kind, _), c, y in weighted:
        if kind != "lam":
            comp = max(comp, abs(y * c.val(xl)))
    resid = max(feas, comp, max([0.0] + [-mu for mu in mult.mu]))
    acc = list(p.objective.val_grad(xl)[1])
    for _, c, y in weighted:
        g = c.val_grad(xl)[1]
        for t in range(p.n):
            acc[t] -= y * g[t]
    resid = max(resid, max(abs(a) for a in acc))
    if licq and resid > cfg.tol_resid:
        return stationarity._Verdict("residual")
    if comp > cfg.tol_comp:
        return stationarity._Verdict("complementarity")
    if resid > cfg.tol_resid:
        return stationarity._Verdict("residual")
    return stationarity._Verdict("accept", mult, idx, resid, licq)


def _verdict_bits(v):
    """A verdict's fields as exact text and bytes: repr tells -0.0 from 0.0
    and prints every float exactly."""
    return (v.kind, repr(v.mult), repr(v.idx), type(v.resid),
            np.float64(v.resid).tobytes(), v.licq)


def _filter_calls(monkeypatch):
    """Record each run of the accept filter from here on: its arguments and
    its verdicts."""
    calls = []
    verdicts = stationarity._accept_verdicts

    def spy(*args):
        out = verdicts(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(stationarity, "_accept_verdicts", spy)
    return calls


def _assert_calls_match_reference(calls):
    for (p, X, lo, hi, cfg), out in calls:
        assert len(out) == len(X)
        for x, v in zip(X, out):
            assert _verdict_bits(v) == _verdict_bits(
                _reference_verdict(p, x, lo, hi, cfg)
            ), x


# every way a converged candidate can leave the search but as a point
_OUTCOMES = ("dropped_box", "dropped_infeasible", "dropped_complementarity",
             "residual_rejected", "rejected_sign_candidates", "duplicates")


def _assert_outcomes_sum(res):
    diag = res.diagnostics
    assert sum(diag[k] for k in _OUTCOMES) + len(res.points) == diag["converged"]
    assert diag["rejected_sign_candidates"] >= len(res.rejected_sign)


class TestAcceptFilterOncePerX:
    """The accept filter runs once per search on the bitwise-distinct
    candidates, with the verdicts of the scalar filter, and the search
    result is the one of filtering every candidate."""

    @pytest.mark.parametrize(
        "text, cfg",
        [
            (MID3, SolveConfig()),
            (MID3, SolveConfig(seed=7)),
            (CROSS_LINEAR, SolveConfig()),
            (CROSS_QUADRATIC, SolveConfig()),
            (INSTABILITY_BOTH, SolveConfig()),
            (INSTABILITY_ONE, SolveConfig()),
            (STABLE_WITHOUT_ND2, SolveConfig()),
            (LEVELSETS_3D, SolveConfig()),
            (CORPUS_P024, SolveConfig(grid_points=2)),
            (CORPUS_P076, SolveConfig(grid_points=2, tol_resid=1e-13)),
        ],
        ids=["mid3", "mid3-seed7", "cross_linear", "cross_quadratic",
             "instability_both", "instability_one", "stable_without_nd2",
             "levelsets-3d", "corpus-p024", "corpus-p076-tight"],
    )
    def test_verdicts_equal_the_scalar_filter(self, monkeypatch, text, cfg):
        calls = _filter_calls(monkeypatch)
        res = search_stationary_points(parse_problem(text), (-2.0, 2.0), cfg)
        assert len(calls) == 1
        X = calls[0][0][1]
        assert len({x.tobytes() for x in X}) == len(X)
        _assert_calls_match_reference(calls)
        assert res.points or res.rejected_sign
        _assert_outcomes_sum(res)

    def test_tight_residual_rejection_is_counted(self):
        cfg = SolveConfig(grid_points=2, tol_resid=1e-13)
        res = search_stationary_points(parse_problem(CORPUS_P076), (-2.0, 2.0), cfg)
        assert res.diagnostics["residual_rejected"] == 1

    def test_mid3_makes_one_filter_call_with_493_rows(self, monkeypatch):
        calls = _filter_calls(monkeypatch)
        res = search_stationary_points(parse_problem(MID3), (-2.0, 2.0))
        assert res.diagnostics["converged"] == 1125
        assert [args[1].shape for args, _ in calls] == [(493, 3)]

    @staticmethod
    def _lanes_at(monkeypatch, xs):
        """Make the search's Newton solver return one converged lane per row
        of ``xs``, all from the first pattern, and no other."""

        def fake(p, patterns, starts, cfg, diagnostics):
            zero = _multipliers_from_slots(p, [], [])
            out = [[None] * len(starts) for _ in patterns]
            out[0][:len(xs)] = [(np.array(x, dtype=float), zero) for x in xs]
            return out

        monkeypatch.setattr(stationarity, "_newton_solve_patterns", fake)

    def test_repeats_count_every_residual_rejection(self, monkeypatch, cross_quadratic):
        # (0, 0.5) is feasible but not stationary: the objective gradient
        # (-2, -1) has a component along x2, which carries no multiplier
        self._lanes_at(monkeypatch, [(0.0, 0.5)] * 3)
        calls = _filter_calls(monkeypatch)
        res = search_stationary_points(cross_quadratic, (-2.0, 2.0))
        assert res.diagnostics["converged"] == 3
        assert res.diagnostics["residual_rejected"] == 3
        assert res.points == [] and res.rejected_sign == []
        assert [len(out) for _, out in calls] == [1]
        _assert_calls_match_reference(calls)

    def test_signed_zeros_are_distinct_candidates(self, monkeypatch, cross_quadratic):
        self._lanes_at(monkeypatch, [(0.0, 1.0), (-0.0, 1.0), (0.0, 1.0)])
        calls = _filter_calls(monkeypatch)
        res = search_stationary_points(cross_quadratic, (-2.0, 2.0))
        assert [len(out) for _, out in calls] == [2]
        assert [pt.x for pt in res.points] == [(0.0, 1.0)]
        assert res.diagnostics["duplicates"] == 2
        _assert_calls_match_reference(calls)

    @pytest.mark.parametrize(
        "text, xs, kinds",
        [
            # outside the box inflated to [-2.4, 2.4], and on its edge, which
            # is inside
            (CROSS_QUADRATIC, [(2.5, 0.0), (0.0, -2.41), (-2.0 - 0.1 * 4.0, 0.0)],
             ["box", "box", "residual"]),
            # x2 + 1e-8 is exactly tol_active at x2 = 0, so it is active and
            # needs the negative multiplier -1
            ("vars: x1 x2\nobjective: x1^2 - x2\nineq: x2 + 0.00000001\n",
             [(0.0, 0.0)], ["sign"]),
            # log(x1) is undefined at x1 <= 0
            ("vars: x1 x2\nobjective: x1^2 + x2^2\nineq: log(x1 + 1)\n",
             [(-1.0, 0.0), (0.0, 0.0)], ["infeasible", "accept"]),
            # x2*x1^(-1) is 0 at (1e-300, 0) but its gradient overflows: the
            # point is dropped where the constraint is active, judged where
            # it is not
            ("vars: x1 x2\nobjective: x1^2 + x2^2\nineq: x2*x1^(-1)\n",
             [(1e-300, 0.0)], ["infeasible"]),
            ("vars: x1 x2\nobjective: x1^2 + x2^2\nineq: x2*x1^(-1) + 1\n",
             [(1e-300, 0.0)], ["accept"]),
            # a nan constraint value (inf - inf) is infeasible, as an
            # undefined one is
            ("vars: x1 x2\nobjective: x2^2\n"
             "ineq: (10^300*x1)*(10^300*x1) - (10^300*x1)*(10^300*x1)\n",
             [(1.0, 0.0)], ["infeasible"]),
            # max(0.0, -0.0) is 0.0, so the residual is +0.0 at every sign
            (STABLE_WITHOUT_ND2, [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)],
             ["accept"] * 3),
            # two copies of an inequality that is 1e-9 and active at the
            # origin: LICQ fails, the least-squares multipliers are 20 each,
            # and 20 * 1e-9 exceeds tol_comp
            ("vars: x1 x2\nobjective: x1^2 + 40*x2\n"
             "ineq: x2 + 0.000000001\nineq: x2 + 0.000000001\n",
             [(0.0, 0.0)], ["complementarity"]),
            # a negative inequality multiplier
            ("vars: x1 x2\nobjective: x2 + x1^2\nineq: 0 - x2\n",
             [(0.0, 0.0)], ["sign"]),
        ],
        ids=["box", "activity-edge", "undefined-value", "undefined-gradient-active",
             "undefined-gradient-inactive", "nan-value", "signed-zeros",
             "complementarity", "sign"],
    )
    def test_fabricated_lanes_equal_the_scalar_filter(
        self, monkeypatch, text, xs, kinds
    ):
        self._lanes_at(monkeypatch, xs)
        calls = _filter_calls(monkeypatch)
        res = search_stationary_points(parse_problem(text), (-2.0, 2.0))
        assert [v.kind for v in calls[0][1]] == kinds
        _assert_calls_match_reference(calls)
        _assert_outcomes_sum(res)

    def test_undefined_objective_gradient_raises(self, monkeypatch):
        # the objective is 0 at (1e-300, 0), its gradient overflows; the
        # scalar filter raised the same error
        p = parse_problem("vars: x1 x2\nobjective: x2*x1^(-1)\nineq: x1 + 1\n")
        self._lanes_at(monkeypatch, [(1e-300, 0.0)])
        with pytest.raises(EvalDomainError) as raised:
            search_stationary_points(p, (-2.0, 2.0))
        with pytest.raises(EvalDomainError) as expected:
            _reference_verdict(p, np.array([1e-300, 0.0]), -2.4, 2.4, CFG)
        assert str(raised.value) == str(expected.value)


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


def _system_outcome(fn, *args):
    """EvalDomainError when ``fn`` raises it, else the bytes of the array it
    returns, with every nan made the same nan; any other exception
    propagates."""
    try:
        with np.errstate(all="ignore"):
            a = np.array(fn(*args), dtype=float)
    except EvalDomainError:
        return EvalDomainError
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def _check_branch_code(objective, cons, n, Z):
    """The compiled residual and Jacobian of a branch system against
    _branch_system's residual without ``hess`` and Jacobian with it at every
    row of ``Z``: the same failures and the same bits; returns how many rows
    failed."""
    shape, consts = _branch_shape(objective, cons, n)
    residual, jacobian = _branch_code(shape)

    def system(z, hess):
        r, J = _branch_system(objective, cons, z, n, hess)
        return J if hess else r

    raised = 0
    for z in np.asarray(Z, dtype=float):
        ref = _system_outcome(system, z, False)
        assert _system_outcome(residual, z.tolist(), consts) == ref, z
        ref_jac = _system_outcome(system, z, True)
        assert _system_outcome(jacobian, z.tolist(), consts) == ref_jac, z
        raised += not isinstance(ref, bytes)
    return raised


def _branch_points(rng, n, m, xs, count):
    """``count`` rows z = (x, y) with x drawn from ``xs`` and multipliers
    from signed zeros and nonzero values."""
    ys = [0.0, -0.0, 1.5, -2.0, 0.0]
    return [
        [float(rng.choice(xs)) for _ in range(n)]
        + [float(rng.choice(ys)) for _ in range(m)]
        for _ in range(count)
    ]


EXAMPLES = [CROSS_LINEAR, CROSS_QUADRATIC, INSTABILITY_BOTH, INSTABILITY_ONE,
            STABLE_WITHOUT_ND2]
EXAMPLE_IDS = ["cross_linear", "cross_quadratic", "instability_both",
               "instability_one", "stable_without_nd2"]


class TestBranchCode:
    """newton_solve_branch's compiled residual and Jacobian are the tree
    methods' _branch_system, bit for bit."""

    def test_random_branch_systems(self):
        rng = np.random.default_rng(24)
        xs = [0.7, -1.2, 0.0, -0.0, 2.0, 1e-160, -2.5, 710.0, 1e200, np.inf,
              np.nan, 0.5, -1.0, 1.0]
        raised = 0
        for _ in range(120):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 4))
            objective = _random_tree(rng, n, 3)
            cons = [_random_tree(rng, n, 3) for _ in range(m)]
            Z = _branch_points(rng, n, m, xs, 12)
            raised += _check_branch_code(objective, cons, n, Z)
        assert raised > 100

    @pytest.mark.parametrize("text", FOLDS_TO_A_DOMAIN_ERROR)
    def test_pinned_values_folding_from_zeroth_powers(self, text):
        names = {"x1": 0, "x2": 1}
        objective = parse_expression("x1^2 + x2^2", names)
        cons = [parse_expression(text, names)]
        Z = [[0.5, -1.0, 0.0], [2.0, 0.0, 1.5]]
        assert _check_branch_code(objective, cons, 2, Z) == len(Z)
        p = parse_problem(f"vars: x1 x2\nobjective: x1^2 + x2^2\neq: {text}\n")
        (pattern,) = enumerate_branches(p)
        assert newton_solve_branch(p, pattern, [0.5, -1.0]) is None

    def test_an_unread_value_that_overflows_still_raises(self):
        # the residual reads the objective's gradient 3e206, not its value,
        # whose power overflows: the walk raises, so the code must
        names = {"x1": 0, "x2": 1}
        objective = parse_expression("x1^3", names)
        cons = [parse_expression("x2", names)]
        Z = [[1e103, 0.0, 0.0], [1e102, 1.0, 1.5]]
        assert _check_branch_code(objective, cons, 2, Z) == 1

    @pytest.mark.parametrize("text", EXAMPLES + [MID3], ids=EXAMPLE_IDS + ["mid3"])
    def test_every_temporary_is_read(self, text):
        # the tree walks also give values a function does not return and
        # the Hessian below its diagonal, which the branch code never reads
        p = parse_problem(text)
        for q in (p, relax(p, 0.1).problem):
            for pattern in enumerate_branches(q):
                cons = [_slot_expr(q, s) for s in _pattern_slots(q, pattern)]
                shape, _ = _branch_shape(q.objective, cons, q.n)
                for fn in ast.parse(_branch_program(shape).source()).body:
                    names = [a for a in ast.walk(fn) if isinstance(a, ast.Name)]
                    stored = {a.id for a in names if isinstance(a.ctx, ast.Store)}
                    read = {a.id for a in names if isinstance(a.ctx, ast.Load)}
                    unread = {a for a in stored - read if re.fullmatch(r"t\d+", a)}
                    assert not unread, (fn.name, pattern, sorted(unread))

    @pytest.mark.parametrize("text", EXAMPLES, ids=EXAMPLE_IDS)
    def test_every_pattern_of_the_relaxed_examples(self, text):
        p = parse_problem(text)
        rng = np.random.default_rng(25)
        xs = [-1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 2.0, 0.1, -1e-9]
        for t in (0.1, 0.05, 1.6e-3):
            q = relax(p, t).problem
            for pattern in enumerate_branches(q):
                cons = [q.inequalities[j] for j, on in enumerate(pattern.actives)
                        if on]
                Z = _branch_points(rng, q.n, len(cons), xs, 20)
                assert _check_branch_code(q.objective, cons, q.n, Z) == 0

    @pytest.mark.parametrize(
        "text",
        EXAMPLES + [MID3, NARROW, TRANSCENDENTAL],
        ids=EXAMPLE_IDS + ["mid3", "narrow", "transcendental"],
    )
    def test_constants_never_reach_the_source(self, text):
        p = parse_problem(text)
        for t in (0.1, 0.05):
            q = relax(p, t).problem
            for pattern in enumerate_branches(q):
                cons = [_slot_expr(q, s) for s in _pattern_slots(q, pattern)]
                shape, consts = _branch_shape(q.objective, cons, q.n)
                source = _branch_program(shape).source()
                assert not re.search(r"\d\.|\.\d|\d[eE]", source)
                assert not any(repr(float(c)) in source for c in consts)

    def test_one_compile_per_pattern_along_a_path(self, monkeypatch,
                                                  cross_quadratic):
        seeds = kkt_points_relaxed(relax(cross_quadratic, 0.1), (-1.0, 2.0), CFG)
        patterns = []

        def spy(p, pattern, *args, **kwargs):
            patterns.append(pattern)
            return newton_solve_branch(p, pattern, *args, **kwargs)

        monkeypatch.setattr(relaxation, "newton_solve_branch", spy)
        _branch_code.cache_clear()
        continue_path(cross_quadratic, seeds[0], 0.1, 0.5, 1e-6, CFG)
        assert len(patterns) > 10
        assert _branch_code.cache_info().misses == len(set(patterns))

    @pytest.mark.parametrize(
        "r",
        [[1.0, -3.0], [-0.0, 0.0], [2.0, math.nan], [math.nan, 2.0],
         [0.5, -math.inf, 1.0], [math.inf, math.nan], [1e-300, -1e300, 7.0],
         [3.0]],
    )
    def test_max_norm_is_numpys(self, r):
        # a nan anywhere must reject a damping trial as numpy's max does
        ref = float(np.abs(np.array(r)).max(initial=0.0))
        assert repr(_max_norm(r)) == repr(ref)


def _residual_by_kind(p, x, mult):
    """The stationarity residual written one multiplier kind at a time, with
    its feasibility, complementarity and sign terms inline: the reference
    the slot-order residual must match bit for bit."""
    xl = [float(v) for v in x]
    n = p.n
    _, df = p.objective.val_grad(xl)
    acc = list(df)
    worst = 0.0
    for i, h in enumerate(p.equalities):
        lam = mult.lam[i]
        if lam != 0.0:
            _, gh = h.val_grad(xl)
            for t in range(n):
                acc[t] -= lam * gh[t]
        worst = max(worst, abs(h.val(xl)))
    for j, g in enumerate(p.inequalities):
        mu = mult.mu[j]
        gv = g.val(xl)
        if mu != 0.0:
            _, gg = g.val_grad(xl)
            for t in range(n):
                acc[t] -= mu * gg[t]
        worst = max(worst, max(0.0, -gv))
        worst = max(worst, abs(mu * gv))
        worst = max(worst, max(0.0, -mu))
    for m, (f1, f2) in enumerate(p.switches):
        v1 = f1.val(xl)
        v2 = f2.val(xl)
        s1v = mult.sigma1[m]
        s2v = mult.sigma2[m]
        if s1v != 0.0:
            _, g1 = f1.val_grad(xl)
            for t in range(n):
                acc[t] -= s1v * g1[t]
        if s2v != 0.0:
            _, g2 = f2.val_grad(xl)
            for t in range(n):
                acc[t] -= s2v * g2[t]
        worst = max(worst, abs(v1 * v2))
        worst = max(worst, abs(s1v * v1), abs(s2v * v2))
    return max(worst, max(abs(a) for a in acc) if acc else 0.0)


def _hessian_by_kind(p, x, mult):
    """The Lagrangian Hessian summed one multiplier kind at a time: the
    reference of classify.lagrangian_hessian."""
    H = eval_hessian(p.objective, x)
    for lam, h in zip(mult.lam, p.equalities):
        if lam != 0.0:
            H = H - lam * eval_hessian(h, x)
    for mu, g in zip(mult.mu, p.inequalities):
        if mu != 0.0:
            H = H - mu * eval_hessian(g, x)
    for m, (f1, f2) in enumerate(p.switches):
        if mult.sigma1[m] != 0.0:
            H = H - mult.sigma1[m] * eval_hessian(f1, x)
        if mult.sigma2[m] != 0.0:
            H = H - mult.sigma2[m] * eval_hessian(f2, x)
    return H


def _with_specials(p, mult):
    """``mult``, and copies of it with one slot, or every slot, set to 0.0,
    -0.0 and nan in turn."""
    slots = stationarity._problem_slots(p)
    y = _slot_values(mult, slots)
    out = [mult]
    for special in (0.0, -0.0, math.nan):
        for k in range(len(slots)):
            z = y.copy()
            z[k] = special
            out.append(_multipliers_from_slots(p, slots, z))
        out.append(_multipliers_from_slots(p, slots, np.full(len(slots), special)))
    return out


class TestSlotOrderSums:
    """stationarity_residual and lagrangian_hessian sum over the slots in
    the Newton unknown order and give the bits of summing kind by kind."""

    @staticmethod
    def _check(p, x, mult):
        assert repr(stationarity_residual(p, x, mult)) == repr(
            _residual_by_kind(p, x, mult)
        ), (x, mult)
        assert lagrangian_hessian(p, x, mult).tobytes() == (
            _hessian_by_kind(p, x, mult).tobytes()
        ), (x, mult)

    def test_every_converged_mid3_candidate(self):
        p = parse_problem(MID3)
        patterns = enumerate_branches(p)
        starts = _grid_starts(p.n, (-2.0, 2.0), CFG)
        outcomes = [
            out
            for outs in stationarity._newton_solve_patterns(
                p, patterns, starts, CFG
            )
            for out in outs
            if out is not None
        ]
        assert len(outcomes) == 1125
        for x, mult in outcomes:
            self._check(p, x, mult)

    @pytest.mark.parametrize(
        "text, cfg",
        [(text, CFG) for text in EXAMPLES]
        + [(CORPUS_P024, SolveConfig(grid_points=2)),
           (CORPUS_P076, SolveConfig(grid_points=2))],
        ids=EXAMPLE_IDS + ["corpus-p024", "corpus-p076"],
    )
    def test_accepted_points_with_special_multipliers(self, text, cfg):
        p = parse_problem(text)
        points = search_stationary_points(p, (-2.0, 2.0), cfg).points
        assert points
        for pt in points:
            for mult in _with_specials(p, pt.mult):
                self._check(p, pt.x, mult)
