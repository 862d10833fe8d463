"""Nondegeneracy, W-index, minimizer verdicts and strong stability."""

import json
import math
import re

import numpy as np
import pytest

from switchstat import linalg

from switchstat.classify import (
    ND3_FAILS,
    NONE,
    SIGN_MISMATCH,
    SINGULAR_SUBSET,
    NDReport,
    StabilityVerdict,
    SubsetCapError,
    SubsetResult,
    _restricted,
    check_nondegeneracy,
    check_strong_stability,
    classify_point,
    lagrangian_hessian,
    quadratic_index,
    tangent_basis,
)
from switchstat.expr import parse_problem
from switchstat.linalg import det_sign, inertia
from switchstat.stationarity import (
    InfeasiblePointError,
    LicqViolationError,
    Multipliers,
    SolveConfig,
    active_sets,
    check_licq,
    find_stationary_points,
    recover_multipliers,
)
from tests.conftest import (
    CROSS_LINEAR,
    CROSS_QUADRATIC,
    INSTABILITY_BOTH,
    INSTABILITY_ONE,
    STABLE_WITHOUT_ND2,
)

EXAMPLES = {
    "cross_linear": CROSS_LINEAR,
    "cross_quadratic": CROSS_QUADRATIC,
    "instability_both": INSTABILITY_BOTH,
    "instability_one": INSTABILITY_ONE,
    "stable_without_nd2": STABLE_WITHOUT_ND2,
}


def _point(p, x):
    idx = active_sets(p, x)
    mult = recover_multipliers(p, x)
    return mult, idx


class TestTangentBasis:
    def test_biactive_origin_trivial_space(self, cross_linear):
        idx = active_sets(cross_linear, (0.0, 0.0))
        V = tangent_basis(cross_linear, (0.0, 0.0), idx)
        assert V.shape == (2, 0)

    def test_gamma_branch_axis(self, cross_linear):
        idx = active_sets(cross_linear, (1.0, 0.0))
        V = tangent_basis(cross_linear, (1.0, 0.0), idx)
        assert V.shape == (2, 1)
        assert abs(abs(V[0, 0]) - 1.0) < 1e-14 and abs(V[1, 0]) < 1e-14

    def test_single_active_inequality_hyperplane(self, stable_without_nd2):
        idx = active_sets(stable_without_nd2, (0.0, 0.0))
        V = tangent_basis(stable_without_nd2, (0.0, 0.0), idx, j_star=(0,))
        assert V.shape == (2, 1)
        assert abs(abs(V[0, 0]) - 1.0) < 1e-14 and abs(V[1, 0]) < 1e-14

    def test_subset_validation(self, stable_without_nd2):
        idx = active_sets(stable_without_nd2, (0.0, 0.0))
        with pytest.raises(ValueError, match="subset"):
            tangent_basis(stable_without_nd2, (0.0, 0.0), idx, j_star=(3,))

    def test_licq_violation_raises(self):
        p = parse_problem(
            "vars: x1 x2\nobjective: x1\nineq: x1 + x2\nswitch: x1 | x2\n"
        )
        idx = active_sets(p, (0.0, 0.0))
        with pytest.raises(LicqViolationError):
            tangent_basis(p, (0.0, 0.0), idx)

    def test_one_rank_per_basis(self, monkeypatch, cross_linear):
        # the dependence test reads the rank the nullspace basis decided
        calls = []
        rank = linalg.rank

        def spy(*args):
            calls.append(args)
            return rank(*args)

        monkeypatch.setattr(linalg, "rank", spy)
        dependent = parse_problem(
            "vars: x1 x2\nobjective: x1\nineq: x1 + x2\nswitch: x1 | x2\n"
        )
        for p, x in [(cross_linear, (0.0, 0.0)), (cross_linear, (1.0, 0.0)),
                     (dependent, (0.0, 0.0))]:
            calls.clear()
            try:
                tangent_basis(p, x, active_sets(p, x))
            except LicqViolationError:
                assert p is dependent
            assert len(calls) == 1, x


class TestLagrangianHessian:
    def test_quadratic_objective_linear_switches(self, cross_quadratic):
        mult, _ = _point(cross_quadratic, (0.0, 0.0))
        H = lagrangian_hessian(cross_quadratic, (0.0, 0.0), mult)
        assert np.array_equal(H, np.diag([2.0, 2.0]))

    def test_all_linear(self, cross_linear):
        mult, _ = _point(cross_linear, (0.0, 0.0))
        H = lagrangian_hessian(cross_linear, (0.0, 0.0), mult)
        assert np.array_equal(H, np.zeros((2, 2)))

    def test_zero_multipliers(self, instability_both):
        mult, _ = _point(instability_both, (0.0, 0.0))
        H = lagrangian_hessian(instability_both, (0.0, 0.0), mult)
        assert np.array_equal(H, np.diag([2.0, 2.0]))

    def test_nonlinear_switch_curvature(self):
        # F1 = x1 - x2^2 has Hessian diag(0, -2); sigma1 weights it
        p = parse_problem(
            "vars: x1 x2\nobjective: x1 + x2^2\nswitch: x1 - x2^2 | x2\n"
        )
        pts = find_stationary_points(p, (-1.0, 1.0))
        origin = [pt for pt in pts if max(abs(v) for v in pt.x) < 1e-9][0]
        H = lagrangian_hessian(p, origin.x, origin.mult)
        s1 = origin.mult.sigma1[0]
        assert s1 == pytest.approx(1.0)
        assert np.allclose(H, np.diag([0.0, 2.0 + 2.0 * s1]))


class TestQuadraticIndex:
    def test_saddle_origin(self, cross_quadratic):
        mult, idx = _point(cross_quadratic, (0.0, 0.0))
        wi = quadratic_index(cross_quadratic, (0.0, 0.0), mult, idx)
        assert (wi.qi, wi.bi, wi.w) == (0, 1, 1)
        assert not wi.degenerate
        assert wi.tangent_dim == 0

    def test_minimizer_branch(self, cross_quadratic):
        mult, idx = _point(cross_quadratic, (1.0, 0.0))
        wi = quadratic_index(cross_quadratic, (1.0, 0.0), mult, idx)
        assert (wi.qi, wi.bi, wi.w) == (0, 0, 0)

    def test_linear_objective_biactive(self, cross_linear):
        mult, idx = _point(cross_linear, (0.0, 0.0))
        wi = quadratic_index(cross_linear, (0.0, 0.0), mult, idx)
        assert (wi.qi, wi.bi, wi.w) == (0, 1, 1)

    def test_negative_curvature_counts(self):
        p = parse_problem("vars: x1 x2\nobjective: x2 - x1^2\nineq: x2\n")
        # at the origin with g active: mu = 1, restricted Hessian on span(e1)
        idx = active_sets(p, (0.0, 0.0))
        mult = recover_multipliers(p, (0.0, 0.0))
        wi = quadratic_index(p, (0.0, 0.0), mult, idx)
        assert wi.qi == 1 and wi.bi == 0 and wi.w == 1


class TestNondegeneracy:
    def test_all_four_hold(self, cross_quadratic):
        mult, idx = _point(cross_quadratic, (0.0, 0.0))
        nd = check_nondegeneracy(cross_quadratic, (0.0, 0.0), mult, idx)
        assert nd.nd1 and nd.nd2 and nd.nd3 and nd.nd4
        assert nd.nondegenerate

    def test_both_vanishing_biactive_multipliers(self, instability_both):
        mult, idx = _point(instability_both, (0.0, 0.0))
        nd = check_nondegeneracy(instability_both, (0.0, 0.0), mult, idx)
        assert not nd.nd3
        assert mult.sigma1 == (0.0,) and mult.sigma2 == (0.0,)

    def test_one_vanishing_biactive_multiplier(self, instability_one):
        mult, idx = _point(instability_one, (0.0, 0.0))
        nd = check_nondegeneracy(instability_one, (0.0, 0.0), mult, idx)
        assert not nd.nd3
        assert mult.sigma1 == pytest.approx((1.0,))
        assert mult.sigma2 == (0.0,)

    def test_nd2_failure(self, stable_without_nd2):
        mult, idx = _point(stable_without_nd2, (0.0, 0.0))
        nd = check_nondegeneracy(stable_without_nd2, (0.0, 0.0), mult, idx)
        assert not nd.nd2
        assert nd.nd1 and nd.nd3
        assert not nd.nondegenerate

    def test_nd4_failure(self):
        p = parse_problem("vars: x1 x2\nobjective: x1^4 + x2^2\n")
        idx = active_sets(p, (0.0, 0.0))
        mult = recover_multipliers(p, (0.0, 0.0))
        nd = check_nondegeneracy(p, (0.0, 0.0), mult, idx)
        assert not nd.nd4
        assert any("ND4" in note for note in nd.notes)


class TestClassifyPoint:
    def test_minimizer(self, cross_quadratic):
        mult, idx = _point(cross_quadratic, (1.0, 0.0))
        cls = classify_point(cross_quadratic, (1.0, 0.0), mult, idx)
        assert cls.verdict == "minimizer"
        assert cls.is_local_minimizer is True
        assert cls.f_value == 1.0

    def test_saddle(self, cross_quadratic):
        mult, idx = _point(cross_quadratic, (0.0, 0.0))
        cls = classify_point(cross_quadratic, (0.0, 0.0), mult, idx)
        assert cls.verdict == "saddle"
        assert cls.is_local_minimizer is False
        assert cls.w.w == 1

    def test_nonzero_quadratic_index_is_not_minimizer(self):
        p = parse_problem("vars: x1 x2\nobjective: x2^2 - x1^2\n")
        mult, idx = _point(p, (0.0, 0.0))
        cls = classify_point(p, (0.0, 0.0), mult, idx)
        assert cls.is_local_minimizer is False
        assert cls.w.qi == 1

    def test_degenerate_is_inconclusive(self, instability_both):
        mult, idx = _point(instability_both, (0.0, 0.0))
        cls = classify_point(instability_both, (0.0, 0.0), mult, idx)
        assert cls.is_local_minimizer is None
        assert "inconclusive" in cls.verdict

    def test_higher_index(self):
        p = parse_problem("vars: x1 x2 x3\nobjective: 0 - x1^2 - x2^2 - x3^2\n")
        mult, idx = _point(p, (0.0, 0.0, 0.0))
        cls = classify_point(p, (0.0, 0.0, 0.0), mult, idx)
        assert cls.w.w == 3
        assert cls.verdict.startswith("higher-index")


class TestStrongStability:
    def test_instability_examples_fail_nd3(self, instability_both, instability_one):
        for p in (instability_both, instability_one):
            mult, idx = _point(p, (0.0, 0.0))
            verdict = check_strong_stability(p, (0.0, 0.0), mult, idx)
            assert not verdict.strongly_stable
            assert verdict.failure_reason == ND3_FAILS
            assert not verdict.nd3_holds

    def test_stable_without_nd2(self, stable_without_nd2):
        mult, idx = _point(stable_without_nd2, (0.0, 0.0))
        verdict = check_strong_stability(stable_without_nd2, (0.0, 0.0), mult, idx)
        assert verdict.strongly_stable
        assert verdict.failure_reason == NONE
        assert len(verdict.subsets) == 2
        by_subset = {s.j_star: s for s in verdict.subsets}
        assert by_subset[()].dim == 2 and by_subset[()].det_sign == 1
        assert by_subset[(0,)].dim == 1 and by_subset[(0,)].det_sign == 1

    def test_sign_mismatch(self):
        # at the origin with mu = 0: full space has signature (+, -), det -1;
        # restricting to the active hyperplane leaves [2], det +1
        p = parse_problem("vars: x1 x2\nobjective: x1^2 - x2^2\nineq: x2\n")
        mult, idx = _point(p, (0.0, 0.0))
        verdict = check_strong_stability(p, (0.0, 0.0), mult, idx)
        assert not verdict.strongly_stable
        assert verdict.failure_reason == "SIGN_MISMATCH"
        signs = {s.j_star: s.det_sign for s in verdict.subsets}
        assert signs[()] == -1 and signs[(0,)] == 1

    def test_singular_subset(self):
        p = parse_problem("vars: x1 x2\nobjective: x1^4 + x2^2\nineq: x2\n")
        mult, idx = _point(p, (0.0, 0.0))
        verdict = check_strong_stability(p, (0.0, 0.0), mult, idx)
        assert not verdict.strongly_stable
        assert verdict.failure_reason == "SINGULAR_SUBSET"

    def test_nondegenerate_is_strongly_stable(self, cross_quadratic):
        for x in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
            mult, idx = _point(cross_quadratic, x)
            nd = check_nondegeneracy(cross_quadratic, x, mult, idx)
            assert nd.nondegenerate
            verdict = check_strong_stability(cross_quadratic, x, mult, idx)
            assert verdict.strongly_stable

    def test_nd2_gives_single_subset(self):
        p = parse_problem("vars: x1 x2\nobjective: x1^2 + x2^2 + x2\nineq: x2\n")
        # minimizer at origin with mu strictly positive
        pts = find_stationary_points(p, (-1.0, 1.0))
        assert len(pts) == 1 and pts[0].x == (0.0, 0.0)
        mult, idx = pts[0].mult, pts[0].idx
        assert mult.mu[0] == pytest.approx(1.0)
        verdict = check_strong_stability(p, (0.0, 0.0), mult, idx)
        assert len(verdict.subsets) == 1
        nd = check_nondegeneracy(p, (0.0, 0.0), mult, idx)
        assert verdict.strongly_stable == (nd.nd3 and nd.nd4)

    def test_requires_licq(self):
        p = parse_problem(
            "vars: x1 x2\nobjective: x1\nineq: x1 + x2\nswitch: x1 | x2\n"
        )
        idx = active_sets(p, (0.0, 0.0))
        from switchstat.stationarity import Multipliers

        mult = Multipliers((), (0.0,), (1.0,), (1.0,), unique=False)
        with pytest.raises(LicqViolationError):
            check_strong_stability(p, (0.0, 0.0), mult, idx)

    def test_subset_cap(self, stable_without_nd2):
        from switchstat.stationarity import SolveConfig

        mult, idx = _point(stable_without_nd2, (0.0, 0.0))
        tiny = SolveConfig(subset_cap=1)
        with pytest.raises(SubsetCapError):
            check_strong_stability(
                stable_without_nd2, (0.0, 0.0), mult, idx, tiny
            )


class TestBasisInvariance:
    def test_det_sign_and_inertia_under_mixing(self, cross_quadratic):
        rng = np.random.default_rng(12)
        x = (1.0, 0.0)
        mult, idx = _point(cross_quadratic, x)
        V = tangent_basis(cross_quadratic, x, idx)
        H = lagrangian_hessian(cross_quadratic, x, mult)
        M = V.T @ H @ V
        for _ in range(50):
            d = V.shape[1]
            B = rng.normal(size=(d, d))
            while abs(np.linalg.det(B)) < 0.1:
                B = rng.normal(size=(d, d))
            VB = V @ B
            M2 = VB.T @ H @ VB
            assert det_sign(M2) == det_sign(M)
            assert inertia(M2) == inertia(M)


class TestMinimizerCorollaryRandom:
    """On random axis-switched problems a nondegenerate point has w = 0
    exactly when no nearby exactly-feasible sample beats its value."""

    @staticmethod
    def _feasible_samples_near(p, x, radius=0.05, step=1e-3):
        from switchstat.expr import eval_value

        deltas = np.arange(-radius, radius + step / 2, step)
        candidates = [(x[0] + float(d), 0.0) for d in deltas]
        candidates += [(0.0, x[1] + float(d)) for d in deltas]
        out = []
        for y in candidates:
            if (y[0] - x[0]) ** 2 + (y[1] - x[1]) ** 2 > radius**2 + 1e-12:
                continue
            if all(eval_value(g, y) >= 0 for g in p.inequalities):
                out.append(y)
        return out

    def test_random_objectives_on_the_cross(self):
        from switchstat.expr import eval_value
        from tests.test_acceptance import _poly_text

        rng = np.random.default_rng(77)

        def coef():
            return round(
                float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])), 3
            )

        checked = 0
        for _ in range(60):
            # full-support base keeps stationary points generically isolated
            # and bi-active multipliers generically nonzero
            base = (
                f"{coef()}*x1 + {coef()}*x2 + {coef()}*x1^2 + {coef()}*x2^2"
            )
            text = (
                "vars: x1 x2\n"
                f"objective: {base} + {_poly_text(rng, ['x1', 'x2'], 3, 2)}\n"
                "switch: x1 | x2\n"
            )
            p = parse_problem(text)
            pts = find_stationary_points(p, (-1.5, 1.5))
            for pt in pts:
                others = [
                    q for q in pts
                    if max(abs(a - b) for a, b in zip(q.x, pt.x)) > 1e-9
                ]
                near = [
                    q for q in others
                    if sum((a - b) ** 2 for a, b in zip(q.x, pt.x)) < 0.08**2
                ]
                if near:  # the verdict is local; keep the oracle local too
                    continue
                # one-sided points almost on the other branch sit within the
                # dedup radius of the (distinct) bi-active point and the two
                # can merge; the sample oracle is only sharp away from that
                if pt.idx.beta == () and max(map(abs, pt.x)) < 1e-4:
                    continue
                cls = classify_point(p, pt.x, pt.mult, pt.idx)
                if not cls.nd.nondegenerate:
                    continue
                samples = self._feasible_samples_near(p, pt.x)
                assert samples
                grid_min = all(
                    pt.f_value <= eval_value(p.objective, y) + 1e-9
                    for y in samples
                )
                assert grid_min == (cls.w.w == 0)
                checked += 1
        assert checked >= 20


class TestMinimizerCorollaryOnGrid:
    """Nondegenerate w = 0 must coincide with local grid minimality."""

    def test_cross_quadratic_points(self, cross_quadratic):
        pts = find_stationary_points(cross_quadratic, (-2.0, 2.0))
        step = 1e-3
        for pt in pts:
            cls = classify_point(cross_quadratic, pt.x, pt.mult, pt.idx)
            assert cls.nd.nondegenerate
            is_min = True
            # feasible neighbours on the two axis branches near the point
            for delta in np.arange(-0.05, 0.05 + step / 2, step):
                for y in ((pt.x[0] + delta, 0.0), (0.0, pt.x[1] + delta)):
                    if abs(y[0] * y[1]) > 1e-12:
                        continue
                    fy = (y[0] - 1.0) ** 2 + (y[1] - 1.0) ** 2
                    if fy + 1e-9 < pt.f_value:
                        is_min = False
            assert is_min == (cls.w.w == 0)


TOL_SIGN = SolveConfig().tol_sign
SPECIAL_MULTIPLIERS = [math.nan, 0.0, -0.0, TOL_SIGN, -TOL_SIGN, 2 * TOL_SIGN]


class TestSignRules:
    """ND2 and J+ read one strict-positivity rule, ND3 and the stability
    verdict one non-vanishing rule, so ``check_nondegeneracy`` and
    ``check_strong_stability`` agree on every multiplier, nan included."""

    @pytest.mark.parametrize("v", SPECIAL_MULTIPLIERS, ids=repr)
    def test_nd2_fails_exactly_outside_j_plus(self, v):
        p = parse_problem(
            "vars: x1 x2\nobjective: x1^2 + x2^2\nineq: x2\nineq: x1\n"
        )
        x = (0.0, 0.0)
        idx = active_sets(p, x)
        assert idx.j0 == (0, 1)
        mult = Multipliers((), (v, 1.0), (), ())
        nd = check_nondegeneracy(p, x, mult, idx)
        stab = check_strong_stability(p, x, mult, idx)
        j_plus = min((s.j_star for s in stab.subsets), key=len)
        assert j_plus == ((0, 1) if v > TOL_SIGN else (1,))
        outside = [j for j in idx.j0 if j not in j_plus]
        assert nd.nd2 == (not outside)
        named = [
            int(j) for note in nd.notes if note.startswith("ND2")
            for j in re.findall(r"j=(\d+)", note)
        ]
        assert named == outside

    @pytest.mark.parametrize("member", [0, 1])
    @pytest.mark.parametrize("v", SPECIAL_MULTIPLIERS, ids=repr)
    def test_nd3_agrees_with_the_stability_verdict(
        self, cross_quadratic, v, member
    ):
        x = (0.0, 0.0)
        idx = active_sets(cross_quadratic, x)
        assert idx.beta == (0,)
        pair = [-2.0, -2.0]
        pair[member] = v
        mult = Multipliers((), (), (pair[0],), (pair[1],))
        nd = check_nondegeneracy(cross_quadratic, x, mult, idx)
        stab = check_strong_stability(cross_quadratic, x, mult, idx)
        assert stab.nd3_holds == (abs(v) > TOL_SIGN)
        assert nd.nd3 == stab.nd3_holds
        assert (stab.failure_reason == ND3_FAILS) == (not stab.nd3_holds)


def _reference_nd_w(p, x, mult, idx, cfg):
    """ND1-ND4 and the W-index by the per-step calls: LICQ from
    ``check_licq``, the W-index from ``quadratic_index``."""
    licq = check_licq(p, x, cfg)
    notes = []
    if not licq.holds:
        notes.append(
            f"ND1: active gradient stack has rank {licq.rank} < {licq.rows}"
        )
    bad_mu = [j for j in idx.j0 if not mult.mu[j] > cfg.tol_sign]
    if bad_mu:
        notes.append(
            "ND2: active inequality multipliers not strictly positive at "
            + ", ".join(f"j={j} (mu={mult.mu[j]:.3e})" for j in bad_mu)
        )
    bad_sigma = [m for m in idx.beta
                 if not (abs(mult.sigma1[m]) > cfg.tol_sign
                         and abs(mult.sigma2[m]) > cfg.tol_sign)]
    if bad_sigma:
        notes.append(
            "ND3: vanishing bi-active multiplier at " + ", ".join(
                f"m={m} (sigma1={mult.sigma1[m]:.3e}, sigma2={mult.sigma2[m]:.3e})"
                for m in bad_sigma
            )
        )
    wi = quadratic_index(p, x, mult, idx, cfg) if licq.holds else None
    if wi is None:
        notes.append("ND4: not evaluated (LICQ fails)")
    elif wi.degenerate:
        notes.append("ND4: restricted Lagrangian Hessian is singular")
    nd4 = wi is not None and not wi.degenerate
    nd = NDReport(licq.holds, not bad_mu, not bad_sigma, nd4, tuple(notes))
    return nd, wi


def _reference_stability(p, x, mult, idx, cfg):
    """The strong-stability verdict with a tangent basis and a determinant
    sign computed for every subset J*, or the error that puts the point
    out of scope."""
    licq = check_licq(p, x, cfg)
    if not licq.holds:
        return LicqViolationError(
            "strong-stability characterization requires LICQ"
            f" (rank {licq.rank} < {licq.rows})"
        )
    j_plus = tuple(j for j in idx.j0 if mult.mu[j] > cfg.tol_sign)
    free = [j for j in idx.j0 if j not in j_plus]
    if 2 ** len(free) > cfg.subset_cap:
        return SubsetCapError(
            f"{2 ** len(free)} inequality subsets exceed"
            f" subset_cap={cfg.subset_cap}"
        )
    H = lagrangian_hessian(p, x, mult)
    subsets = []
    for mask in range(2 ** len(free)):
        j_star = tuple(sorted(
            j_plus + tuple(free[i] for i in range(len(free)) if mask >> i & 1)
        ))
        try:
            V = tangent_basis(p, x, idx, j_star, cfg)
        except LicqViolationError as exc:
            return exc
        subsets.append(
            SubsetResult(j_star, V.shape[1], det_sign(_restricted(H, V), cfg.lin))
        )
    nd3 = _reference_nd_w(p, x, mult, idx, cfg)[0].nd3
    signs = {s.det_sign for s in subsets}
    reason = (ND3_FAILS if not nd3 else SINGULAR_SUBSET if 0 in signs
              else SIGN_MISMATCH if len(signs) > 1 else NONE)
    return StabilityVerdict(reason == NONE, nd3, tuple(subsets), reason)


def _analysis_cases():
    """(problem, point, cfg) for every point of the five examples, mid3
    and the first ten criterion-7 corpus problems, plus one point without
    LICQ and one beyond the subset cap."""
    from tests.test_acceptance import _random_problem_text
    from tests.test_stationarity import MID3

    default = SolveConfig()
    problems = [(parse_problem(t), default)
                for t in [*EXAMPLES.values(), MID3]]
    rng = np.random.default_rng(20260808)
    for _ in range(10):
        p = parse_problem(_random_problem_text(rng))
        problems.append((p, SolveConfig(grid_points=3 if p.n == 2 else 2)))
    cases = [
        (p, pt.x, pt.mult, pt.idx, cfg)
        for p, cfg in problems
        for pt in find_stationary_points(p, (-2.0, 2.0), cfg)
    ]
    dependent = parse_problem(
        "vars: x1 x2\nobjective: x1\nineq: x1 + x2\nswitch: x1 | x2\n"
    )
    x = (0.0, 0.0)
    cases.append((dependent, x, Multipliers((), (0.0,), (1.0,), (1.0,), False),
                  active_sets(dependent, x), default))
    stable = parse_problem(STABLE_WITHOUT_ND2)
    mult, idx = _point(stable, x)
    cases.append((stable, x, mult, idx, SolveConfig(subset_cap=1)))
    return cases


class TestOneAnalysisPerPoint:
    """``classify_point`` decides ND1-ND4, the W-index and strong stability
    from one stack of the J0 gradients, whose nullspace is the J0 tangent
    space, and one Lagrangian Hessian, with the results of the per-step
    calls."""

    def test_analysis_equals_the_per_step_reference(self):
        cases = _analysis_cases()
        assert len(cases) >= 20
        kinds = set()
        for p, x, mult, idx, cfg in cases:
            cls = classify_point(p, x, mult, idx, cfg)
            assert (cls.nd, cls.w) == _reference_nd_w(p, x, mult, idx, cfg)
            ref = _reference_stability(p, x, mult, idx, cfg)
            kinds.add(type(ref).__name__)
            if isinstance(ref, Exception):
                assert type(cls.stability) is type(ref)
                assert str(cls.stability) == str(ref)
                with pytest.raises(type(ref), match=re.escape(str(ref))):
                    check_strong_stability(p, x, mult, idx, cfg)
            else:
                assert cls.stability == ref
                assert check_strong_stability(p, x, mult, idx, cfg) == ref
        assert kinds == {
            "StabilityVerdict", "LicqViolationError", "SubsetCapError"
        }

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_one_hessian_and_one_gradient_stack_per_point(
        self, monkeypatch, tmp_path, name
    ):
        from switchstat import cli, classify, stationarity

        src = tmp_path / "p.txt"
        src.write_text(EXAMPLES[name])
        p = parse_problem(src.read_text())
        # the search runs before the spies go in: it builds a LICQ stack per
        # candidate of its own
        result = stationarity.search_stationary_points(p, (-2.0, 2.0))
        assert result.points
        monkeypatch.setattr(cli, "search_stationary_points",
                            lambda *args: result)
        calls = {"lagrangian_hessian": 0, "_licq_stack": 0, "_gradient_rows": 0}
        for module, fn in ((classify, "lagrangian_hessian"),
                           (stationarity, "_licq_stack"),
                           (stationarity, "_gradient_rows"),
                           (classify, "_gradient_rows")):
            def spy(*args, _fn=getattr(module, fn), _name=fn):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, fn, spy)
        out = tmp_path / "report.json"
        assert cli.main(["analyze", str(src), "--json", str(out)]) == 0
        points = json.loads(out.read_text())["points"]
        n = len(points)
        assert n == len(result.points)
        # one stack of the J0 gradients per point, one more per subset
        # J* != J0 of the stability enumeration
        other_subsets = sum(
            len(pt["strong_stability"]["subsets"]) - 1
            for pt in points if "subsets" in pt["strong_stability"]
        )
        assert calls == {"lagrangian_hessian": n, "_licq_stack": 0,
                         "_gradient_rows": n + other_subsets}
        if name == "stable_without_nd2":
            assert other_subsets > 0

    def test_infeasible_point_raises(self, cross_quadratic):
        # x1 * x2 = 1 violates the switching constraint
        x = (1.0, 1.0)
        idx = active_sets(cross_quadratic, x)
        mult = Multipliers((), (), (0.0,), (0.0,))
        with pytest.raises(InfeasiblePointError,
                           match=re.escape("(1.0, 1.0) is infeasible")):
            classify_point(cross_quadratic, x, mult, idx)
