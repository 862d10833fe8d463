"""Relaxed-problem construction, KKT enumeration and continuation paths."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from switchstat.cli import main
from switchstat.expr import eval_value, parse_problem
from switchstat import relaxation
from switchstat.relaxation import (
    _accept_step,
    _schedule,
    continue_path,
    kkt_points_relaxed,
    relax,
)
from switchstat.stationarity import (
    CombinatorialCapError,
    Multipliers,
    SolveConfig,
    enumerate_branches,
    find_stationary_points,
)
from tests.conftest import (
    CROSS_LINEAR,
    CROSS_QUADRATIC,
    INSTABILITY_BOTH,
    INSTABILITY_ONE,
    STABLE_WITHOUT_ND2,
)
from tests.test_stationarity import UNDEFINED_CONSTRAINT

CFG = SolveConfig()


def _closed_forms(t):
    """KKT points of the relaxed example with objective (x1-1)^2+(x2-1)^2."""
    s = math.sqrt(t)
    pts = [(s, s)]
    if 1.0 - 4.0 * t >= 0.0:
        q = math.sqrt(1.0 - 4.0 * t)
        pts.append(((1.0 + q) / 2.0, (1.0 - q) / 2.0))
        pts.append(((1.0 - q) / 2.0, (1.0 + q) / 2.0))
    return sorted(pts)


class TestRelax:
    def test_band_inequalities(self, cross_quadratic):
        rp = relax(cross_quadratic, 0.1)
        q = rp.problem
        assert q.k == 0
        assert len(q.inequalities) == 2
        # t - x1*x2 >= 0 and t + x1*x2 >= 0
        assert eval_value(q.inequalities[0], (0.2, 0.3)) == pytest.approx(0.04)
        assert eval_value(q.inequalities[1], (0.2, 0.3)) == pytest.approx(0.16)
        assert eval_value(q.inequalities[0], (1.0, 1.0)) == pytest.approx(-0.9)

    def test_relaxed_set_contains_original(self, cross_quadratic):
        rp = relax(cross_quadratic, 0.05)
        from switchstat.stationarity import feasibility_violation

        for x in ((0.0, 0.0), (1.5, 0.0), (0.0, -2.0)):
            assert feasibility_violation(cross_quadratic, x) == 0.0
            assert feasibility_violation(rp.problem, x) == 0.0

    def test_no_switches_is_identity(self):
        p = parse_problem("vars: x1\nobjective: x1^2\nineq: x1\n")
        rp = relax(p, 0.5)
        assert rp.problem is p

    def test_nonpositive_t_rejected(self, cross_quadratic):
        with pytest.raises(ValueError):
            relax(cross_quadratic, 0.0)
        with pytest.raises(ValueError):
            relax(cross_quadratic, -0.3)
        # nor a non-finite t: from inf the schedule max(rho*t, t_min) stays
        # at inf
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                relax(cross_quadratic, t)


class TestRelaxedKkt:
    @pytest.mark.parametrize("t", [0.1, 0.05, 0.025, 0.01])
    def test_closed_forms(self, cross_quadratic, t):
        rp = relax(cross_quadratic, t)
        pts = kkt_points_relaxed(rp, (-1.0, 2.0))
        expected = _closed_forms(t)
        assert len(pts) == len(expected) == 3
        for pt, exp in zip(pts, expected):
            assert max(abs(a - b) for a, b in zip(pt.x, exp)) <= 1e-8
            assert all(m >= -CFG.tol_sign for m in pt.mult.mu)

    def test_large_t_keeps_only_diagonal_family(self, cross_quadratic):
        rp = relax(cross_quadratic, 0.3)
        pts = kkt_points_relaxed(rp, (-1.0, 2.0))
        assert len(pts) == 1
        s = math.sqrt(0.3)
        assert max(abs(a - b) for a, b in zip(pts[0].x, (s, s))) <= 1e-8


class TestContinuePath:
    def test_diagonal_branch_to_origin(self, cross_quadratic):
        rp = relax(cross_quadratic, 0.1)
        seeds = kkt_points_relaxed(rp, (-1.0, 2.0))
        stationary = find_stationary_points(cross_quadratic, (-2.0, 2.0))
        s = math.sqrt(0.1)
        seed = min(seeds, key=lambda pt: abs(pt.x[0] - s) + abs(pt.x[1] - s))
        path = continue_path(
            cross_quadratic, seed, 0.1, 0.5, 1e-10, stationary=stationary
        )
        assert path.limit == (0.0, 0.0)
        assert path.matched_stationary is not None
        assert path.matched_stationary.x == (0.0, 0.0)
        assert path.multiplier_blowup  # relaxed multiplier grows like 1/sqrt(t)
        # every sample matches the closed form for its own t
        for smp in path.samples:
            st = math.sqrt(smp.t)
            assert max(abs(a - b) for a, b in zip(smp.x, (st, st))) <= 1e-8
            assert smp.residual <= CFG.tol_resid

    def test_off_diagonal_branches(self, cross_quadratic):
        rp = relax(cross_quadratic, 0.1)
        seeds = kkt_points_relaxed(rp, (-1.0, 2.0))
        stationary = find_stationary_points(cross_quadratic, (-2.0, 2.0))
        limits = set()
        for seed in seeds:
            path = continue_path(
                cross_quadratic, seed, 0.1, 0.5, 1e-10, stationary=stationary
            )
            limits.add(path.limit)
            ts = [smp.t for smp in path.samples]
            assert all(b < a for a, b in zip(ts, ts[1:]))
            # distance to the limit is nonincreasing over the last samples
            dists = [
                np.linalg.norm(np.array(smp.x) - np.array(path.limit))
                for smp in path.samples[-5:]
            ]
            assert all(b <= a + 1e-15 for a, b in zip(dists, dists[1:]))
        assert limits == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}

    def test_matched_limit_is_residual_verified(self, cross_quadratic):
        from switchstat.stationarity import stationarity_residual

        rp = relax(cross_quadratic, 0.1)
        seeds = kkt_points_relaxed(rp, (-1.0, 2.0))
        path = continue_path(cross_quadratic, seeds[0], 0.1, 0.5, 1e-10)
        pt = path.matched_stationary
        assert pt is not None
        assert (
            stationarity_residual(cross_quadratic, pt.x, pt.mult) <= CFG.tol_resid
        )

    def test_no_switches_path_constant(self):
        p = parse_problem("vars: x1 x2\nobjective: (x1-1)^2 + x2^2\n")
        seeds = find_stationary_points(p, (-2.0, 2.0))
        assert len(seeds) == 1
        path = continue_path(p, seeds[0], 0.1, 0.5, 1e-6)
        xs = {smp.x for smp in path.samples}
        assert len(xs) == 1
        assert path.limit == (1.0, 0.0)

    def test_active_set_redetection_along_path(self):
        # the interior stationary point (1, 0.5) leaves the relaxed band once
        # t < 0.5, so the frozen (all-inactive) pattern fails and the
        # exhaustive fallback finds the band pattern; the path then lands on
        # (1, 0)
        p = parse_problem(
            "vars: x1 x2\nobjective: (x1-1)^2 + (x2-0.5)^2\nswitch: x1 | x2\n"
        )
        rp = relax(p, 2.0)
        seeds = kkt_points_relaxed(rp, (-2.0, 2.0))
        interior = [
            s for s in seeds if max(abs(a - b) for a, b in zip(s.x, (1.0, 0.5))) < 1e-9
        ]
        assert interior
        path = continue_path(p, interior[0], 2.0, 0.5, 1e-10)
        assert path.matched_stationary is not None
        assert path.limit == path.matched_stationary.x
        assert max(abs(a - b) for a, b in zip(path.limit, (1.0, 0.0))) <= 1e-9

    def test_path_loss_reports_partial_path(self):
        # an interior maximizer exists for every t >= 1 but has no KKT
        # continuation into the band below, so the path is genuinely lost
        from switchstat.relaxation import PathLossError

        p = parse_problem(
            "vars: x1 x2\nobjective: 0 - (x1-1)^2 - (x2-1)^2\nswitch: x1 | x2\n"
        )
        rp = relax(p, 2.0)
        seeds = kkt_points_relaxed(rp, (-2.0, 2.0))
        interior = [
            s for s in seeds if max(abs(a - b) for a, b in zip(s.x, (1.0, 1.0))) < 1e-9
        ]
        assert interior
        with pytest.raises(PathLossError) as err:
            continue_path(p, interior[0], 2.0, 0.5, 1e-10)
        partial = err.value.path
        assert len(partial.samples) >= 2
        assert partial.samples[-1].t >= 0.5

    def test_bad_rho_rejected(self, cross_quadratic):
        rp = relax(cross_quadratic, 0.1)
        seeds = kkt_points_relaxed(rp, (-1.0, 2.0))
        with pytest.raises(ValueError):
            continue_path(cross_quadratic, seeds[0], 0.1, 1.5, 1e-10)
        with pytest.raises(ValueError):
            continue_path(cross_quadratic, seeds[0], 0.1, 0.5, -1e-10)

    @pytest.mark.parametrize("t0, rho, t_min", [
        (0.1, 0.5, 1e-10), (0.1, 0.3, 1e-10), (0.05, 0.8, 1e-10),
        (0.1, 0.5, 0.1),
    ])
    def test_step_count_is_the_path_length(self, cross_quadratic, t0, rho, t_min):
        seed = kkt_points_relaxed(relax(cross_quadratic, t0), (-1.0, 2.0))[0]
        path = continue_path(cross_quadratic, seed, t0, rho, t_min, stationary=[])
        assert _schedule(t0, rho, t_min) == [s.t for s in path.samples]

    def test_schedule_beyond_the_step_cap_raises_before_any_step(
        self, cross_quadratic, monkeypatch
    ):
        (seed, *_) = kkt_points_relaxed(relax(cross_quadratic, 0.1), (-1.0, 2.0))

        def no_newton(*args, **kwargs):
            raise AssertionError("a Newton step ran")

        monkeypatch.setattr(relaxation, "newton_solve_branch", no_newton)
        with pytest.raises(CombinatorialCapError, match="step cap of 100000 steps"):
            continue_path(cross_quadratic, seed, 0.1, 0.999999, 1e-10)
        monkeypatch.setattr(relaxation, "_MAX_STEPS", 29)
        with pytest.raises(CombinatorialCapError, match="step cap of 29 steps"):
            continue_path(cross_quadratic, seed, 0.1, 0.5, 1e-10)

    def test_bad_seed_rejected(self, cross_quadratic):
        from switchstat.stationarity import WStationaryPoint, Multipliers, IndexSets

        fake = WStationaryPoint(
            x=(0.77, 0.33),
            f_value=0.0,
            mult=Multipliers((), (0.0, 0.0), (), ()),
            idx=IndexSets((), (), (), ()),
            residual=1.0,
            licq=True,
        )
        with pytest.raises(ValueError, match="residual"):
            continue_path(cross_quadratic, fake, 0.1, 0.5, 1e-10)


# corpus p049: the frozen step from its only seed fails at t = 0.05
P049 = """\
vars: x1 x2
objective: 1.133*x1 + -1.778*x2 + 0.486*x1^2 + 1.969*x2^2 + -0.677*x2 + 0.39
ineq: 0.9*x1 + 1.153*x2 + 0.247
switch: -0.536*x1 + -0.402*x2 + -0.404 | 1.479*x1 + 1.161*x2 + 0.121
"""


def _spy_newton(monkeypatch):
    """Record continuation's Newton calls as ``(problem, pattern, cfg, warm,
    accepted)``: ``warm`` when given a multiplier start, ``accepted`` when
    ``_accept_step`` keeps the outcome."""
    calls = []
    real = relaxation.newton_solve_branch

    def spy(problem, pattern, start, cfg, mult_start=None):
        out = real(problem, pattern, start, cfg, mult_start=mult_start)
        accepted = _accept_step(SimpleNamespace(problem=problem), out, cfg)
        calls.append(
            (problem, pattern, cfg, mult_start is not None, accepted is not None)
        )
        return out

    monkeypatch.setattr(relaxation, "newton_solve_branch", spy)
    return calls


def _sweeps(calls):
    """The number of exhaustive sweeps in ``calls``, asserting that every
    call is a warm-started frozen step or one step of a sweep that follows a
    failed frozen step and tries each pattern once, cold, in order."""
    sweeps, i = 0, 0
    while i < len(calls):
        problem, _, cfg, warm, accepted = calls[i]
        assert warm, f"call {i} is cold outside an exhaustive sweep"
        i += 1
        if accepted:
            continue
        patterns = enumerate_branches(problem, cfg)
        sweep = calls[i:i + len(patterns)]
        assert [c[1] for c in sweep] == patterns
        assert all(c[0] is problem and not c[3] for c in sweep)
        i += len(patterns)
        sweeps += 1
    return sweeps


class TestRecoveryRoutes:
    @pytest.mark.parametrize("box", [[], ["--box", "-1", "2"]])
    def test_every_newton_call_is_frozen_or_exhaustive(
        self, tmp_path, monkeypatch, box
    ):
        calls = _spy_newton(monkeypatch)
        sweeps = 0
        examples = (CROSS_LINEAR, CROSS_QUADRATIC, INSTABILITY_BOTH,
                    INSTABILITY_ONE, STABLE_WITHOUT_ND2)
        for i, text in enumerate(examples):
            src = tmp_path / f"p{i}.txt"
            src.write_text(text)
            calls.clear()
            main(["relax", str(src), *box, "--json", str(tmp_path / "r.json")])
            sweeps += _sweeps(calls)
        assert sweeps > 0

    def test_failed_frozen_step_recovers_through_the_sweep(self, monkeypatch):
        p = parse_problem(P049)
        box = (-2.0, 2.0)
        (seed,) = kkt_points_relaxed(relax(p, 0.1), box, CFG)
        stationary = find_stationary_points(p, box, CFG)
        calls = _spy_newton(monkeypatch)
        path = continue_path(p, seed, 0.1, 0.5, 1e-10, CFG, stationary=stationary)
        assert path.samples[1].t == 0.05
        assert calls[0][3] and not calls[0][4]
        assert _sweeps(calls) >= 1
        assert path.matched_stationary is not None
        assert path.limit == path.matched_stationary.x
        assert all(s.residual <= CFG.tol_resid for s in path.samples)


class TestAcceptStep:
    def test_undefined_constraint_rejects_the_step(self):
        # log(x1 + 0.5) is undefined at x1 = -1: the step is infeasible
        rp = relax(parse_problem(UNDEFINED_CONSTRAINT), 0.1)
        mult = Multipliers(lam=(), mu=(0.0, 0.0, 0.0), sigma1=(), sigma2=())
        assert _accept_step(rp, (np.array([-1.0, 0.0]), mult), CFG) is None
        (seed,) = kkt_points_relaxed(rp, (-1.0, 2.0), CFG)
        assert _accept_step(rp, (np.array(seed.x), seed.mult), CFG) is not None
