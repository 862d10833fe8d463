"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion enforces its stated tolerances and runtime budget.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from switchstat.classify import (
    check_nondegeneracy,
    check_strong_stability,
    classify_point,
    quadratic_index,
)
from switchstat.cli import main
from switchstat.expr import (
    eval_gradient,
    eval_hessian,
    eval_value,
    parse_problem,
)
from switchstat.linalg import det_sign, inertia
from switchstat.relaxation import continue_path, kkt_points_relaxed, relax
from switchstat.stationarity import (
    SolveConfig,
    find_stationary_points,
    stationarity_residual,
)
from switchstat.topology import (
    GridSpec,
    feasibility_mask,
    mountain_pass_check,
    objective_values,
    sweep_levels,
)
from tests.conftest import (
    CROSS_LINEAR,
    CROSS_QUADRATIC,
    INSTABILITY_BOTH,
    INSTABILITY_ONE,
    STABLE_WITHOUT_ND2,
)


@contextlib.contextmanager
def criterion(num, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_seconds
    print(
        f"ACCEPTANCE {num} ({description}):"
        f" {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s, budget {budget_seconds}s]"
    )
    assert ok, f"runtime {elapsed:.2f}s exceeds budget {budget_seconds}s"


def _analyze_json(tmp_path, text, extra=()):
    src = tmp_path / "problem.txt"
    src.write_text(text)
    out = tmp_path / "report.json"
    code = main(["analyze", str(src), "--json", str(out), *extra])
    assert code == 0
    return json.loads(out.read_text())


def test_criterion_1_cross_example(tmp_path):
    with criterion(1, "cross example, single bi-active saddle", 1.0):
        report = _analyze_json(tmp_path, CROSS_LINEAR, ["--box", "-2", "2"])
        assert report["summary"]["num_points"] == 1
        pt = report["points"][0]
        assert max(abs(v) for v in pt["x"]) <= 1e-8
        assert abs(pt["multipliers"]["sigma1"][0] - 1.0) <= 1e-8
        assert abs(pt["multipliers"]["sigma2"][0] - 1.0) <= 1e-8
        assert pt["w_index"]["BI"] == 1
        assert pt["w_index"]["QI"] == 0
        assert pt["w_index"]["w_index"] == 1
        assert pt["nondegeneracy"]["nondegenerate"] is True


def test_criterion_2_relaxation_example(tmp_path):
    with criterion(2, "three stationary points and mountain pass", 2.0):
        report = _analyze_json(tmp_path, CROSS_QUADRATIC, ["--box", "-2", "2"])
        assert report["summary"]["num_points"] == 3
        by_x = {tuple(pt["x"]): pt for pt in report["points"]}
        targets = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
        for target in targets:
            nearest = min(
                by_x,
                key=lambda x: max(abs(a - b) for a, b in zip(x, target)),
            )
            assert max(abs(a - b) for a, b in zip(nearest, target)) <= 1e-8
        saddle = by_x[min(by_x, key=lambda x: max(map(abs, x)))]
        assert saddle["classification"] == "saddle"
        assert saddle["w_index"]["QI"] == 0
        assert saddle["w_index"]["BI"] == 1
        minimizers = [pt for pt in report["points"] if pt is not saddle]
        assert all(pt["classification"] == "minimizer" for pt in minimizers)
        assert all(pt["w_index"]["w_index"] == 0 for pt in minimizers)

        p = parse_problem(CROSS_QUADRATIC)
        pts = find_stationary_points(p, (-2.0, 2.0))
        cls = [classify_point(p, q.x, q.mult, q.idx) for q in pts]
        mp = mountain_pass_check(cls)
        assert (mp.r, mp.r_s) == (2, 1)
        assert mp.holds


def test_criterion_3_relaxation_continuation():
    with criterion(3, "relaxed KKT closed forms and continuation limits", 5.0):
        p = parse_problem(CROSS_QUADRATIC)
        for t in (0.1, 0.05, 0.025, 0.01):
            pts = kkt_points_relaxed(relax(p, t), (-1.0, 2.0))
            s = math.sqrt(t)
            q = math.sqrt(1.0 - 4.0 * t)
            expected = sorted(
                [
                    (s, s),
                    ((1.0 + q) / 2.0, (1.0 - q) / 2.0),
                    ((1.0 - q) / 2.0, (1.0 + q) / 2.0),
                ]
            )
            assert len(pts) == 3
            for pt, exp in zip(pts, expected):
                assert max(abs(a - b) for a, b in zip(pt.x, exp)) <= 1e-8

        stationary = find_stationary_points(p, (-2.0, 2.0))
        seeds = kkt_points_relaxed(relax(p, 0.1), (-1.0, 2.0))
        limits = []
        for seed in seeds:
            path = continue_path(
                p, seed, 0.1, 0.5, 1e-10, stationary=stationary
            )
            limits.append(path.limit)
        for target in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
            best = min(
                limits,
                key=lambda x: max(abs(a - b) for a, b in zip(x, target)),
            )
            assert max(abs(a - b) for a, b in zip(best, target)) <= 1e-6


def test_criterion_4_instability_examples(tmp_path):
    for text, label in (
        (INSTABILITY_BOTH, "both multipliers vanish"),
        (INSTABILITY_ONE, "one multiplier vanishes"),
    ):
        with criterion(4, f"instability: {label}", 1.0):
            report = _analyze_json(tmp_path, text, ["--box", "-2", "2"])
            assert report["summary"]["num_points"] == 1
            pt = report["points"][0]
            assert max(abs(v) for v in pt["x"]) <= 1e-8
            stab = pt["strong_stability"]
            assert stab["strongly_stable"] is False
            assert stab["failure_reason"] == "ND3_FAILS"


def test_criterion_5_stable_without_nondegeneracy(tmp_path):
    with criterion(5, "strong stability despite ND2 failure", 1.0):
        report = _analyze_json(tmp_path, STABLE_WITHOUT_ND2, ["--box", "-2", "2"])
        assert report["summary"]["num_points"] == 1
        pt = report["points"][0]
        assert max(abs(v) for v in pt["x"]) <= 1e-8
        assert abs(pt["multipliers"]["mu"][0]) <= 1e-8
        assert pt["nondegeneracy"]["nd2"] is False
        stab = pt["strong_stability"]
        assert stab["strongly_stable"] is True
        assert sorted(s["det_sign"] for s in stab["subsets"]) == [1, 1]


def test_criterion_6_level_sweeps():
    with criterion(6, "sublevel component counts and grid stability", 10.0):
        cross = parse_problem(CROSS_LINEAR)
        quad = parse_problem(CROSS_QUADRATIC)
        for resolution in (401, 801):
            for p, levels, counts in ((cross, [-1.0, 1.0], (2, 1)),
                                      (quad, [0.5, 1.5, 2.5], (0, 2, 1))):
                grid = GridSpec.for_problem(p, (-2.0, 2.0), resolution)
                mask = feasibility_mask(p, grid)
                fvals = objective_values(p, grid)
                assert sweep_levels(mask, fvals, levels).counts == counts


# ---------------------------------------------------------------------------
# criterion 7: random-problem property suite
# ---------------------------------------------------------------------------


def _poly_text(rng, names, degree, terms):
    parts = []
    for _ in range(terms):
        c = round(float(rng.uniform(-2.0, 2.0)), 3) or 0.5
        deg = int(rng.integers(0, degree + 1))
        powers = {}
        for _ in range(deg):
            v = names[int(rng.integers(0, len(names)))]
            powers[v] = powers.get(v, 0) + 1
        factors = [str(c)] + [
            v if e == 1 else f"{v}^{e}" for v, e in sorted(powers.items())
        ]
        parts.append("*".join(factors))
    return " + ".join(parts)


def _affine_text(rng, names):
    coefs = [round(float(rng.uniform(-1.5, 1.5)), 3) or 1.0 for _ in names]
    shift = round(float(rng.uniform(-1.0, 1.0)), 3)
    body = " + ".join(f"{c}*{v}" for c, v in zip(coefs, names))
    return f"{body} + {shift}"


def _full_support_quadratic(rng, names):
    """All linear and square terms with coefficients away from zero, so the
    stationary set is generically isolated (sparse monomial draws put
    positive probability on whole-line stationary continua)."""
    def coef():
        return round(float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])), 3)

    parts = [f"{coef()}*{v}" for v in names]
    parts += [f"{coef()}*{v}^2" for v in names]
    return " + ".join(parts)


def _random_problem_text(rng):
    n = int(rng.choice([2, 2, 2, 3]))
    names = [f"x{i + 1}" for i in range(n)]
    k = int(rng.choice([0, 1, 1, 2]))
    nj = int(rng.choice([0, 1, 1, 2]))
    ni = int(rng.choice([0, 0, 0, 1]))
    lines = ["vars: " + " ".join(names)]
    lines.append(
        "objective: "
        + _full_support_quadratic(rng, names)
        + " + "
        + _poly_text(rng, names, 3, int(rng.integers(1, 4)))
    )
    for _ in range(ni):
        lines.append("eq: " + _affine_text(rng, names))
    for _ in range(nj):
        lines.append("ineq: " + _affine_text(rng, names))
    for _ in range(k):
        lines.append(
            "switch: " + _affine_text(rng, names) + " | " + _affine_text(rng, names)
        )
    return "\n".join(lines) + "\n"


def _swap_text(text):
    lines = []
    for line in text.splitlines():
        if line.startswith("switch:"):
            body = line[len("switch:"):]
            a, b = body.split("|")
            lines.append(f"switch: {b.strip()} | {a.strip()}")
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


def _scale_text(text, c):
    out = []
    for line in text.splitlines():
        if line.startswith("objective:"):
            body = line[len("objective:"):].strip()
            out.append(f"objective: {c}*({body})")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def _match(pts_a, pts_b, radius):
    """Pair point lists bijectively within radius; None if impossible."""
    if len(pts_a) != len(pts_b):
        return None
    used = set()
    pairs = []
    for a in pts_a:
        best = None
        for i, b in enumerate(pts_b):
            if i in used:
                continue
            d = max(abs(u - v) for u, v in zip(a.x, b.x))
            if d <= radius and (best is None or d < best[0]):
                best = (d, i)
        if best is None:
            return None
        used.add(best[1])
        pairs.append((a, pts_b[best[1]]))
    return pairs


def test_criterion_7_random_property_suite():
    with criterion(7, "random-problem property suite", 60.0):
        rng = np.random.default_rng(20260808)
        cfg2 = SolveConfig(grid_points=3)
        cfg3 = SolveConfig(grid_points=2)
        corpus = []
        while len(corpus) < 100:
            text = _random_problem_text(rng)
            try:
                p = parse_problem(text)
            except Exception:  # pragma: no cover - generator emits valid text
                continue
            corpus.append((text, p))

        total_points = 0
        swap_checked = 0
        scale_checked = 0
        for text, p in corpus:
            cfg = cfg2 if p.n == 2 else cfg3
            pts = find_stationary_points(p, (-2.0, 2.0), cfg)
            total_points += len(pts)
            for pt in pts:
                # (a) independently re-evaluated residual
                assert stationarity_residual(p, pt.x, pt.mult) <= 1e-10
                nd = check_nondegeneracy(p, pt.x, pt.mult, pt.idx, cfg)
                stable = None
                if pt.licq:
                    stable = check_strong_stability(
                        p, pt.x, pt.mult, pt.idx, cfg
                    ).strongly_stable
                # (b) nondegeneracy implies strong stability
                if nd.nondegenerate:
                    assert stable is True
                # (c) without active inequalities the two notions coincide
                if pt.idx.j0 == ():
                    assert nd.nondegenerate == bool(pt.licq and stable)

            # (e) switching-order symmetry on a slice of the corpus
            if p.k >= 1 and swap_checked < 25:
                swap_checked += 1
                spts = find_stationary_points(
                    parse_problem(_swap_text(text)), (-2.0, 2.0), cfg
                )
                pairs = _match(pts, spts, cfg.dedup_radius)
                assert pairs is not None
                for a, b in pairs:
                    assert set(a.idx.alpha) == set(b.idx.gamma)
                    assert set(a.idx.gamma) == set(b.idx.alpha)
                    assert set(a.idx.beta) == set(b.idx.beta)
                    if a.licq and b.licq:
                        assert a.mult.sigma1 == pytest.approx(
                            b.mult.sigma2, abs=1e-7
                        )
                        assert a.mult.sigma2 == pytest.approx(
                            b.mult.sigma1, abs=1e-7
                        )

            # (f) positive objective scaling on a slice of the corpus
            if scale_checked < 25 and pts:
                scale_checked += 1
                c = 2.5
                qpts = find_stationary_points(
                    parse_problem(_scale_text(text, c)), (-2.0, 2.0), cfg
                )
                pairs = _match(pts, qpts, cfg.dedup_radius)
                assert pairs is not None
                for a, b in pairs:
                    nd_a = check_nondegeneracy(p, a.x, a.mult, a.idx, cfg)
                    pq = parse_problem(_scale_text(text, c))
                    nd_b = check_nondegeneracy(pq, b.x, b.mult, b.idx, cfg)
                    assert (nd_a.nd1, nd_a.nd2, nd_a.nd3, nd_a.nd4) == (
                        nd_b.nd1,
                        nd_b.nd2,
                        nd_b.nd3,
                        nd_b.nd4,
                    )
                    if a.licq and b.licq:
                        for va, vb in zip(
                            a.mult.lam + a.mult.mu + a.mult.sigma1 + a.mult.sigma2,
                            b.mult.lam + b.mult.mu + b.mult.sigma1 + b.mult.sigma2,
                        ):
                            assert vb == pytest.approx(c * va, rel=1e-8, abs=1e-10)
                        if nd_a.nd1:
                            wa = quadratic_index(p, a.x, a.mult, a.idx, cfg)
                            wb = quadratic_index(pq, b.x, b.mult, b.idx, cfg)
                            assert (wa.qi, wa.bi, wa.w) == (wb.qi, wb.bi, wb.w)
                            sa = check_strong_stability(p, a.x, a.mult, a.idx, cfg)
                            sb = check_strong_stability(pq, b.x, b.mult, b.idx, cfg)
                            assert sa.strongly_stable == sb.strongly_stable

        # (d) determinant sign and inertia under congruence mixing
        for _ in range(200):
            d = int(rng.integers(1, 5))
            w = rng.uniform(0.2, 3.0, size=d) * rng.choice([-1.0, 1.0], size=d)
            Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            S = Q @ np.diag(w) @ Q.T
            S = 0.5 * (S + S.T)
            B = rng.normal(size=(d, d))
            while abs(np.linalg.det(B)) < 0.1:
                B = rng.normal(size=(d, d))
            M = B.T @ S @ B
            M = 0.5 * (M + M.T)
            assert det_sign(M) == det_sign(S)
            assert inertia(M) == inertia(S)

        assert swap_checked >= 20
        assert scale_checked == 25
        assert total_points >= 50  # the corpus must actually exercise the search


def test_criterion_8_derivative_oracle():
    with criterion(8, "forward derivatives vs central differences", 5.0):
        from tests.test_expr import _random_polynomial

        rng = np.random.default_rng(31415)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            e = _random_polynomial(rng, n)
            x = rng.uniform(-2.0, 2.0, size=n)
            g = eval_gradient(e, x)
            H = eval_hessian(e, x)
            for i in range(n):
                h = 1e-5 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd_g = (eval_value(e, xp) - eval_value(e, xm)) / (2 * h)
                assert abs(fd_g - g[i]) <= 1e-6 * max(1.0, abs(g[i]))
                fd_H = (eval_gradient(e, xp) - eval_gradient(e, xm)) / (2 * h)
                assert np.all(
                    np.abs(fd_H - H[i]) <= 1e-5 * np.maximum(1.0, np.abs(H[i]))
                )
