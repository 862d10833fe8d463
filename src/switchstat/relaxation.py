"""Relaxing switching constraints and tracking KKT points to the limit.

Each switching product is relaxed into the two inequalities
``t - F1*F2 >= 0`` and ``t + F1*F2 >= 0`` for a parameter ``t > 0``, which
turns the program into an ordinary NLP whose KKT points can be found with
the same branch search.  Continuation reduces ``t`` geometrically, warm
starting Newton at every step with the active set frozen from the previous
step (re-detected, then searched exhaustively, on failure).  The reported
limit is the tracked point's matched W-stationary point of the original
program when one lies within ``match_radius``, otherwise the final iterate;
multipliers may legitimately diverge along a path and are flagged, not
treated as failure, while the iterates stay accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import Add, Const, Mul, Problem, Sub
from .stationarity import (
    DEFAULT_CONFIG,
    BranchPattern,
    Multipliers,
    SolveConfig,
    WStationaryPoint,
    _pattern_slots,
    _residual,
    _slot_values,
    active_sets,
    complementarity_violation,
    enumerate_branches,
    feasibility_violation,
    find_stationary_points,
    newton_solve_branch,
    stationarity_residual,
)

__all__ = [
    "RelaxedProblem",
    "PathSample",
    "ContinuationPath",
    "PathLossError",
    "relax",
    "kkt_points_relaxed",
    "continue_path",
]


@dataclass(frozen=True)
class RelaxedProblem:
    """A switching program with its product constraints widened to a band."""

    base: Problem
    t: float
    problem: Problem  # plain NLP, no switching pairs


@dataclass(frozen=True)
class PathSample:
    t: float
    x: tuple[float, ...]
    mult: Multipliers
    residual: float


@dataclass(frozen=True)
class ContinuationPath:
    samples: tuple[PathSample, ...]
    final_x: tuple[float, ...]
    limit: tuple[float, ...]
    matched_stationary: Optional[WStationaryPoint]
    multiplier_blowup: bool


class PathLossError(RuntimeError):
    """Newton failed even after active-set re-detection; carries the partial
    path in ``path``."""

    def __init__(self, message, path: ContinuationPath):
        super().__init__(message)
        self.path = path


def relax(p: Problem, t: float) -> RelaxedProblem:
    """Relax every switching product into a band of width ``2 t``.

    A problem without switching pairs is returned unchanged.  Raises
    ``ValueError`` for ``t <= 0``.
    """
    if not t > 0:
        raise ValueError(f"relaxation parameter must be positive, got {t}")
    if p.k == 0:
        return RelaxedProblem(base=p, t=float(t), problem=p)
    extra = []
    for f1, f2 in p.switches:
        prod = Mul(f1, f2)
        extra.append(Sub(Const(float(t)), prod))
        extra.append(Add(Const(float(t)), prod))
    relaxed = Problem(
        n=p.n,
        var_names=p.var_names,
        objective=p.objective,
        equalities=p.equalities,
        inequalities=p.inequalities + tuple(extra),
        switches=(),
    )
    return RelaxedProblem(base=p, t=float(t), problem=relaxed)


def kkt_points_relaxed(
    rp: RelaxedProblem, box, cfg: SolveConfig = DEFAULT_CONFIG
) -> list[WStationaryPoint]:
    """KKT points of the relaxed NLP inside ``box`` (sorted by coordinates)."""
    return find_stationary_points(rp.problem, box, cfg)


def _frozen_pattern(rp, x, cfg):
    idx = active_sets(rp.problem, x, cfg)
    m = len(rp.problem.inequalities)
    return BranchPattern((), tuple(j in set(idx.j0) for j in range(m)))


def _loose_pattern(rp, x, threshold):
    xl = [float(v) for v in x]
    actives = tuple(
        g.val(xl) <= threshold for g in rp.problem.inequalities
    )
    return BranchPattern((), actives)


def _accept_step(rp, outcome, cfg):
    if outcome is None:
        return None
    x, mult = outcome
    feas = feasibility_violation(rp.problem, x)
    if feas > cfg.tol_feas:
        return None
    if any(mj < -cfg.tol_sign for mj in mult.mu):
        return None
    resid = _residual(
        rp.problem, x, mult, feas, complementarity_violation(rp.problem, x, mult)
    )
    if resid > cfg.tol_resid:
        return None
    return x, mult, resid


def continue_path(
    p: Problem,
    seed: WStationaryPoint,
    t0: float,
    rho: float,
    t_min: float,
    cfg: SolveConfig = DEFAULT_CONFIG,
    stationary: Optional[list[WStationaryPoint]] = None,
) -> ContinuationPath:
    """Track a KKT point of the relaxation from ``t0`` down to ``t_min``.

    ``seed`` must be a KKT point of the relaxation at ``t0`` within
    ``tol_resid``.  The schedule is ``t <- max(rho * t, t_min)`` until
    ``t_min`` is reached.  ``stationary`` optionally supplies the original
    problem's W-stationary points for limit matching; when omitted they are
    searched in a box around the path's end.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    if not 0.0 < t_min <= t0:
        raise ValueError(f"need 0 < t_min <= t0, got t_min={t_min}, t0={t0}")
    rp = relax(p, t0)
    seed_resid = stationarity_residual(rp.problem, seed.x, seed.mult)
    if seed_resid > cfg.tol_resid:
        raise ValueError(
            f"seed residual {seed_resid:.3e} exceeds tol_resid at t0={t0}"
        )
    samples = [PathSample(float(t0), seed.x, seed.mult, seed_resid)]
    pattern = _frozen_pattern(rp, seed.x, cfg)
    x_prev = np.array(seed.x, dtype=float)
    mult_prev = seed.mult

    t = float(t0)
    while t > t_min:
        t_next = max(rho * t, t_min)
        rp = relax(p, t_next)
        warm = _slot_values(mult_prev, _pattern_slots(rp.problem, pattern))
        step = _accept_step(
            rp,
            newton_solve_branch(rp.problem, pattern, x_prev, cfg, mult_start=warm),
            cfg,
        )
        if step is None:
            # active set changed: re-detect near the previous iterate, then
            # fall back to trying every pattern and keep the nearest root
            loose = _loose_pattern(rp, x_prev, max(cfg.tol_active, 2.0 * (t - t_next)))
            if loose != pattern:
                warm = _slot_values(mult_prev, _pattern_slots(rp.problem, loose))
                step = _accept_step(
                    rp,
                    newton_solve_branch(
                        rp.problem, loose, x_prev, cfg, mult_start=warm
                    ),
                    cfg,
                )
                if step is not None:
                    pattern = loose
        if step is None:
            best = None
            for pat in enumerate_branches(rp.problem, cfg):
                cand = _accept_step(
                    rp, newton_solve_branch(rp.problem, pat, x_prev, cfg), cfg
                )
                if cand is None:
                    continue
                dist = float(np.linalg.norm(np.asarray(cand[0]) - x_prev))
                if best is None or dist < best[0]:
                    best = (dist, pat, cand)
            if best is not None:
                pattern = best[1]
                step = best[2]
        if step is None:
            partial = _finish_path(p, samples, stationary, cfg)
            raise PathLossError(
                f"continuation lost the path at t={t_next:.3e}", partial
            )
        x_new, mult_new, resid = step
        x_prev = np.asarray(x_new, dtype=float)
        mult_prev = mult_new
        samples.append(
            PathSample(float(t_next), tuple(float(v) + 0.0 for v in x_new), mult_new, resid)
        )
        t = t_next
    return _finish_path(p, samples, stationary, cfg)


def _finish_path(p, samples, stationary, cfg):
    final_x = samples[-1].x
    if stationary is None:
        span = max(1.0, max(abs(v) for v in final_x))
        candidates = find_stationary_points(p, (-span - 1.0, span + 1.0), cfg)
    else:
        candidates = stationary
    matched = None
    best = None
    for pt in candidates:
        dist = float(
            np.linalg.norm(np.asarray(final_x) - np.asarray(pt.x))
        )
        if dist <= cfg.match_radius and (best is None or dist < best):
            matched, best = pt, dist
    limit = matched.x if matched is not None else final_x
    first = samples[0].mult.max_magnitude()
    last = samples[-1].mult.max_magnitude()
    blowup = last > 1e3 * (1.0 + first)
    return ContinuationPath(
        samples=tuple(samples),
        final_x=final_x,
        limit=limit,
        matched_stationary=matched,
        multiplier_blowup=blowup,
    )
