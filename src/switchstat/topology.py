"""Empirical probing of sublevel-set topology on low-dimensional grids.

The feasible set of a switching program has measure zero wherever a product
constraint is active, so a raw grid sampling would miss it.  The mask
therefore thickens every constraint to one grid cell, scaled by the local
gradient magnitude: a node passes when each constraint residual is within
``feas_scale * spacing * (1 + |grad|)``.  Connected components of
``{feasible, f <= a}`` are labelled with ``scipy.ndimage.label`` under full
diagonal adjacency (8 neighbours in 2-D, 26 in 3-D) so one-cell-wide bands
never fragment.  Sweeping the level and comparing the count changes against
the stationary values gives a desk-scale check of the deformation and
cell-attachment behaviour, and counting minimizers against index-one
saddles checks the mountain-pass inequality.

Dimensions above 3 are rejected; the grid cost grows like resolution^n and
the probe exists for verification, not scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classify import Classification
from .expr import Add, Const, Div, Expr, Func, Mul, Neg, Pow, Problem, Sub, Var

__all__ = [
    "GridSpec",
    "LevelSweep",
    "ChangePoint",
    "CriticalLevelReport",
    "MountainPassReport",
    "DimensionError",
    "DegenerateInputError",
    "feasibility_mask",
    "objective_values",
    "sublevel_components",
    "sublevel_labels",
    "sweep_levels",
    "critical_level_report",
    "mountain_pass_check",
]

MAX_GRID_DIM = 3


class DimensionError(ValueError):
    """Grid probing is limited to problems in at most 3 variables."""


class DegenerateInputError(ValueError):
    """Mountain-pass counting requires nondegenerate points only."""


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned sampling lattice: per-axis (lo, hi) bounds and a common
    points-per-axis resolution."""

    box: tuple[tuple[float, float], ...]
    resolution: int
    feas_scale: float = 1.0

    def __post_init__(self):
        if len(self.box) > MAX_GRID_DIM:
            raise DimensionError(
                f"grids support at most {MAX_GRID_DIM} axes, got {len(self.box)}"
            )
        if self.resolution < 16:
            raise ValueError(f"resolution must be >= 16, got {self.resolution}")
        for lo, hi in self.box:
            if not hi > lo:
                raise ValueError(f"empty axis range [{lo}, {hi}]")

    @property
    def n(self):
        return len(self.box)

    @property
    def spacing(self):
        """Largest axis spacing; the thickening length scale."""
        return max((hi - lo) / (self.resolution - 1) for lo, hi in self.box)

    def axes(self):
        return [np.linspace(lo, hi, self.resolution) for lo, hi in self.box]

    def mesh(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    @staticmethod
    def for_problem(p: Problem, box, resolution=None, feas_scale=1.0):
        """Default grid for a problem: the scalar box pair on every axis,
        401 points per axis up to 2-D and 101 in 3-D."""
        if p.n > MAX_GRID_DIM:
            raise DimensionError(
                f"grids support at most {MAX_GRID_DIM} variables, got n={p.n}"
            )
        if resolution is None:
            resolution = 401 if p.n <= 2 else 101
        lo, hi = float(box[0]), float(box[1])
        return GridSpec(((lo, hi),) * p.n, resolution, feas_scale)


# ---------------------------------------------------------------------------
# vectorised expression evaluation over a mesh
# ---------------------------------------------------------------------------


def _mesh_value(e: Expr, mesh):
    if isinstance(e, Const):
        return np.full(mesh[0].shape, e.value)
    if isinstance(e, Var):
        return mesh[e.index]
    if isinstance(e, Add):
        return _mesh_value(e.a, mesh) + _mesh_value(e.b, mesh)
    if isinstance(e, Sub):
        return _mesh_value(e.a, mesh) - _mesh_value(e.b, mesh)
    if isinstance(e, Mul):
        return _mesh_value(e.a, mesh) * _mesh_value(e.b, mesh)
    if isinstance(e, Div):
        return _mesh_value(e.a, mesh) / _mesh_value(e.b, mesh)
    if isinstance(e, Pow):
        base = _mesh_value(e.base, mesh)
        with np.errstate(divide="ignore"):
            return base ** float(e.exponent)
    if isinstance(e, Neg):
        return -_mesh_value(e.a, mesh)
    if isinstance(e, Func):
        arg = _mesh_value(e.arg, mesh)
        if e.name == "sin":
            return np.sin(arg)
        if e.name == "cos":
            return np.cos(arg)
        if e.name == "exp":
            return np.exp(arg)
        if e.name == "log":
            return np.log(np.where(arg > 0, arg, np.nan))
    raise TypeError(f"unknown node {type(e).__name__}")  # pragma: no cover


def _mesh_value_grad(e: Expr, mesh):
    """(value array, list of partial-derivative arrays) over the mesh."""
    n = len(mesh)
    if isinstance(e, Const):
        z = np.zeros(mesh[0].shape)
        return np.full(mesh[0].shape, e.value), [z] * n
    if isinstance(e, Var):
        g = [np.zeros(mesh[0].shape) for _ in range(n)]
        g[e.index] = np.ones(mesh[0].shape)
        return mesh[e.index], g
    if isinstance(e, (Add, Sub)):
        sign = 1.0 if isinstance(e, Add) else -1.0
        va, ga = _mesh_value_grad(e.a, mesh)
        vb, gb = _mesh_value_grad(e.b, mesh)
        return va + sign * vb, [ga[i] + sign * gb[i] for i in range(n)]
    if isinstance(e, Mul):
        va, ga = _mesh_value_grad(e.a, mesh)
        vb, gb = _mesh_value_grad(e.b, mesh)
        return va * vb, [va * gb[i] + vb * ga[i] for i in range(n)]
    if isinstance(e, Div):
        va, ga = _mesh_value_grad(e.a, mesh)
        vb, gb = _mesh_value_grad(e.b, mesh)
        w = va / vb
        return w, [(ga[i] - w * gb[i]) / vb for i in range(n)]
    if isinstance(e, Pow):
        u, gu = _mesh_value_grad(e.base, mesh)
        m = e.exponent
        if m == 0:
            z = np.zeros(mesh[0].shape)
            return np.ones(mesh[0].shape), [z] * n
        with np.errstate(divide="ignore", invalid="ignore"):
            a = m * u ** float(m - 1)
            return u ** float(m), [a * gu[i] for i in range(n)]
    if isinstance(e, Neg):
        v, g = _mesh_value_grad(e.a, mesh)
        return -v, [-gi for gi in g]
    if isinstance(e, Func):
        u, gu = _mesh_value_grad(e.arg, mesh)
        if e.name == "sin":
            w, d = np.sin(u), np.cos(u)
        elif e.name == "cos":
            w, d = np.cos(u), -np.sin(u)
        elif e.name == "exp":
            w = np.exp(u)
            d = w
        else:  # log
            safe = np.where(u > 0, u, np.nan)
            w, d = np.log(safe), 1.0 / safe
        return w, [d * gu[i] for i in range(n)]
    raise TypeError(f"unknown node {type(e).__name__}")  # pragma: no cover


def objective_values(p: Problem, grid: GridSpec) -> np.ndarray:
    """Objective sampled over the grid (NaN where undefined)."""
    with np.errstate(all="ignore"):
        return np.asarray(_mesh_value(p.objective, grid.mesh()), dtype=float)


def feasibility_mask(p: Problem, grid: GridSpec) -> np.ndarray:
    """Boolean lattice of nodes within one gradient-scaled cell of the
    feasible set."""
    if p.n != grid.n:
        raise ValueError(f"grid has {grid.n} axes but the problem has n={p.n}")
    if p.n > MAX_GRID_DIM:
        raise DimensionError(f"feasibility masks need n <= {MAX_GRID_DIM}")
    mesh = grid.mesh()
    mask = np.ones(mesh[0].shape, dtype=bool)
    scale = grid.feas_scale * grid.spacing

    def tolerance(grads):
        norm = np.sqrt(sum(g * g for g in grads))
        return scale * (1.0 + norm)

    with np.errstate(all="ignore"):
        for h in p.equalities:
            v, g = _mesh_value_grad(h, mesh)
            mask &= np.isfinite(v) & (np.abs(v) <= tolerance(g))
        for gexpr in p.inequalities:
            v, g = _mesh_value_grad(gexpr, mesh)
            mask &= np.isfinite(v) & (v >= -tolerance(g))
        for f1, f2 in p.switches:
            v, g = _mesh_value_grad(Mul(f1, f2), mesh)
            mask &= np.isfinite(v) & (np.abs(v) <= tolerance(g))
    return mask


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def _active_labels(active):
    """Label the True nodes under full diagonal adjacency; returns
    (labels, count) where labels is flat int64, -1 outside, components
    numbered in scan order."""
    # imported here so analyze and relax, which never label, skip its cost
    from scipy import ndimage

    structure = np.ones((3,) * active.ndim, dtype=bool)
    labels, count = ndimage.label(active, structure=structure)
    return labels.ravel().astype(np.int64) - 1, int(count)


def sublevel_labels(
    p: Problem,
    grid: GridSpec,
    a: float,
    mask: Optional[np.ndarray] = None,
    fvals: Optional[np.ndarray] = None,
):
    """(flat labels, component count) of the feasible nodes with f <= a."""
    if mask is None:
        mask = feasibility_mask(p, grid)
    if fvals is None:
        fvals = objective_values(p, grid)
    with np.errstate(invalid="ignore"):
        active = mask & np.isfinite(fvals) & (fvals <= a)
    return _active_labels(active)


def sublevel_components(
    p: Problem,
    grid: GridSpec,
    a: float,
    mask: Optional[np.ndarray] = None,
    fvals: Optional[np.ndarray] = None,
) -> int:
    """Number of grid-connected components of the sampled sublevel set."""
    return sublevel_labels(p, grid, a, mask, fvals)[1]


@dataclass(frozen=True)
class LevelSweep:
    levels: tuple[float, ...]
    counts: tuple[int, ...]
    change_levels: tuple[float, ...]


def sweep_levels(
    p: Problem,
    grid: GridSpec,
    levels: Sequence[float],
    mask: Optional[np.ndarray] = None,
    fvals: Optional[np.ndarray] = None,
) -> LevelSweep:
    """Component counts across ascending levels over one shared mask."""
    levels = [float(a) for a in levels]
    if levels != sorted(levels):
        raise ValueError("levels must be sorted ascending")
    if not levels:
        return LevelSweep((), (), ())
    if mask is None:
        mask = feasibility_mask(p, grid)
    if fvals is None:
        fvals = objective_values(p, grid)
    counts = [sublevel_components(p, grid, a, mask, fvals) for a in levels]
    changes = tuple(
        levels[i] for i in range(1, len(levels)) if counts[i] != counts[i - 1]
    )
    return LevelSweep(tuple(levels), tuple(counts), changes)


@dataclass(frozen=True)
class ChangePoint:
    level: float
    prev_level: float
    count: int
    prev_count: int
    nearest_value: Optional[float]
    gap: float
    bracketed: bool


@dataclass(frozen=True)
class CriticalLevelReport:
    changes: tuple[ChangePoint, ...]
    consistent: bool


def critical_level_report(sweep: LevelSweep, stationary) -> CriticalLevelReport:
    """Compare count changes with the stationary objective values.

    Each change between consecutive levels is matched to the nearest
    stationary value; it counts as bracketed when that value lies within one
    level step of the change interval.  The report is CONSISTENT when every
    change is bracketed (grid effects can still produce spurious changes, so
    an inconsistency is a diagnostic, not an error).
    """
    values = sorted({pt.f_value for pt in stationary})
    changes = []
    for i in range(1, len(sweep.levels)):
        if sweep.counts[i] == sweep.counts[i - 1]:
            continue
        lo, hi = sweep.levels[i - 1], sweep.levels[i]
        step = hi - lo
        nearest = None
        gap = np.inf
        for v in values:
            d = 0.0 if lo <= v <= hi else min(abs(v - lo), abs(v - hi))
            if d < gap:
                nearest, gap = v, d
        changes.append(
            ChangePoint(
                level=hi,
                prev_level=lo,
                count=sweep.counts[i],
                prev_count=sweep.counts[i - 1],
                nearest_value=nearest,
                gap=float(gap) if nearest is not None else np.inf,
                bracketed=nearest is not None and gap <= step,
            )
        )
    return CriticalLevelReport(
        tuple(changes), consistent=all(c.bracketed for c in changes)
    )


@dataclass(frozen=True)
class MountainPassReport:
    r: int                      # local minimizers (w-index 0)
    r_s: int                    # saddles with w-index 1
    holds: bool                 # r_s >= r - 1
    compact_assumed: bool
    connected_assumed: bool
    ties: tuple[tuple[float, ...], ...]  # groups of coinciding values


def mountain_pass_check(
    classified: Sequence[Classification],
    compact_assumed: bool = True,
    connected_assumed: bool = True,
    tie_tol: float = 1e-9,
) -> MountainPassReport:
    """Count minimizers against index-one saddles.

    All points must be nondegenerate (raises
    :class:`DegenerateInputError` otherwise).  Compactness and connectedness
    of the feasible set cannot be certified from samples and are echoed as
    caller-asserted flags.  Coinciding stationary values are reported as
    ties; the inequality itself does not depend on the values, so the
    verdict is still computed, but the per-level component bookkeeping is
    unreliable at tied levels.
    """
    for c in classified:
        if not c.nd.nondegenerate:
            raise DegenerateInputError(
                f"point {c.x} is degenerate; mountain-pass counting needs"
                " nondegenerate points"
            )
    r = sum(1 for c in classified if c.w.w == 0)
    r_s = sum(1 for c in classified if c.w.w == 1)
    values = sorted(c.f_value for c in classified)
    ties = []
    group = [values[0]] if values else []
    for v in values[1:]:
        if v - group[-1] <= tie_tol:
            group.append(v)
        else:
            if len(group) > 1:
                ties.append(tuple(group))
            group = [v]
    if len(group) > 1:
        ties.append(tuple(group))
    return MountainPassReport(
        r=r,
        r_s=r_s,
        holds=r_s >= r - 1,
        compact_assumed=compact_assumed,
        connected_assumed=connected_assumed,
        ties=tuple(ties),
    )
