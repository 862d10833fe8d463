"""Empirical probing of sublevel-set topology on low-dimensional grids.

The feasible set of a switching program has measure zero wherever a product
constraint is active, so a raw grid sampling would miss it.  The mask
therefore thickens every constraint to one grid cell, scaled by the local
gradient magnitude: a node passes when each constraint residual is within
``feas_scale * spacing * (1 + |grad|)``.  The mask and the objective are
evaluated slab by slab along the first axis, one expression-tree walk per
slab, so their temporaries stay a few MiB at any grid size.  The caller
computes the two arrays once per grid and every labelling and sweep reads
them.  Connected components of ``{feasible, f <= a}`` are labelled with
``scipy.ndimage.label`` under full diagonal adjacency (8 neighbours in 2-D,
26 in 3-D) so one-cell-wide bands never fragment.  A level sweep labels
each distinct sublevel set once, inside its bounding box; a level whose set
repeats the previous level's reuses its count and labels.  Sweeping the
level and comparing the count changes against the stationary values gives a
desk-scale check of the deformation and cell-attachment behaviour, and
counting minimizers against index-one saddles checks the mountain-pass
inequality.

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
    "sublevel_labels",
    "sweep_levels",
    "sweep_level_labels",
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
            if not hi - lo < np.inf:
                raise ValueError(f"box axis [{lo}, {hi}] has no finite width")
        if not 0.0 <= self.feas_scale < np.inf:
            raise ValueError(
                f"feas_scale must be finite and >= 0, got {self.feas_scale}"
            )

    @property
    def n(self):
        return len(self.box)

    @property
    def spacing(self):
        """Largest axis spacing; the thickening length scale."""
        return max((hi - lo) / (self.resolution - 1) for lo, hi in self.box)

    def axes(self):
        return [np.linspace(lo, hi, self.resolution) for lo, hi in self.box]

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


# Nodes per slab: the mask and the objective are evaluated over slabs of
# whole rows of the first axis, each holding about this many nodes, so the
# walker's temporaries stay small however large the grid is.
_SLAB_NODES = 1 << 16


# name -> (numpy function, derivative from the argument u and value w); the
# argument of log is first set to NaN where it is not positive
_MESH_FUNCTIONS = {
    "sin": (np.sin, lambda u, w: np.cos(u)),
    "cos": (np.cos, lambda u, w: -np.sin(u)),
    "exp": (np.exp, lambda u, w: w),
    "log": (np.log, lambda u, w: 1.0 / u),
}


def _mesh_eval(e: Expr, mesh, grad):
    """(value array, list of partial-derivative arrays or None) over the
    mesh; the caller sets the numpy error state."""
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
        u, gu = _mesh_eval(e.base, mesh, grad)
        m = e.exponent
        v = u ** float(m)
        if not grad:
            return v, None
        if m == 0:
            return v, [np.zeros(shape)] * n
        a = m * u ** float(m - 1)
        return v, [a * gi for gi in gu]
    if isinstance(e, Neg):
        v, g = _mesh_eval(e.a, mesh, grad)
        return -v, [-gi for gi in g] if grad else None
    if isinstance(e, Func):
        u, gu = _mesh_eval(e.arg, mesh, grad)
        if e.name == "log":
            u = np.where(u > 0, u, np.nan)
        f, df = _MESH_FUNCTIONS[e.name]
        w = f(u)
        if not grad:
            return w, None
        d = df(u, w)
        return w, [d * gi for gi in gu]
    if not isinstance(e, (Add, Sub, Mul, Div)):  # pragma: no cover
        raise TypeError(f"unknown node {type(e).__name__}")
    va, ga = _mesh_eval(e.a, mesh, grad)
    vb, gb = _mesh_eval(e.b, mesh, grad)
    if isinstance(e, Add):
        v, rule = va + vb, lambda x, y: x + y
    elif isinstance(e, Sub):
        v, rule = va - vb, lambda x, y: x - y
    elif isinstance(e, Mul):
        v, rule = va * vb, lambda x, y: va * y + vb * x
    else:
        v, rule = va / vb, lambda x, y: (x - v * y) / vb
    return v, [rule(x, y) for x, y in zip(ga, gb)] if grad else None


def _by_slabs(grid: GridSpec, dtype, fill):
    """Lattice array whose slabs of the first axis are ``fill(mesh)`` for
    that slab's mesh, all under one ``np.errstate(all="ignore")``."""
    axes = grid.axes()
    out = np.empty(tuple(len(a) for a in axes), dtype=dtype)
    rows = max(1, _SLAB_NODES // (out.size // len(out)))
    with np.errstate(all="ignore"):
        for lo in range(0, len(out), rows):
            mesh = np.meshgrid(axes[0][lo : lo + rows], *axes[1:], indexing="ij")
            out[lo : lo + rows] = fill(mesh)
    return out


def objective_values(p: Problem, grid: GridSpec) -> np.ndarray:
    """Objective sampled over the grid (NaN where undefined)."""
    def fill(mesh):
        return _mesh_eval(p.objective, mesh, False)[0]

    return _by_slabs(grid, float, fill)


def feasibility_mask(p: Problem, grid: GridSpec) -> np.ndarray:
    """Boolean lattice of nodes within one gradient-scaled cell of the
    feasible set."""
    if p.n != grid.n:
        raise ValueError(f"grid has {grid.n} axes but the problem has n={p.n}")
    scale = grid.feas_scale * grid.spacing
    # (constraint, two-sided): equalities and switch products must be near
    # zero, inequalities only not far below it
    checks = (
        [(h, True) for h in p.equalities]
        + [(g, False) for g in p.inequalities]
        + [(Mul(f1, f2), True) for f1, f2 in p.switches]
    )

    def fill(mesh):
        mask = np.ones(mesh[0].shape, dtype=bool)
        for e, two_sided in checks:
            v, g = _mesh_eval(e, mesh, True)
            tol = scale * (1.0 + np.sqrt(sum(gi * gi for gi in g)))
            near = np.abs(v) <= tol if two_sided else v >= -tol
            mask &= np.isfinite(v) & near
        return mask

    return _by_slabs(grid, bool, fill)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def _label(active):
    """(labels, count): the True nodes labelled under full diagonal
    adjacency, components numbered from 1 in scan order, 0 outside."""
    # imported here so analyze and relax, which never label, skip its cost
    from scipy import ndimage

    structure = np.ones((3,) * active.ndim, dtype=bool)
    labels, count = ndimage.label(active, structure=structure)
    return labels, int(count)


def _flat_labels(shape, box, labels):
    """Flat int64 labels of a lattice of ``shape``: ``labels - 1`` inside
    ``box`` (a tuple of slices, or None for an empty set), -1 elsewhere."""
    out = np.full(shape, -1, dtype=np.int64)
    if box is not None:
        np.subtract(labels, 1, out=out[box])
    return out.ravel()


def _active_labels(active):
    """Label the True nodes under full diagonal adjacency; returns
    (labels, count) where labels is flat int64, -1 outside, components
    numbered in scan order."""
    labels, count = _label(active)
    return _flat_labels(active.shape, (slice(None),) * active.ndim, labels), count


def _slab_minima(ok, fvals):
    """Per axis, the least ``fvals`` over the ``ok`` nodes of each slab
    across that axis; +inf for a slab without one."""
    axes = range(ok.ndim)
    return [
        np.min(fvals, axis=tuple(j for j in axes if j != i), where=ok, initial=np.inf)
        for i in axes
    ]


def _level_box(minima, a):
    """Per axis, the span of the slabs whose minimum is at most ``a``, as a
    tuple of slices; None when there is no such slab."""
    box = []
    for m in minima:
        hit = np.flatnonzero(m <= a)
        if not hit.size:
            return None
        box.append(slice(hit[0], hit[-1] + 1))
    return tuple(box)


def _sublevel_sets(mask, fvals, levels, out):
    """Yield ``(labels, count)`` for each level's set of the ``mask`` nodes
    whose ``fvals`` is finite and at most the level: ``labels`` is ``out``
    of the flat labels array, or None without ``out``, which builds none.

    Each set is labelled inside its bounding box: raster order restricted
    to a box is raster order, so the components and their scan-order
    numbers are those of labelling the whole lattice.  The sets of two
    levels are nested, so a set with as many nodes as the previous level's
    is that set: it is not labelled again and yields the same tuple.
    """
    ok = mask & np.isfinite(fvals)
    minima = _slab_minima(ok, fvals)
    last, last_nodes = None, 0
    for a in levels:
        box, nodes = _level_box(minima, a), 0
        if box is not None:
            with np.errstate(invalid="ignore"):
                active = fvals[box] <= a
            active &= ok[box]
            nodes = np.count_nonzero(active)
        if last is None or nodes != last_nodes:
            labels, count = _label(active) if nodes else (None, 0)
            last = (out(_flat_labels(ok.shape, box, labels)) if out else None, count)
            last_nodes = nodes
        yield last


def sublevel_labels(mask: np.ndarray, fvals: np.ndarray, a: float):
    """(flat labels, component count) of the nodes in ``mask`` whose sampled
    objective ``fvals`` is finite and at most ``a``."""
    return next(_sublevel_sets(mask, fvals, [a], np.asarray))


@dataclass(frozen=True)
class LevelSweep:
    levels: tuple[float, ...]
    counts: tuple[int, ...]
    change_levels: tuple[float, ...]


def _sweep(mask, fvals, levels, out):
    levels = [float(a) for a in levels]
    if levels != sorted(levels):
        raise ValueError("levels must be sorted ascending")
    sets = list(_sublevel_sets(mask, fvals, levels, out))
    counts = [count for _, count in sets]
    changes = tuple(
        levels[i] for i in range(1, len(levels)) if counts[i] != counts[i - 1]
    )
    return LevelSweep(tuple(levels), tuple(counts), changes), [lb for lb, _ in sets]


def sweep_levels(
    mask: np.ndarray, fvals: np.ndarray, levels: Sequence[float]
) -> LevelSweep:
    """Component counts of the sublevel sets of the sampled objective
    ``fvals`` within ``mask`` across ascending levels."""
    return _sweep(mask, fvals, levels, None)[0]


def sweep_level_labels(
    mask: np.ndarray, fvals: np.ndarray, levels: Sequence[float]
) -> tuple[LevelSweep, list[list[int]]]:
    """:func:`sweep_levels` and each level's :func:`sublevel_labels` array
    as a list of ints, as a report holds it; a level whose sublevel set is
    the previous level's shares its list."""
    return _sweep(mask, fvals, levels, np.ndarray.tolist)


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
