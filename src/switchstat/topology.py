"""Empirical probing of sublevel-set topology on low-dimensional grids.

The feasible set of a switching program has measure zero wherever a product
constraint is active, so a raw grid sampling would miss it.  The mask
therefore thickens every constraint to one grid cell, scaled by the local
gradient magnitude: a node passes when each constraint residual is within
``feas_scale * spacing * (1 + |grad|)``.  The mask and the objective are
the trees' own walk ``_derivatives``, at orders 1 and 0, on :class:`_Mesh`
carriers over an open mesh, slab by slab along the first axis: each node
runs at the broadcast shape of the axes its subtree reads, so only nodes
reading every axis run at full size and temporaries stay a few MiB.  The caller
computes the two arrays once per grid and every labelling and sweep reads
them.  Connected components of ``{feasible, f <= a}`` are labelled under
full diagonal adjacency (8 neighbours in 2-D, 26 in 3-D), so one-cell-wide
bands never fragment, by a run-based labeller in numpy: runs of nodes along
one axis, joined across neighbouring lines.  A level sweep labels each
distinct sublevel set once, inside its bounding box, and paints node labels
only when they are asked for; a level whose set repeats the previous
level's reuses its count and labels.  Painted labels run along the last
axis, which numbers the components in raster-scan order; a sweep that only
counts runs along the axis where the feasible nodes have clearly the fewest
runs, since the labeller's cost follows the runs.  Sweeping the level and
comparing the count changes against the stationary values gives a
desk-scale check of the deformation and cell-attachment behaviour, and
counting minimizers against index-one saddles checks the mountain-pass
inequality.

Dimensions above 3 are rejected, and so are grids of more than
``_MAX_GRID_NODES`` nodes: the grid cost grows like resolution^n and the
probe exists for verification, not scale.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classify import Classification
from .expr import Expr, Mul, Problem, _expr_shape, _operator, _rebuild
from .stationarity import CombinatorialCapError

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

# The most nodes a grid may have: 2**24 nodes hold a 128 MiB float64 objective
# array, and the mask, the labels and a report's labels add to that.
_MAX_GRID_NODES = 2**24


class DimensionError(ValueError):
    """Grid probing is limited to problems in at most 3 variables."""


class DegenerateInputError(ValueError):
    """Mountain-pass counting requires nondegenerate points only."""


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned sampling lattice: per-axis (lo, hi) bounds and a common
    points-per-axis resolution, of at most ``_MAX_GRID_NODES`` nodes
    (CombinatorialCapError beyond)."""

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
        if self.resolution ** len(self.box) > _MAX_GRID_NODES:
            raise CombinatorialCapError(
                f"a grid of {self.resolution}^{len(self.box)} nodes exceeds"
                f" the grid cap of {_MAX_GRID_NODES} nodes"
            )
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


# Nodes per slab: the mask and the objective are evaluated over slabs of whole
# rows of the first axis of about this many nodes, so temporaries stay small.
_SLAB_NODES = 1 << 16


# name -> (numpy function, derivative from the argument u and value w); the
# argument of log is first set to NaN where it is not positive
_MESH_FUNCTIONS = {
    "sin": (np.sin, lambda u, w: np.cos(u)),
    "cos": (np.cos, lambda u, w: -np.sin(u)),
    "exp": (np.exp, lambda u, w: w),
    "log": (np.log, lambda u, w: 1.0 / u),
}


class _Mesh:
    """Values ``a`` over a mesh: a carrier that the trees' own walk
    ``_derivatives`` runs on at orders 0 and 1 in place of floats.  Its
    arithmetic is numpy's, at the broadcast shape of the axes a node reads.
    It equals only itself, so the walks' zero tests are false and inf and
    nan flow on; ``**`` is numpy's array power ``a ** float(m)``, also where
    ``a`` is a 0-d result; :meth:`call` applies :data:`_MESH_FUNCTIONS`."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def _arith(self, other, op, flip):
        """``self op other``, or ``other op self`` when ``flip``."""
        b = other.a if type(other) is _Mesh else other
        return _Mesh(op(b, self.a) if flip else op(self.a, b))

    __add__, __radd__ = _operator(_arith, operator.add)
    __sub__, __rsub__ = _operator(_arith, operator.sub)
    __mul__, __rmul__ = _operator(_arith, operator.mul)
    __truediv__, __rtruediv__ = _operator(_arith, operator.truediv)

    def __neg__(self):
        return _Mesh(-self.a)

    def __pow__(self, m):
        return _Mesh(np.asarray(self.a) ** float(m))

    def call(self, name):
        f, df = _MESH_FUNCTIONS[name]
        u = np.where(self.a > 0, self.a, np.nan) if name == "log" else self.a
        w = f(u)
        return _Mesh(w), _Mesh(df(u, w)), None  # no second derivative


def _mesh_tree(e: Expr):
    """``e`` with each constant a 0-d :class:`_Mesh`, so that its own walks
    run on carriers throughout, Var-free subtrees too."""
    consts = []
    shape = _expr_shape(e, consts)
    return _rebuild(shape, (_Mesh(np.array(c)) for c in consts))


def _by_slabs(p: Problem, grid: GridSpec, dtype, fill):
    """Lattice array whose slabs of the first axis are ``fill(x, shape)``,
    ``x`` being the :class:`_Mesh` carriers of the slab's open mesh, each
    broadcast into the slab, all under one ``np.errstate(all="ignore")``."""
    if p.n != grid.n:
        raise ValueError(f"grid has {grid.n} axes but the problem has n={p.n}")
    axes = grid.axes()
    out = np.empty(tuple(len(a) for a in axes), dtype=dtype)
    rows = max(1, _SLAB_NODES // (out.size // len(out)))
    with np.errstate(all="ignore"):
        for lo in range(0, len(out), rows):
            slab = out[lo : lo + rows]
            mesh = np.meshgrid(
                axes[0][lo : lo + rows], *axes[1:], indexing="ij", sparse=True
            )
            slab[...] = fill([_Mesh(a) for a in mesh], slab.shape)
    return out


def objective_values(p: Problem, grid: GridSpec) -> np.ndarray:
    """Objective sampled over the grid (NaN where undefined): the tree's own
    ``val`` on the open mesh carrier, where only the nodes whose subtree
    reads every axis run at the full slab shape."""
    tree = _mesh_tree(p.objective)
    return _by_slabs(p, grid, float, lambda x, shape: tree.val(x).a)


def feasibility_mask(p: Problem, grid: GridSpec) -> np.ndarray:
    """Boolean lattice of nodes within one gradient-scaled cell of the
    feasible set: each constraint's own ``_derivatives`` at order 1 on the
    open mesh carrier, at the shape of the axes each node reads, its check
    broadcast into a mask of the full slab shape."""
    scale = grid.feas_scale * grid.spacing
    # (constraint, two-sided): equalities and switch products must be near
    # zero, inequalities only not far below it
    checks = (
        [(_mesh_tree(h), True) for h in p.equalities]
        + [(_mesh_tree(g), False) for g in p.inequalities]
        + [(_mesh_tree(Mul(f1, f2)), True) for f1, f2 in p.switches]
    )

    def fill(x, shape):
        mask = np.ones(shape, dtype=bool)
        for tree, two_sided in checks:
            v, g, _ = tree._derivatives(x, 1)
            sq = sum(gi * gi for gi in g)  # a carrier, or a float
            tol = scale * (1.0 + np.sqrt(getattr(sq, "a", sq)))
            near = np.abs(v.a) <= tol if two_sided else v.a >= -tol
            mask &= np.isfinite(v.a) & near
        return mask

    return _by_slabs(p, grid, bool, fill)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def _label(active, paint=True):
    """(labels, count): the True nodes of ``active`` labelled under full
    diagonal adjacency, components numbered from 1 in scan order, 0 outside;
    labels is None unless ``paint``.

    Run-based labelling (He, Chao and Suzuki, IEEE TIP 17(5), 2008).  The
    nodes are copied into a lattice one False slice longer along every axis,
    so that no run of True nodes along the last axis crosses into the next
    line, and a neighbouring line beyond the box is a padding line without
    runs.  A run joins the runs of each forward neighbouring line (1 in 2-D;
    (0, 1), (1, -1), (1, 0) and (1, 1) in 3-D) whose intervals overlap its
    own widened by one node, found by ``searchsorted`` on the flat start and
    end keys.  The joined runs are united by hooking each root to the
    smaller root and jumping pointers until nothing changes (Shiloach and
    Vishkin, J. Algorithms 3, 1982); each round removes a root, so this
    ends.  A root is then the least run of its component, in scan order, so
    ranking the roots numbers the components as a raster scan does.

    Past a few passes over the nodes, the cost follows the runs.  A smooth
    objective's sublevel set has few runs per line; a noise-like mask, whose
    lines break into many short runs, labels several times slower than a
    node-by-node scan would.
    """
    shape = tuple(n + 1 for n in active.shape)
    padded = np.zeros(math.prod(shape) + 1, dtype=bool)
    padded[1:].reshape(shape)[tuple(map(slice, active.shape))] = active
    # flat keys of each run's first node and of the node after its last
    starts, ends = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2).T
    # the flat key shift to each forward neighbouring line
    shifts = np.array(
        [
            sum(o * math.prod(shape[k + 1 :]) for k, o in enumerate(off))
            for off in itertools.product((-1, 0, 1), repeat=active.ndim - 1)
            if off > (0,) * (active.ndim - 1)
        ],
        dtype=np.intp,
    ).reshape(-1, 1)
    # joins[i, r]: the runs of line i ending at or after run r's start - 1
    # and starting at or before its end + 1, from first[i, r] on
    first = np.searchsorted(ends, starts + shifts, "left").ravel()
    joins = np.searchsorted(starts, ends + shifts, "right").ravel() - first
    group = np.repeat(np.cumsum(joins) - joins, joins)
    u = np.repeat(np.tile(np.arange(len(starts)), len(shifts)), joins)
    v = np.repeat(first, joins) + np.arange(len(group)) - group
    parent = np.arange(len(starts))
    while u.size:
        # u and v are roots here: hook the larger to the smaller
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
        u, v = parent[u], parent[v]
        u, v = u[u != v], v[u != v]
    root = parent == np.arange(len(parent))
    count = int(np.count_nonzero(root))
    if not paint:
        return None, count
    labels = np.zeros(active.shape, dtype=np.int32)
    labels[active] = np.repeat(np.cumsum(root)[parent], ends - starts)
    return labels, count


def _flat_labels(shape, box, labels):
    """Flat int64 labels of a lattice of ``shape``: ``labels - 1`` inside
    ``box`` (a tuple of slices, or None for an empty set), -1 elsewhere."""
    out = np.full(shape, -1, dtype=np.int64)
    if box is not None:
        np.subtract(labels, 1, out=out[box])
    return out.ravel()


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


# Runs are counted on every 4th line, 1/16 of the nodes per axis in 3-D: on
# the 212 grids of tools/sweep_traffic.py it picks the axis that counting
# every line picks, or one whose sweep is within 0.1 ms of it.
_RUN_SAMPLE_STEP = 4


def _fewest_runs_axis(ok):
    """The axis along which a counts-only sweep labels the sets of ``ok``:
    the one with the fewest runs of True nodes on every
    ``_RUN_SAMPLE_STEP``-th line, if they are at most half the last axis's
    runs, else the last axis.  The copy that moves an axis last costs about
    what a small cut in runs saves: on the 31 grids of 101^3 nodes of
    tools/sweep_traffic.py, the five whose fewest runs were at most 0.39 of
    the last axis's swept 0.15-21 ms faster along that axis, and cuts to
    0.53-0.93 ranged from 1.9 ms faster to 0.7 ms slower."""
    last = ok.ndim - 1
    runs = []
    for k in range(ok.ndim):
        lines = np.moveaxis(ok, k, -1)[(slice(None, None, _RUN_SAMPLE_STEP),) * last]
        starts = np.count_nonzero(lines[..., 1:] > lines[..., :-1])
        runs.append(np.count_nonzero(lines[..., 0]) + starts)
    k = min(range(ok.ndim), key=lambda j: (runs[j], j != last))
    return k if 2 * runs[k] <= runs[last] else last


def _sublevel_sets(mask, fvals, levels, out):
    """Yield ``(labels, count)`` for each level's set of the ``mask`` nodes
    whose ``fvals`` is finite and at most the level: ``labels`` is ``out``
    of the flat labels array, or None without ``out``, which builds none.

    Each set is labelled inside its bounding box: raster order restricted
    to a box is raster order, so the components and their scan-order
    numbers are those of labelling the whole lattice.  The sets of two
    levels are nested, so a set with as many nodes as the previous level's
    is that set: it is not labelled again and yields the same tuple.
    Without ``out`` each set is labelled along the axis that
    :func:`_fewest_runs_axis` picks once for the sweep, which changes no
    count; with ``out`` along the last axis, as the scan-order numbers need.
    """
    ok = mask & np.isfinite(fvals)
    minima = _slab_minima(ok, fvals)
    # painted labels need the raster-scan numbering along the last axis
    axis = ok.ndim - 1 if out else _fewest_runs_axis(ok)
    last, last_nodes = None, 0
    for a in levels:
        box, nodes = _level_box(minima, a), 0
        if box is not None:
            with np.errstate(invalid="ignore"):
                active = fvals[box] <= a
            active &= ok[box]
            nodes = np.count_nonzero(active)
        if last is None or nodes != last_nodes:
            if nodes:
                labels, count = _label(np.moveaxis(active, axis, -1), bool(out))
            else:
                labels, count = None, 0
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
    groups = []  # the sorted values, split where neighbours are apart
    for v in sorted(c.f_value for c in classified):
        if groups and v - groups[-1][-1] <= tie_tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    ties = [tuple(g) for g in groups if len(g) > 1]
    return MountainPassReport(
        r=r,
        r_s=r_s,
        holds=r_s >= r - 1,
        compact_assumed=compact_assumed,
        connected_assumed=connected_assumed,
        ties=tuple(ties),
    )
