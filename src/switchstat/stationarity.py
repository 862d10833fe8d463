"""Locating W-stationary points by branch enumeration and damped Newton.

A feasible point is W-stationary when the objective gradient is a multiplier
combination of the active constraint gradients (equalities unrestricted,
active inequalities with nonnegative multipliers, each switching function
carrying a multiplier only where it vanishes).  The search realises the
complementarity conditions casewise: every switching pair is pinned to one
of three branches (first member zero / second member zero / both zero) and
every inequality to active/inactive, which turns the multiplier rule plus
the pinned constraints into a square nonlinear system.  All branch patterns
are enumerated, each is solved by damped Newton from a uniform grid of
starting points, and the surviving candidates are filtered by feasibility,
multiplier signs and an independently re-evaluated stationarity residual.

The search solves every pattern from every start in one batched damped
Newton run (:func:`_newton_solve_patterns`).  A lane is one (pattern, start)
pair.  Each solver states its Newton round once: the Jacobian, the Newton
step, the step blow-up test and the damping walk.  Every iteration is such a
round, and so is every polish step after convergence, with the one damping
factor 1.0, no blow-up test and no ``singular_jacobian`` count; a failed
polish round ends the polish and keeps the converged iterate.  A batched
round walks each expression once over the lanes that need it for their
Jacobians and once per damping walk for their residuals, only the former
with the Hessian (:func:`_batch_branch`), and solves each pattern's linear
systems in one stacked solve.  A round's damping walks cover several damping
factors of every lane still searching, the first walk as many per lane as
fit in a fixed number of rows and each later one twice as many, and each
lane takes the first factor that strictly lowers its residual.  All lanes
share one multiplier layout, a column per slot of the problem, and the
columns a lane's pattern does not pin stay exactly 0.0.  A batch holds at most
``_LANE_BUDGET`` lanes, so wide searches run as a few batches of whole
patterns.  Every lane runs the floating-point operations of the single-start
solver :func:`newton_solve_branch` in the same order, so each outcome, and
with it every accepted point, is bitwise the same as solving the lanes one at
a time.  Before any lane starts, the search leaves out every pattern whose
branch polyhedron an exact certificate (:func:`_branch_empty`) shows to be
empty: no point of the inflated search box holds its pinned affine
constraints within ``tol_resid`` and its unpinned affine inequalities within
``tol_feas``, each up to a rigorous rounding bound.  A lane of such a
pattern converges, if at all, to a point the accept filter drops as outside
the box or infeasible.  Continuation, which solves from one start at a
time, calls :func:`newton_solve_branch` directly.  Its residual and Jacobian
run as straight-line code compiled once per shape of the branch system (the
objective and the pinned constraints without their constant values),
bitwise equal to the trees' scalar derivative walk (:func:`_branch_system`),
without the Hessian for the residual and with it for the Jacobian; the
relaxed problems along a continuation path differ only in constants and
share it.

The accept filter (:func:`_accept_verdicts`) runs once per search, on the
bitwise-distinct converged ``x``: many lanes converge to the same bits (on
the benchmark's mid3 problem, 1125 converged lanes hold 493 distinct ``x``).
It walks each constraint function and the objective once over all of them
and decides the box, feasibility and activity on those arrays, the rest
candidate by candidate, bitwise as the scalar walks would.  Its verdict
reads nothing of a lane but ``x``, so a lane that repeats an earlier ``x``
bit for bit takes that verdict, and counting and deduplication still run per
lane: the result is exactly that of filtering every lane.  A point where a
constraint function is undefined is infeasible, and is dropped like any
other.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from .expr import (
    EvalDomainError,
    Expr,
    Problem,
    _affine_form,
    _expr_shape,
    _up,
    _StraightLine,
    eval_batch,
    eval_gradient,
    eval_value,
)
from .linalg import (
    DEFAULT_TOLS,
    SingularSystemError,
    ToleranceConfig,
    _check_square_residual,
    _check_tolerances,
    rank,
)

__all__ = [
    "SolveConfig",
    "IndexSets",
    "Multipliers",
    "BranchPattern",
    "WStationaryPoint",
    "Rejection",
    "SearchResult",
    "LicqReport",
    "CombinatorialCapError",
    "InfeasiblePointError",
    "LicqViolationError",
    "NotStationaryError",
    "active_sets",
    "licq_matrix",
    "check_licq",
    "recover_multipliers",
    "stationarity_residual",
    "feasibility_violation",
    "complementarity_violation",
    "enumerate_branches",
    "newton_solve_branch",
    "find_stationary_points",
    "search_stationary_points",
]


class CombinatorialCapError(RuntimeError):
    """Work would exceed its cap: branch or subset enumeration its
    configured cap, a continuation schedule the step cap, a multi-start grid
    the start cap, or a grid the node cap."""


class InfeasiblePointError(ValueError):
    """Operation requires a feasible point but got an infeasible one."""


class LicqViolationError(ValueError):
    """Operation requires LICQ but the active gradients are dependent."""


class NotStationaryError(ValueError):
    """Multiplier recovery succeeded but the stationarity residual is large."""


@dataclass(frozen=True)
class SolveConfig:
    """Search configuration: classification thresholds, Newton controls,
    enumeration caps and the shared linear-algebra tolerance policy."""

    tol_active: float = 1e-8      # activity threshold for index sets
    tol_feas: float = 1e-8        # feasibility slack
    tol_resid: float = 1e-10      # stationarity residual acceptance
    tol_sign: float = 1e-8        # dead zone for sign/strictness decisions
    tol_comp: float = 1e-8        # complementarity slack
    dedup_radius: float = 1e-6    # merge radius for duplicate points
    grid_points: int = 5          # multi-start points per axis
    max_iter: int = 50            # Newton iterations per branch solve
    max_halvings: int = 20        # step halvings per iteration
    polish_steps: int = 4         # extra full Newton steps after convergence
    pattern_cap: int = 100_000    # max number of branch patterns
    subset_cap: int = 4096        # max inequality subsets in stability checks
    match_radius: float = 1e-4    # continuation limit matching radius
    box_inflation: float = 0.10   # accepted points may exceed the box by this
    seed: int = 0                 # 0 = no multi-start jitter
    lin: ToleranceConfig = DEFAULT_TOLS

    def __post_init__(self):
        # a negative budget, cap or seed has no meaning: the batched solver,
        # which always tries the full step, would not match the single-start
        # one, every point would exceed the cap, and numpy rejects the seed
        for name in ("max_iter", "max_halvings", "polish_steps", "pattern_cap",
                     "subset_cap", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.grid_points < 1:
            raise ValueError(f"grid_points must be >= 1, got {self.grid_points}")
        # a nan, infinite or negative threshold or radius has no meaning
        _check_tolerances(self)


DEFAULT_CONFIG = SolveConfig()


@dataclass(frozen=True)
class IndexSets:
    """Active inequality indices and the switching-index partition.

    All indices are 0-based.  ``alpha``: only the first member vanishes,
    ``gamma``: only the second, ``beta``: both (bi-active).
    """

    j0: tuple[int, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]


@dataclass(frozen=True)
class Multipliers:
    """Multiplier vectors aligned with the problem's constraint lists.

    Entries forced to zero by complementarity are exactly 0.0.  ``unique``
    is False when LICQ failed and the vector is only a least-squares
    representative of the multiplier set.
    """

    lam: tuple[float, ...]
    mu: tuple[float, ...]
    sigma1: tuple[float, ...]
    sigma2: tuple[float, ...]
    unique: bool = True

    def max_magnitude(self):
        vals = self.lam + self.mu + self.sigma1 + self.sigma2
        return max((abs(v) for v in vals), default=0.0)


S1, S2, BOTH = "S1", "S2", "BOTH"
_SWITCH_CHOICES = (S1, S2, BOTH)


@dataclass(frozen=True)
class BranchPattern:
    """One casewise realisation of the complementarity conditions.

    ``switches[m]``: S1 pins the first member to zero (second multiplier 0),
    S2 the converse, BOTH pins both members.  ``actives[j]`` pins inequality
    j to zero with an unknown multiplier; inactive inequalities carry
    multiplier exactly 0.
    """

    switches: tuple[str, ...]
    actives: tuple[bool, ...]


@dataclass(frozen=True)
class WStationaryPoint:
    x: tuple[float, ...]
    f_value: float
    mult: Multipliers
    idx: IndexSets
    residual: float
    licq: bool
    source_pattern: Optional[BranchPattern] = None


@dataclass(frozen=True)
class Rejection:
    """Candidate dropped by the multiplier sign condition (kept for audit)."""

    x: tuple[float, ...]
    mult: Multipliers
    idx: IndexSets
    reason: str


@dataclass
class SearchResult:
    points: list[WStationaryPoint]
    rejected_sign: list[Rejection]
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LicqReport:
    holds: bool
    rank: int
    rows: int


# ---------------------------------------------------------------------------
# pointwise constraint data
# ---------------------------------------------------------------------------


def feasibility_violation(p: Problem, x) -> float:
    """Max-norm violation of equalities, inequalities and switching products;
    ``inf`` where a constraint function is undefined or its value is nan."""
    xl = [float(v) for v in x]
    try:
        V = [_slot_expr(p, s).val(xl) for s in _problem_slots(p)]
    except EvalDomainError:
        return math.inf
    return float(_feasibility(p, np.array(V).reshape(-1, 1))[0])


def _feasibility(p: Problem, V) -> np.ndarray:
    """:func:`feasibility_violation` of every column of ``V``, whose rows
    hold the constraint values of the slots of :func:`_problem_slots`.

    The terms |h|, max(0, -g) and |f1*f2| are folded in slot order as
    Python's ``max`` folds them: a term replaces the running maximum only
    when it is larger, so -0.0 never replaces 0.0.  The maximum starts at
    0.0 and never falls, so -g stands for max(0, -g).  A nan term (inf - inf
    in a constraint's walk) makes the violation ``inf``, as an undefined
    constraint does: no comparison passes it as feasible."""
    ne, ni = len(p.equalities), len(p.inequalities)
    pairs = ne + ni
    terms = [np.abs(V[i]) for i in range(ne)]
    terms += [-V[ne + j] for j in range(ni)]
    terms += [np.abs(V[pairs + 2 * m] * V[pairs + 2 * m + 1]) for m in range(p.k)]
    worst = np.zeros(V.shape[1])
    for t in terms:
        worst = np.where(np.isnan(t), math.inf, np.where(t > worst, t, worst))
    return worst


def complementarity_violation(p: Problem, x, mult: Multipliers) -> float:
    """Largest multiplier-times-constraint product magnitude over the
    inequality and switching slots; ``inf`` where a constraint with a
    nonzero multiplier is undefined, as :func:`feasibility_violation`."""
    xl = [float(v) for v in x]
    try:
        return _complementarity(p, mult, lambda s: _slot_expr(p, s).val(xl))
    except EvalDomainError:
        return math.inf


def _complementarity(p: Problem, mult: Multipliers, value) -> float:
    """:func:`complementarity_violation` with ``value(slot)`` the value of
    the slot's constraint, read only for the weighted slots."""
    worst = 0.0
    for slot, _, y in _weighted_slots(p, mult):
        if slot[0] != "lam":
            worst = max(worst, abs(y * value(slot)))
    return worst


def active_sets(p: Problem, x, cfg: SolveConfig = DEFAULT_CONFIG) -> IndexSets:
    """Classify active inequalities and switching branches at ``x``.

    A switching index whose two members are both nonzero belongs to no set;
    on feasible points the three sets partition the switching indices.
    """
    xl = [float(v) for v in x]
    tol = cfg.tol_active
    return _index_sets(p, [
        kind != "lam" and abs(_slot_expr(p, (kind, i)).val(xl)) <= tol
        for kind, i in _problem_slots(p)
    ])


def _index_sets(p: Problem, active) -> IndexSets:
    """:func:`active_sets` from ``active``, whether the constraint of each
    slot of :func:`_problem_slots` is active; the equalities' entries are
    not read."""
    ne, ni = len(p.equalities), len(p.inequalities)
    pairs = ne + ni
    j0 = tuple(j for j in range(ni) if active[ne + j])
    alpha, beta, gamma = [], [], []
    for m in range(p.k):
        z1, z2 = active[pairs + 2 * m], active[pairs + 2 * m + 1]
        if z1 and z2:
            beta.append(m)
        elif z1:
            alpha.append(m)
        elif z2:
            gamma.append(m)
    return IndexSets(j0, tuple(alpha), tuple(beta), tuple(gamma))


# A slot ``(kind, index)`` names one multiplier by its Multipliers field
# (lam, mu, sigma1, sigma2) and constraint index; it is at once a gradient row
# of a stack and an entry of a stacked multiplier vector.  There are two slot
# orders: the LICQ order (_active_slots) fixes the least-squares bits of the
# reported multipliers, the Newton unknown order (_problem_slots, of which
# _pattern_slots is a subsequence) the bits of every Newton iterate and of
# the multiplier-rule and Lagrangian sums.


def _slot_expr(p: Problem, slot) -> Expr:
    """The constraint function that owns ``slot``."""
    kind, i = slot
    if kind == "lam":
        return p.equalities[i]
    if kind == "mu":
        return p.inequalities[i]
    return p.switches[i][0 if kind == "sigma1" else 1]


def _problem_slots(p: Problem):
    """Every slot of ``p`` in the Newton unknown order: equalities,
    inequalities, then ``sigma1`` and ``sigma2`` per switching index."""
    return (
        [("lam", i) for i in range(len(p.equalities))]
        + [("mu", j) for j in range(len(p.inequalities))]
        + [s for m in range(p.k) for s in (("sigma1", m), ("sigma2", m))]
    )


def _weighted_slots(p: Problem, mult: Multipliers):
    """``(slot, constraint, multiplier)`` for every slot of ``p`` in the
    Newton unknown order whose multiplier is nonzero (nan included): the
    terms of the multiplier rule and of the Lagrangian."""
    for slot in _problem_slots(p):
        y = getattr(mult, slot[0])[slot[1]]
        if y != 0.0:
            yield slot, _slot_expr(p, slot), y


def _active_slots(p: Problem, idx: IndexSets, j_star=None):
    """Slots of the constraints active under ``idx`` in the LICQ order:
    equalities, alpha first members, gamma second members, the inequalities
    ``j_star`` (default J0), then both members per bi-active pair."""
    if j_star is None:
        j_star = idx.j0
    return (
        [("lam", i) for i in range(len(p.equalities))]
        + [("sigma1", m) for m in idx.alpha]
        + [("sigma2", m) for m in idx.gamma]
        + [("mu", j) for j in j_star]
        + [s for m in idx.beta for s in (("sigma1", m), ("sigma2", m))]
    )


def _gradient_rows(p: Problem, x, slots) -> np.ndarray:
    """Gradients of the slots' constraints at ``x``, one row per slot."""
    if not slots:
        return np.zeros((0, p.n))
    xl = [float(v) for v in x]
    return np.array([_slot_expr(p, s).val_grad(xl)[1] for s in slots], dtype=float)


def _multipliers_from_slots(p: Problem, slots, y, unique=True) -> Multipliers:
    """Distribute the stacked vector ``y`` (one value per slot) into full
    multiplier vectors; every other entry is exactly 0.0."""
    store = {
        "lam": [0.0] * len(p.equalities),
        "mu": [0.0] * len(p.inequalities),
        "sigma1": [0.0] * p.k,
        "sigma2": [0.0] * p.k,
    }
    for (kind, i), v in zip(slots, y):
        store[kind][i] = float(v) + 0.0
    return Multipliers(**{k: tuple(v) for k, v in store.items()}, unique=unique)


def _slot_values(mult: Multipliers, slots) -> np.ndarray:
    """The entries of ``mult`` in the slots, in slot order (warm starts)."""
    return np.array([getattr(mult, kind)[i] for kind, i in slots], dtype=float)


def licq_matrix(p: Problem, x, idx: IndexSets) -> np.ndarray:
    """Stack of active constraint gradients, one row per slot of the LICQ
    order (:func:`_active_slots`): equalities, alpha first members, gamma
    second members, active inequalities, then both members per bi-active
    pair."""
    return _gradient_rows(p, x, _active_slots(p, idx))


def _licq_stack(p: Problem, x, cfg: SolveConfig):
    """Active sets, their LICQ-order slots, the gradient stack ``G``, its
    rank and the feasibility violation at ``x``; raises
    :class:`InfeasiblePointError` when ``x`` is infeasible beyond
    ``tol_feas``."""
    feas = feasibility_violation(p, x)
    if feas > cfg.tol_feas:
        raise InfeasiblePointError(
            f"point {tuple(float(v) for v in x)} is infeasible beyond tol_feas"
        )
    idx = active_sets(p, x, cfg)
    slots = _active_slots(p, idx)
    G = _gradient_rows(p, x, slots)
    return idx, slots, G, rank(G, cfg.lin), feas


def check_licq(p: Problem, x, cfg: SolveConfig = DEFAULT_CONFIG) -> LicqReport:
    """LICQ holds iff the active gradient stack has full row rank.  Raises
    :class:`InfeasiblePointError` at a point infeasible beyond ``tol_feas``,
    one where a constraint function is undefined included."""
    _, _, G, r, _ = _licq_stack(p, x, cfg)
    return LicqReport(holds=(r == G.shape[0]), rank=r, rows=G.shape[0])


def stationarity_residual(p: Problem, x, mult: Multipliers) -> float:
    """Independent max-norm residual of the full W-stationarity system:
    multiplier rule, feasibility, complementarity and the inequality
    multiplier sign condition; ``inf`` where a constraint function is
    undefined, as :func:`feasibility_violation`."""
    feas = feasibility_violation(p, x)
    if feas == math.inf:
        return feas
    return _residual(p, x, mult, feas, complementarity_violation(p, x, mult))


def _residual(p: Problem, x, mult: Multipliers, feas, comp) -> float:
    """:func:`stationarity_residual` from the finite feasibility violation
    ``feas`` and the complementarity violation ``comp`` of ``x``."""
    xl = [float(v) for v in x]
    return _residual_from(
        p, mult, feas, comp, p.objective.val_grad(xl)[1],
        lambda s: _slot_expr(p, s).val_grad(xl)[1],
    )


def _residual_from(p: Problem, mult: Multipliers, feas, comp, df, grad) -> float:
    """:func:`_residual` from the objective gradient ``df`` and
    ``grad(slot)``, the gradient of the slot's constraint, as lists of
    floats; ``grad`` is read only for the weighted slots."""
    worst = max(feas, comp, max([0.0] + [-mu for mu in mult.mu]))
    acc = list(df)
    for slot, _, y in _weighted_slots(p, mult):
        g = grad(slot)
        for t in range(p.n):
            acc[t] -= y * g[t]
    return max(worst, max(abs(a) for a in acc))


def recover_multipliers(
    p: Problem, x, cfg: SolveConfig = DEFAULT_CONFIG
) -> Multipliers:
    """Unique multipliers at a W-stationary point satisfying LICQ.

    Solves the multiplier rule against the stacked active gradients and
    verifies the full stationarity residual.  Raises
    :class:`InfeasiblePointError` at an infeasible point (as
    :func:`check_licq`), :class:`LicqViolationError` when LICQ fails (multipliers would not be
    unique), :class:`SingularSystemError` on tolerance breakdown and
    :class:`NotStationaryError` when the point is not W-stationary.
    """
    _, slots, G, r, feas = _licq_stack(p, x, cfg)
    if r < G.shape[0]:
        raise LicqViolationError(
            f"LICQ fails at {tuple(float(v) for v in x)}:"
            f" rank {r} < {G.shape[0]} active gradients"
        )
    mult, error = _multiplier_rule(
        p, eval_gradient(p.objective, x), slots, G, True, cfg
    )
    if error is not None:
        raise error
    resid = _residual(p, x, mult, feas, complementarity_violation(p, x, mult))
    if resid > cfg.tol_resid:
        raise NotStationaryError(
            f"stationarity residual {resid:.3e} exceeds tol_resid"
            f" {cfg.tol_resid:.1e}"
        )
    return mult


def _multiplier_rule(p: Problem, df, slots, G, licq, cfg: SolveConfig):
    """Least-squares multipliers of the multiplier rule for the objective
    gradient ``df`` (an array) on the gradient stack ``G`` of the LICQ-order
    ``slots``, both at one point: the unique ones when
    ``licq`` (G has full row rank), a representative of the multiplier set
    otherwise.  Returns them and, under LICQ, the
    :class:`SingularSystemError` of :func:`solve_linear`'s square residual
    test on that solve, else None.  :func:`solve_linear`'s column-rank test
    on ``G.T`` would repeat the row-rank test on ``G`` that decided ``licq``
    (on mid3, the examples and the criterion-7 corpus no QR diagonal entry
    of either lies within 10^7.8 of the cutoff), so it does not run."""
    y = np.linalg.lstsq(G.T, df, rcond=None)[0] if slots else np.zeros(0)
    error = None
    if licq and slots:
        try:
            _check_square_residual(G.T, df, y, cfg.lin)
        except SingularSystemError as e:
            error = e
    return _multipliers_from_slots(p, slots, y, unique=licq), error


# ---------------------------------------------------------------------------
# branch enumeration and Newton solves
# ---------------------------------------------------------------------------


def enumerate_branches(p: Problem, cfg: SolveConfig = DEFAULT_CONFIG):
    """All branch patterns in deterministic lexicographic order."""
    total = 3 ** p.k * 2 ** len(p.inequalities)
    if total > cfg.pattern_cap:
        raise CombinatorialCapError(
            f"{total} branch patterns exceed pattern_cap={cfg.pattern_cap}"
        )
    patterns = []
    for sw in itertools.product(_SWITCH_CHOICES, repeat=p.k):
        for act in itertools.product((True, False), repeat=len(p.inequalities)):
            patterns.append(BranchPattern(sw, act))
    return patterns


def _pins(pattern: BranchPattern, slot) -> bool:
    """Whether ``pattern`` pins the constraint that owns ``slot``."""
    kind, i = slot
    if kind == "lam":
        return True
    if kind == "mu":
        return pattern.actives[i]
    return pattern.switches[i] in ((S1 if kind == "sigma1" else S2), BOTH)


def _pattern_slots(p: Problem, pattern: BranchPattern):
    """Slots of the constraints ``pattern`` pins, in the Newton unknown order:
    equalities, active inequalities, then the selected members per switching
    index.  Each slot is one multiplier unknown, so the system is square.
    The list is a subsequence of :func:`_problem_slots`."""
    return [s for s in _problem_slots(p) if _pins(pattern, s)]


def _branch_system(objective, cons, z, n, hess):
    """Residual of the square branch system at z = (x, multipliers) and,
    when ``hess``, its Jacobian (else None), from one scalar derivative walk
    per tree, with the Hessian only when ``hess``."""
    xl = z[:n].tolist()
    y = z[n:]
    m = len(cons)
    _, df, Hf = objective._derivatives(xl, 1 + hess)
    top = list(df)
    resid = np.empty(n + m)
    J = np.zeros((n + m, n + m)) if hess else None
    H = np.array(Hf) if hess else None
    for i, c in enumerate(cons):
        cv, cg, cH = c._derivatives(xl, 1 + hess)
        yi = y[i]
        if yi != 0.0:
            for t in range(n):
                top[t] -= yi * cg[t]
            if hess:
                H -= yi * np.array(cH)
        resid[n + i] = cv
        if hess:
            row = np.array(cg)
            J[n + i, :n] = row
            J[:n, n + i] = -row
    resid[:n] = top
    if hess:
        J[:n, :n] = H
    return resid, J


# Most branch-system shapes whose compiled code is kept: continuation on the
# five example problems meets 10 shapes.
_BRANCH_CODE_CACHE = 256


def _branch_shape(objective, cons, n):
    """The shape of a branch system, ``(n, objective shape, constraint
    shapes)``, and its constants in the order the compiled code reads them."""
    consts = []
    shape = (
        n,
        _expr_shape(objective, consts),
        tuple(_expr_shape(c, consts) for c in cons),
    )
    return shape, consts


@functools.lru_cache(maxsize=_BRANCH_CODE_CACHE)
def _branch_code(shape):
    """The compiled ``residual`` and ``jacobian`` of
    :func:`_branch_program`, kept per shape."""
    functions = _branch_program(shape).compile()
    return functions["residual"], functions["jacobian"]


def _branch_program(shape):
    """Straight-line ``residual(Z, C)`` and ``jacobian(Z, C)`` of the branch
    systems of one shape, with ``Z`` the list of z = (x, multipliers) and
    ``C`` the constants from :func:`_branch_shape`.  They return lists
    bitwise equal to the residual of :func:`_branch_system` without
    ``hess`` and its Jacobian with it (a nested list for the Jacobian), and
    raise where those raise.  Each tree's code is its own scalar walk, run
    by :class:`expr._StraightLine` on code terms with the Hessian only in
    ``jacobian``, so it holds the walk's bits by construction.  Around it
    the code does what the reference does: the updates by multiplier
    ``y_i`` are skipped when ``y_i`` is zero, and they subtract ``y_i *
    gradient`` and ``y_i * Hessian`` entry by entry as the reference's
    arrays do, on and above the diagonal only, since the walks give
    transposed entries the same bits."""
    n, objective, cons = shape
    m = len(cons)
    code = _StraightLine(n)

    code.begin("residual", extra=m)
    _, gf, _ = code.derivatives(objective, hess=False)
    for t in range(n):
        code.line(f"r{t} = {code.ref(gf[t])}")
    values = []
    for i, c in enumerate(cons):
        cv, cg, _ = code.derivatives(c, hess=False)
        values.append(code.ref(cv))
        code.line(f"if y{i}:")
        for t in range(n):
            code.line(f"r{t} = r{t} - {_times(f'y{i}', cg[t], code)}", depth=2)
    code.end(f"[{', '.join([f'r{t}' for t in range(n)] + values)}]")

    code.begin("jacobian", extra=m)
    _, _, Hf = code.derivatives(objective, hess=True)
    upper = [(a, b) for a in range(n) for b in range(a, n)]
    for a, b in upper:
        code.line(f"h{a}_{b} = {code.ref(Hf[a][b])}")
    grads = []
    for i, c in enumerate(cons):
        _, cg, cH = code.derivatives(c, hess=True)
        grads.append(cg)
        code.line(f"if y{i}:")
        for a, b in upper:
            code.line(
                f"h{a}_{b} = h{a}_{b} - {_times(f'y{i}', cH[a][b], code)}", depth=2
            )
    zero = code.ref(0.0)
    rows = [
        [f"h{min(a, b)}_{max(a, b)}" for b in range(n)]
        + [code.ref(-cg[a]) for cg in grads]
        for a in range(n)
    ] + [[code.ref(gi) for gi in cg] + [zero] * m for cg in grads]
    code.end("[" + ", ".join(f"[{', '.join(r)}]" for r in rows) + "]")
    return code


def _times(y, term, code):
    """Source of ``y * term`` for a multiplier name ``y``; ``y * 1.0`` is
    ``y`` bit for bit."""
    if isinstance(term, float) and term == 1.0:
        return y
    return f"{y} * {code.ref(term)}"


def _max_norm(r):
    """``np.abs(r).max()`` of a nonempty list of floats, nan when an entry
    is nan."""
    if any(map(math.isnan, r)):
        return math.nan
    return max(map(abs, r))


# A Newton step whose max norm exceeds this factor times 1 + max|z| ends the
# lane's solve as a blow-up.
_BLOW_UP = 1e8


def _newton_step(J, r, diagnostics):
    """The Newton step ``-J^-1 r``.  A singular ``J`` takes the minimum-norm
    least-squares step instead, counted as ``singular_jacobian`` in
    ``diagnostics`` unless that is None: patterns can pin the same function
    twice (switching pairs that share a member), leaving the square system
    singular but consistent, and the minimum-norm step still converges
    there.  The search does not solve a pattern whose branch polyhedron is
    provably empty (:func:`_branch_empty`); the solvers themselves have no
    such test, so on an inconsistent branch their steps keep failing to
    improve."""
    b = -np.asarray(r)
    try:
        return np.linalg.solve(J, b)
    except np.linalg.LinAlgError:
        if diagnostics is not None:
            diagnostics["singular_jacobian"] = (
                diagnostics.get("singular_jacobian", 0) + 1
            )
        return np.linalg.lstsq(J, b, rcond=None)[0]


def _damping_factors(cfg: SolveConfig):
    """The damping factors 1, 1/2, 1/4, ... of a Newton round: 1.0 and
    ``max_halvings`` halvings of it."""
    factors = [1.0]
    for _ in range(cfg.max_halvings):
        factors.append(factors[-1] * 0.5)
    return factors


def newton_solve_branch(
    p: Problem,
    pattern: BranchPattern,
    start,
    cfg: SolveConfig = DEFAULT_CONFIG,
    mult_start=None,
    diagnostics=None,
):
    """Damped Newton on one branch system from ``start``.

    Multipliers start at zero, or at the pinned slots' entries of the
    :class:`Multipliers` ``mult_start`` (a warm start).  Every iteration is
    one Newton round: the Jacobian, the Newton step (:func:`_newton_step`),
    the step blow-up test, then the first damping factor 1, 1/2, 1/4, ...
    that strictly lowers the residual max-norm.  A round that fails (an
    undefined Jacobian, a blown-up step, no improving factor) and an
    exhausted iteration budget yield ``None``.  After reaching ``tol_resid``
    up to ``polish_steps`` polish rounds run: the same round with the one
    factor 1.0, no blow-up test and no ``singular_jacobian`` count.  The
    first that fails ends the polish and keeps the converged iterate, so
    converged points are accurate well beyond the acceptance threshold.

    The residual and the Jacobian run as straight-line code compiled once
    per shape of the branch system (:func:`_branch_code`).  The code is
    written by the tree methods' own walks, so it is bitwise equal to
    :func:`_branch_system` by construction; the constants of the problem
    are arguments, so the relaxed problems along a continuation path share
    the code of each pattern.
    """
    n = p.n
    slots = _pattern_slots(p, pattern)
    cons = [_slot_expr(p, s) for s in slots]
    shape, consts = _branch_shape(p.objective, cons, n)
    residual_code, jacobian_code = _branch_code(shape)
    # the iterate is a list of floats: z + t*step and the step's checks in
    # Python floats are the IEEE operations numpy would run, bit for bit
    z = np.zeros(n + len(cons))
    z[:n] = np.asarray(start, dtype=float)
    if mult_start is not None:
        z[n:] = _slot_values(mult_start, slots)
    z = z.tolist()

    def residual(zv):
        r = residual_code(zv, consts)
        return r, _max_norm(r)

    def newton_round(z, r, rnorm, factors, blow_up, diagnostics):
        """``(z, r, rnorm)`` after one round from ``z``, or None when it
        fails."""
        try:
            J = np.array(jacobian_code(z, consts))
        except EvalDomainError:
            return None
        step = _newton_step(J, r, diagnostics).tolist()
        if blow_up and (not all(map(math.isfinite, step)) or (
            _max_norm(step) > _BLOW_UP * (1.0 + _max_norm(z))
        )):
            return None
        for t in factors:
            z_try = [zi + t * si for zi, si in zip(z, step)]
            try:
                r_try, rn_try = residual(z_try)
            except EvalDomainError:
                continue
            if math.isfinite(rn_try) and rn_try < rnorm:
                return z_try, r_try, rn_try
        return None

    try:
        r, rnorm = residual(z)
    except EvalDomainError:
        return None
    if not math.isfinite(rnorm):
        return None

    factors = _damping_factors(cfg)
    for _ in range(cfg.max_iter):
        if rnorm <= cfg.tol_resid:
            break
        taken = newton_round(z, r, rnorm, factors, True, diagnostics)
        if taken is None:
            return None
        z, r, rnorm = taken
    if not rnorm <= cfg.tol_resid:
        return None
    # polish: the same round with the one factor 1.0, no blow-up test and no
    # singular_jacobian count, until the first that fails
    for _ in range(cfg.polish_steps):
        taken = newton_round(z, r, rnorm, factors[:1], False, None)
        if taken is None:
            break
        z, r, rnorm = taken

    return np.array(z[:n]), _multipliers_from_slots(p, slots, z[n:])


def _batch_branch(objective, cons, Z, n, include, hess):
    """:func:`_branch_system` at every row of ``Z`` from one batched walk
    per tree, with the Hessian only when ``hess``; returns (R, H, G, failed
    lanes), the branch Jacobians being ``[[H, -G.T], [G, 0]]`` with
    Lagrangian Hessians ``H[B, n, n]`` and constraint gradient rows
    ``G[B, m, n]``, both None without ``hess``.

    ``include[k, i]`` says whether lane k pins ``cons[i]``.  A constraint is
    walked only over the lanes that pin it, and fails only those; elsewhere
    its residual entry and gradient row are 0.0 and it leaves the
    Lagrangian's gradient and Hessian untouched, as it must where the lane's
    multiplier column holds 0.0.
    """
    X = Z[:, :n]
    _, top, H, bad = eval_batch(objective, X, hessian=hess)
    R = np.zeros_like(Z)
    G = np.zeros((len(Z), len(cons), n)) if hess else None
    with np.errstate(all="ignore"):  # failed lanes carry inf and nan
        for i, c in enumerate(cons):
            col = include[:, i]
            if col.all():
                rows = slice(None)
            elif col.any():
                rows = np.flatnonzero(col)
            else:
                continue
            cv, cg, cH, cbad = eval_batch(c, X[rows], hessian=hess)
            yi = Z[rows, n + i, None]
            # where y_i == 0 the scalar path skips the update; subtracting
            # 0*g could flip the sign of a zero or turn an infinite g into nan
            t = top[rows]
            top[rows] = np.where(yi != 0.0, t - yi * cg, t)
            R[rows, n + i] = cv
            if hess:
                yi, Hr = yi[:, :, None], H[rows]
                H[rows] = np.where(yi != 0.0, Hr - yi * cH, Hr)
                G[rows, i] = cg
            bad[rows] |= cbad
    R[:, :n] = top
    return R, H, G, bad


def _branch_jacobians(H, G):
    """Branch Jacobians ``[[H, -G.T], [G, 0]]``, one per lane."""
    B, m, n = G.shape
    J = np.zeros((B, n + m, n + m))
    J[:, :n, :n] = H
    J[:, n:, :n] = G
    J[:, :n, n:] = -G.transpose(0, 2, 1)
    return J


def _max_norms(A):
    return np.abs(A).max(axis=1, initial=0.0)


# Most lanes (one lane = one (pattern, start) pair) in one multi-pattern
# Newton batch.  Every lane carries one multiplier column per slot of the
# problem, and a Newton round's damping walks evaluate several trial points
# per lane, so a batch's arrays grow with lanes x slots: the budget bounds the
# memory of wide searches, while searches with a few starts per pattern still
# run as one batch, which is where batching across patterns saves tree walks.
# Only the patterns the certificate leaves are solved: mid3's 9 of 36, 125
# starts each, run as 2 batches (8 + 1 patterns, 1000 + 125 lanes), and the
# 100 searches of the criterion-7 corpus run 88 batches of at most 80 lanes,
# 12 of them solving no pattern.
#
# The budget also sizes a Newton round's first damping walk to about
# _LANE_BUDGET // 4 rows: each of the L lanes still searching tries its first
# max(1, _LANE_BUDGET // 4 // L) damping factors in it.  A walk over a few
# rows costs about what one over a few hundred does, so in narrow batches one
# walk settles most halvings, while a batch of more lanes than that still
# tries one factor first, which keeps a wide batch's walks and memory small.
# A polish round has the one factor 1.0, so its damping walk holds L rows.
_LANE_BUDGET = 1024


def _pattern_steps(H, G, R, lane_pattern, cols, diagnostics):
    """Newton steps for lanes sorted by pattern: ``lane_pattern[k]`` is the
    pattern of lane k (row k of ``H``, ``G`` and ``R``), and ``cols[q]``
    lists the problem slots pattern q pins.  Each pattern's square systems
    are solved in one stacked solve, which gives each lane the bits of its
    own solve; when that fails, each of its lanes takes :func:`_newton_step`
    with ``diagnostics``.  The columns of unpinned slots of the steps are
    exactly 0.0."""
    n = H.shape[1]
    ends = np.searchsorted(lane_pattern, np.arange(len(cols) + 1))
    step = np.zeros_like(R)
    for q, c in enumerate(cols):
        if ends[q] == ends[q + 1]:
            continue
        lanes = slice(ends[q], ends[q + 1])
        unknowns = np.concatenate([np.arange(n), n + c])
        J = _branch_jacobians(H[lanes], G[lanes][:, c])
        b = R[lanes, unknowns]
        try:
            step[lanes, unknowns] = np.linalg.solve(J, -b[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for k in range(len(J)):
                step[ends[q] + k, unknowns] = _newton_step(J[k], b[k], diagnostics)
    return step


# Most rows the certificate's Fourier–Motzkin elimination holds at once: a
# pattern whose elimination grows beyond it is simply not certified, since
# ``analyze`` puts no limit on n.  Parallel rows merge into one, so the
# searches of the criterion-7 corpus never hold more than 5.
_ROW_CAP = 400


def _certificate_rows(p: Problem, forms, lo, hi, cfg: SolveConfig):
    """The integer rows :func:`_branch_empty` reads, built once per search:
    ``(box, slots)``.  A row ``(a, L, U, d)`` states L/d <= a·x <= U/d, None
    standing for an unbounded side, its ``a`` primitive with the first
    nonzero entry positive (:func:`_normal_row`).

    ``box`` holds the rows lo <= x_j <= hi of the inflated box (``lo`` and
    ``hi`` each a float or one float per axis): the filter drops every x
    outside it.  ``slots`` holds ``(slot, pinned, unpinned)`` for every
    ``(slot, affine form)`` of ``forms``.  With the form c(x) = (A·x + B)/D
    exactly and ``err`` its rounding bound, ``pinned`` states
    |c(x)| <= _up(tol_resid + err): a lane converges only where the
    computed pinned value is within ``tol_resid``.  ``unpinned``, for an
    inequality, states c(x) >= -_up(tol_feas + err): the filter keeps only
    x where the computed value is at least ``-tol_feas``.  Both are None for
    a slot that is not affine (or whose bound is not finite)."""
    lo, hi = np.broadcast_to(lo, p.n), np.broadcast_to(hi, p.n)
    box = []
    for j in range(p.n):
        (ln, ld), (hn, hd) = (float(v).as_integer_ratio() for v in (lo[j], hi[j]))
        axis = tuple(int(i == j) for i in range(p.n))
        box.append((axis, ln * hd, hn * ld, ld * hd))
    slots = []
    for s, form in forms:
        pinned = unpinned = None
        if form is not None:
            A, B, D, err = form
            # -t <= (A·x + B)/D <= t with t = num/d
            t = _up(cfg.tol_resid + err)
            if math.isfinite(t):
                num, d = t.as_integer_ratio()
                pinned = _normal_row(A, -num * D - B * d, num * D - B * d, d)
            t = _up(cfg.tol_feas + err)
            if s[0] == "mu" and math.isfinite(t):
                num, d = t.as_integer_ratio()
                unpinned = _normal_row(A, -num * D - B * d, None, d)
        slots.append((s, pinned, unpinned))
    return box, slots


def _normal_row(a, L, U, d):
    """The row L/d <= a·x <= U/d with ``a`` divided by the gcd of its
    entries, its first nonzero entry made positive, and the integers of the
    row reduced by their gcd."""
    g = math.gcd(*a)
    if g and next(c for c in a if c) < 0:
        g, L, U = -g, (None if U is None else -U), (None if L is None else -L)
    if g:
        a, d = tuple(c // g for c in a), d * abs(g)
    h = math.gcd(L or 0, U or 0, d)
    L, U = (None if L is None else L // h), (None if U is None else U // h)
    return a, L, U, d // h


def _combine(r1, r2, j):
    """The row a2_j·(row 1) - a1_j·(row 2), in which x_j cancels, its
    interval taken from the two rows' intervals; None when both of its
    sides are unbounded."""
    a1, L1, U1, d1 = r1
    a2, L2, U2, d2 = r2
    k1, k2 = a2[j] * d2, -a1[j] * d1
    (lo1, hi1), (lo2, hi2) = _scaled(L1, U1, k1), _scaled(L2, U2, k2)
    L = None if lo1 is None or lo2 is None else lo1 + lo2
    U = None if hi1 is None or hi2 is None else hi1 + hi2
    if L is None and U is None:
        return None
    a = [a2[j] * c1 - a1[j] * c2 for c1, c2 in zip(a1, a2)]
    return _normal_row(a, L, U, d1 * d2)


def _scaled(L, U, k):
    """The interval [L, U] times the nonzero integer ``k``."""
    L, U = (None if L is None else k * L), (None if U is None else k * U)
    return (L, U) if k > 0 else (U, L)


def _holds_at_zero(L, U):
    return (L is None or L <= 0) and (U is None or U >= 0)


def _tighter(pick, v, d2, v2, d):
    """``pick`` of the bounds v/d and v2/d2 (None unbounded, so the other
    one wins) as a numerator over d*d2."""
    if v is None:
        return None if v2 is None else v2 * d
    if v2 is None:
        return v * d2
    return pick(v * d2, v2 * d)


def _merge(table, row) -> bool:
    """Adds the normal ``row`` to ``table`` (a -> (L, U, d)), intersected
    with the parallel row already there; False when the row, or that
    intersection, holds at no x."""
    a, L, U, d = row
    if not any(a):
        return _holds_at_zero(L, U)
    if a in table:
        L2, U2, d2 = table[a]
        L, U = _tighter(max, L, d2, L2, d), _tighter(min, U, d2, U2, d)
        if L is not None and U is not None and L > U:
            return False
        _, L, U, d = _normal_row(a, L, U, d * d2)
    table[a] = L, U, d
    return True


def _branch_empty(pattern: BranchPattern, rows) -> bool:
    """Whether no ``x`` satisfies every row of ``rows``
    (:func:`_certificate_rows`) that ``pattern`` keeps: the box rows, the
    ``pinned`` row of each slot it pins and the ``unpinned`` row of each
    inequality it does not.  Every lane of a certified pattern then fails to
    converge or converges to an ``x`` the accept filter drops as outside the
    box or infeasible, before its residual test.

    First, each pinned row in turn eliminates one variable from the rows
    after it and from the others (the box and the unpinned rows), Gaussian
    elimination in integers; a pinned row left with no variable certifies
    when its interval misses 0.  Then Fourier–Motzkin elimination of the
    remaining variables runs on the others, one variable at a time, the one
    that the fewest rows hold first, parallel rows merged into one interval;
    an empty interval certifies.  Every row combines earlier rows with real
    coefficients, its interval by interval arithmetic, so it holds wherever
    they do: the certificate is exact in Python integers.  Using a pinned
    row as the pivot loses the little that its width would give, and an
    elimination that would hold more than ``_ROW_CAP`` rows is abandoned, so
    some empty polyhedra go uncertified, never the reverse."""
    box, slots = rows
    n = len(box)
    others = list(box)
    pinned = []
    for s, pin, unpin in slots:
        if _pins(pattern, s):
            if pin is not None:
                pinned.append(pin)
        elif unpin is not None:
            others.append(unpin)

    for j in range(n):
        k = next((k for k, row in enumerate(pinned) if row[0][j]), None)
        if k is None:
            continue
        pivot = pinned.pop(k)
        pinned = [_combine(row, pivot, j) if row[0][j] else row for row in pinned]
        others = [_combine(row, pivot, j) if row[0][j] else row for row in others]
    # every pinned row left has a = 0
    if not all(_holds_at_zero(L, U) for _, L, U, _ in pinned):
        return True

    table = {}
    if not all(_merge(table, row) for row in others):
        return True
    while table:
        j = min(
            (sum(1 for a in table if a[j]), j) for j in range(n)
            if any(a[j] for a in table)
        )[1]
        held = [(a, *table.pop(a)) for a in [a for a in table if a[j]]]
        for k, r1 in enumerate(held):
            for r2 in held[k + 1:]:
                row = _combine(r1, r2, j)
                if row is not None and not _merge(table, row):
                    return True
            if len(table) > _ROW_CAP:
                return False
    return False


def _solve_lanes(p: Problem, patterns, starts, cfg: SolveConfig, diagnostics):
    """Damped Newton for every (pattern, start) lane of one batch; returns
    one outcome list per pattern."""
    n = p.n
    obj = p.objective
    slots = _problem_slots(p)
    cons = [_slot_expr(p, s) for s in slots]
    pins = np.array(
        [[_pins(pattern, s) for s in slots] for pattern in patterns], dtype=bool
    ).reshape(len(patterns), len(slots))
    cols = [np.flatnonzero(row) for row in pins]
    B = len(starts)
    # lanes are numbered pattern-major, so ``live`` stays sorted by pattern
    lane_pattern = np.repeat(np.arange(len(patterns)), B)
    include = pins[lane_pattern]
    Z = np.zeros((len(lane_pattern), n + len(slots)))
    Z[:, :n] = np.tile(starts, (len(patterns), 1))
    R, _, _, failed = _batch_branch(obj, cons, Z, n, include, False)
    rnorm = _max_norms(R)
    failed |= ~np.isfinite(rnorm)

    def newton_round(live, factors, blow_up, diagnostics):
        """One Newton round of the lanes ``live``, each taking its step into
        ``Z``, ``R`` and ``rnorm``; returns the mask of the lanes it lost."""
        lost = np.zeros(len(Z), dtype=bool)
        _, H, G, bad = _batch_branch(obj, cons, Z[live], n, include[live], True)
        lost[live[bad]] = True
        live, H, G = live[~bad], H[~bad], G[~bad]
        step = _pattern_steps(H, G, R[live], lane_pattern[live], cols, diagnostics)
        if blow_up:
            blown = ~np.all(np.isfinite(step), axis=1) | (
                _max_norms(step) > _BLOW_UP * (1.0 + _max_norms(Z[live]))
            )
            lost[live[blown]] = True
            live, step = live[~blown], step[~blown]
        # a lane takes the first damping factor that strictly lowers its
        # residual.  Factors are tried in chunks, each chunk for every lane
        # still searching in one walk: the first sized by rows (see
        # _LANE_BUDGET), each later one twice the one before, so a lane that
        # needs many halvings costs few walks
        done, size = 0, max(1, _LANE_BUDGET // 4 // max(1, live.size))
        while live.size and done < len(factors):
            ts = factors[done:done + size]
            k, L = len(ts), live.size
            Z_try = (Z[live] + ts[:, None, None] * step).reshape(k * L, -1)
            R_try, _, _, bad = _batch_branch(
                obj, cons, Z_try, n, np.tile(include[live], (k, 1)), False
            )
            rn_try = _max_norms(R_try)
            ok = (~bad & np.isfinite(rn_try)).reshape(k, L) & (
                rn_try.reshape(k, L) < rnorm[live]
            )
            hit = ok.any(axis=0)
            rows = ok.argmax(axis=0)[hit] * L + np.flatnonzero(hit)
            took = live[hit]
            Z[took], R[took], rnorm[took] = Z_try[rows], R_try[rows], rn_try[rows]
            live, step = live[~hit], step[~hit]
            done, size = done + k, 2 * size
        lost[live] = True  # no improving damping
        return lost

    converged = ~failed & (rnorm <= cfg.tol_resid)
    factors = np.array(_damping_factors(cfg))
    for _ in range(cfg.max_iter):
        live = np.flatnonzero(~failed & ~converged)
        if not live.size:
            break
        failed |= newton_round(live, factors, True, diagnostics)
        converged = ~failed & (rnorm <= cfg.tol_resid)
    failed |= ~converged
    # polish: the same round with the one factor 1.0, no blow-up test and no
    # singular_jacobian count; a lane's first failed round ends its polish
    live = np.flatnonzero(~failed)
    for _ in range(cfg.polish_steps):
        if not live.size:
            break
        live = live[~newton_round(live, factors[:1], False, None)[live]]

    # unpinned columns hold 0.0, which is what the pattern's own slot list
    # would leave in the multipliers
    outcomes = [
        None if failed[k]
        else (Z[k, :n].copy(), _multipliers_from_slots(p, slots, Z[k, n:]))
        for k in range(len(Z))
    ]
    return [outcomes[q * B:(q + 1) * B] for q in range(len(patterns))]


def _newton_solve_patterns(
    p: Problem, patterns, starts, cfg: SolveConfig = DEFAULT_CONFIG,
    diagnostics=None,
):
    """:func:`newton_solve_branch` for every pattern of ``patterns`` from
    every row of ``starts[B, n]``, multipliers starting at zero; returns one
    outcome list per pattern, in start order, each outcome ``None`` or
    ``(x, Multipliers)`` bitwise equal to the single-start solver's, and
    adds the single-start ``singular_jacobian`` counts to ``diagnostics``.

    Every lane runs the single-start solver's rounds: the same Newton steps,
    least-squares fallback, step blow-up test and halvings in every
    iteration, and the same round with the one factor 1.0 and no blow-up
    test in every polish step, a lane's first failed polish round ending its
    polish.  Each pattern's unknowns are a
    subsequence of :func:`_problem_slots`, so the skipped ``y_i == 0``
    updates run in the scalar order, and the columns a pattern does not pin
    hold exactly 0.0 in the iterate, the residual and the step, which leaves
    every max norm and step unchanged.  Consecutive patterns share a batch,
    at most ``_LANE_BUDGET // B`` (and at least one) per batch."""
    starts = np.asarray(starts, dtype=float)
    per_batch = max(1, _LANE_BUDGET // max(1, len(starts)))
    outcomes = []
    for b in range(0, len(patterns), per_batch):
        outcomes += _solve_lanes(
            p, patterns[b:b + per_batch], starts, cfg, diagnostics
        )
    return outcomes


# ---------------------------------------------------------------------------
# multi-start search
# ---------------------------------------------------------------------------


# The most multi-start rows a search may have.  Each pattern is solved from
# every row, and a row costs about 3 KiB and 0.2 ms per pattern: 5^7 rows of a
# 7-variable problem with one pattern took 18 s and 241 MiB.  At the default
# grid_points = 5, n = 8 (390 625 rows) is the first size it rejects.
_MAX_STARTS = 2**17


def _grid_starts(n, box, cfg):
    """Multi-start points, one per row, in lexicographic grid order; raises
    CombinatorialCapError, before any row is built, when there would be more
    than ``_MAX_STARTS`` of them."""
    if cfg.grid_points**n > _MAX_STARTS:
        raise CombinatorialCapError(
            f"{cfg.grid_points}^{n} multi-start rows exceed the start cap of"
            f" {_MAX_STARTS} rows"
        )
    lo, hi = float(box[0]), float(box[1])
    if cfg.grid_points < 2:
        axes = [np.array([(lo + hi) / 2.0])] * n
        spacing = hi - lo
    else:
        axes = [np.linspace(lo, hi, cfg.grid_points)] * n
        spacing = (hi - lo) / (cfg.grid_points - 1)
    starts = np.array(list(itertools.product(*axes)), dtype=float)
    if cfg.seed != 0:
        rng = np.random.default_rng(cfg.seed)
        jitter = rng.uniform(-0.1, 0.1, size=starts.shape) * spacing
        starts = np.clip(starts + jitter, lo, hi)
    return starts


class _Verdict(NamedTuple):
    """The accept filter's verdict on one candidate: ``kind`` is "box"
    (outside the inflated box), "infeasible" (beyond ``tol_feas``, a
    constraint undefined there, or an active constraint whose gradient is
    undefined there), "complementarity", "residual" (stationarity residual
    too large), "sign" (a negative inequality multiplier) or "accept"."""

    kind: str
    mult: Optional[Multipliers] = None
    idx: Optional[IndexSets] = None
    resid: float = 0.0
    licq: bool = False


_BOX = _Verdict("box")
_INFEASIBLE = _Verdict("infeasible")
_COMPLEMENTARITY = _Verdict("complementarity")
_RESIDUAL = _Verdict("residual")

# the diagnostics key counting the candidates of each verdict kind the search
# does not accept
_COUNTER = {
    "box": "dropped_box",
    "infeasible": "dropped_infeasible",
    "complementarity": "dropped_complementarity",
    "residual": "residual_rejected",
    "sign": "rejected_sign_candidates",
}


def _accept_verdicts(p: Problem, X, lo, hi, cfg: SolveConfig) -> list[_Verdict]:
    """The accept filter on every row of the candidates ``X[D, n]``, inside
    the inflated box ``[lo, hi]`` per axis: feasibility, the index sets, the
    LICQ rank, least-squares multipliers and their sign, then an independent
    residual.  A verdict reads nothing of its candidate but the row.

    Each slot's constraint and the objective are walked once over all rows
    (:func:`expr.eval_batch`: values and gradients, bitwise those of
    ``val_grad``).  The box, feasibility and activity are decided on these
    arrays, the rest row by row.  Where a constraint's walk is undefined at
    a row, its scalar ``val`` decides whether the value is: if not, the row
    is infeasible; if so, the gradient is needed only when the constraint is
    active, and an active constraint without one leaves no gradient stack to
    judge (x2*x1^(-1) at (1e-300, 0)).  An undefined objective gradient at a
    row that reaches the multiplier rule raises the scalar walk's error."""
    X = np.asarray(X, dtype=float)
    slots = _problem_slots(p)
    where = {s: k for k, s in enumerate(slots)}
    D = len(X)
    V = np.empty((len(slots), D))
    grads = np.empty((len(slots), D, p.n))
    no_grad = np.empty((len(slots), D), dtype=bool)
    undefined = np.zeros(D, dtype=bool)
    for k, s in enumerate(slots):
        c = _slot_expr(p, s)
        V[k], grads[k], _, no_grad[k] = eval_batch(c, X)
        for r in np.flatnonzero(no_grad[k]):
            try:
                V[k, r] = c.val(X[r].tolist())
            except EvalDomainError:
                undefined[r] = True
    _, df, _, df_bad = eval_batch(p.objective, X)
    outside = (X < lo).any(axis=1) | (X > hi).any(axis=1)
    feas = np.where(undefined, math.inf, _feasibility(p, V))
    active = np.abs(V) <= cfg.tol_active

    stacks = {}  # active pattern -> index sets, LICQ-order slots, their rows
    verdicts = []
    for r in range(D):
        if outside[r]:
            verdicts.append(_BOX)
            continue
        if feas[r] > cfg.tol_feas:
            verdicts.append(_INFEASIBLE)
            continue
        key = active[:, r].tobytes()
        if key not in stacks:
            idx = _index_sets(p, active[:, r].tolist())
            act = _active_slots(p, idx)
            stacks[key] = idx, act, [where[s] for s in act]
        idx, act, rows = stacks[key]
        if no_grad[rows, r].any():
            verdicts.append(_INFEASIBLE)
            continue
        G = grads[rows, r]
        licq = rank(G, cfg.lin) == G.shape[0]
        if df_bad[r]:
            p.objective.val_grad(X[r].tolist())  # raises EvalDomainError
        mult, error = _multiplier_rule(p, df[r], act, G, licq, cfg)
        if any(mj < -cfg.tol_sign for mj in mult.mu):
            verdicts.append(_Verdict("sign", mult, idx))
            continue
        if error is not None:
            # recover_multipliers would raise here: the candidate is not
            # stationary at the required residual
            verdicts.append(_RESIDUAL)
            continue
        values = V[:, r].tolist()
        comp = _complementarity(p, mult, lambda s: values[where[s]])
        resid = _residual_from(
            p, mult, float(feas[r]), comp, df[r].tolist(),
            lambda s: grads[where[s], r].tolist(),
        )
        # under LICQ the residual is judged first, as in recover_multipliers,
        # so a candidate failing both checks counts as residual-rejected
        if licq and resid > cfg.tol_resid:
            verdicts.append(_RESIDUAL)
        elif comp > cfg.tol_comp:
            verdicts.append(_COMPLEMENTARITY)
        elif resid > cfg.tol_resid:
            verdicts.append(_RESIDUAL)
        else:
            verdicts.append(_Verdict("accept", mult, idx, resid, licq))
    return verdicts


def search_stationary_points(
    p: Problem, box, cfg: SolveConfig = DEFAULT_CONFIG
) -> SearchResult:
    """Full multi-start search returning accepted points, the sign-condition
    reject list and solver diagnostics.

    Patterns that :func:`_branch_empty` certifies are not solved: their
    pinned affine constraints, their unpinned affine inequalities and the
    inflated box have no common point, so each of their lanes would fail to
    converge or give a candidate the filter drops as outside the box or
    infeasible, before its residual test.
    ``diagnostics["inconsistent_patterns"]`` counts them, and ``solves``
    still counts every (pattern, start) pair; ``converged`` and the drops
    count only the lanes solved.

    The accept filter (:func:`_accept_verdicts`) runs once per search, on
    the bitwise-distinct converged ``x`` in first-seen order, with one
    batched walk per constraint function and one for the objective.  A
    verdict depends on nothing but ``x``, so a repeat takes the first one,
    and the counting and the deduplication that follow run for every
    candidate: ``points``, ``rejected_sign`` and ``diagnostics`` are those
    of filtering every candidate.  Besides ``solves``, ``singular_jacobian``
    and ``inconsistent_patterns``, ``diagnostics`` counts per converged
    candidate, repeats included: ``converged`` in all, and how each left
    the search unless it became a point: ``dropped_box``,
    ``dropped_infeasible`` (an undefined or nan constraint value included),
    ``dropped_complementarity``, ``residual_rejected``,
    ``rejected_sign_candidates`` and ``duplicates`` (accepted, but within
    ``dedup_radius`` of an earlier point).  These and ``len(points)`` sum to
    ``converged``.
    """
    lo, hi = float(box[0]), float(box[1])
    if not hi > lo:
        raise ValueError(f"empty box [{lo}, {hi}]")
    pad = cfg.box_inflation * (hi - lo)
    box_lo, box_hi = lo - pad, hi + pad
    if not (math.isfinite(box_lo) and math.isfinite(box_hi)):
        raise ValueError(
            f"box [{lo}, {hi}] inflated by box_inflation={cfg.box_inflation}"
            " is not finite"
        )
    patterns = enumerate_branches(p, cfg)
    starts = _grid_starts(p.n, box, cfg)
    # the filter drops every x outside the inflated box, which lies within
    # this radius: a lane cannot give an accepted point beyond it
    radius = max(abs(box_lo), abs(box_hi))
    forms = [
        (s, _affine_form(_slot_expr(p, s), p.n, radius)) for s in _problem_slots(p)
    ]
    rows = _certificate_rows(p, forms, box_lo, box_hi, cfg)
    solved = [q for q in patterns if not _branch_empty(q, rows)]
    diagnostics = {"solves": len(patterns) * len(starts), "singular_jacobian": 0,
                   "inconsistent_patterns": len(patterns) - len(solved)}
    candidates = [
        (pattern, outcome[0])
        for pattern, outcomes in zip(
            solved, _newton_solve_patterns(p, solved, starts, cfg, diagnostics)
        )
        for outcome in outcomes
        if outcome is not None
    ]
    diagnostics["converged"] = len(candidates)
    diagnostics.update(dict.fromkeys(_COUNTER.values(), 0), duplicates=0)

    # the distinct x in first-seen order, and each candidate's row among them
    row_of, distinct, rows = {}, [], []
    for _, x in candidates:
        key = x.tobytes()
        if key not in row_of:
            row_of[key] = len(distinct)
            distinct.append(x)
        rows.append(row_of[key])
    verdicts = _accept_verdicts(
        p, np.array(distinct).reshape(-1, p.n), box_lo, box_hi, cfg
    )
    accepted: list[WStationaryPoint] = []
    rejected: list[Rejection] = []
    judged = set()
    for (pattern, x), row in zip(candidates, rows):
        v = verdicts[row]
        # the lists only grow, so a repeat of an accepted or sign-rejected x
        # finds that x, or the point that kept it out, within dedup_radius
        repeat = row in judged
        judged.add(row)
        if v.kind != "accept":
            diagnostics[_COUNTER[v.kind]] += 1
            if v.kind == "sign" and not repeat:
                xt = tuple(float(c) + 0.0 for c in x)
                if all(_dist(xt, r.x) > cfg.dedup_radius for r in rejected):
                    rejected.append(
                        Rejection(xt, v.mult, v.idx, reason="sign condition")
                    )
            continue
        if not repeat:
            xt = tuple(float(c) + 0.0 for c in x)
            if all(_dist(xt, a.x) > cfg.dedup_radius for a in accepted):
                accepted.append(
                    WStationaryPoint(
                        x=xt,
                        f_value=eval_value(p.objective, x),
                        mult=v.mult,
                        idx=v.idx,
                        residual=v.resid,
                        licq=v.licq,
                        source_pattern=pattern,
                    )
                )
                continue
        diagnostics["duplicates"] += 1
    accepted.sort(key=lambda pt: pt.x)
    rejected.sort(key=lambda r: r.x)
    return SearchResult(accepted, rejected, diagnostics)


def _dist(a, b):
    return sum((ai - bi) ** 2 for ai, bi in zip(a, b)) ** 0.5


def find_stationary_points(
    p: Problem, box, cfg: SolveConfig = DEFAULT_CONFIG
) -> list[WStationaryPoint]:
    """W-stationary points of ``p`` found in ``box = (lo, hi)`` (applied per
    axis), sorted lexicographically by coordinates."""
    return search_stationary_points(p, box, cfg).points


def config_fields(cfg: SolveConfig = DEFAULT_CONFIG) -> dict:
    """Every scalar setting of ``cfg`` by name: the :class:`SolveConfig`
    fields but ``lin``, then the :class:`ToleranceConfig` fields of
    ``cfg.lin``.  These are the keys :func:`with_overrides` takes."""
    return {
        f.name: getattr(record, f.name)
        for record in (cfg, cfg.lin)
        for f in fields(record)
        if f.name != "lin"
    }


def with_overrides(cfg: SolveConfig, **kwargs) -> SolveConfig:
    """Copy of ``cfg`` with the settings of :func:`config_fields` replaced;
    linear-algebra tolerance names are routed into the nested policy
    record."""
    lin = {f.name: kwargs.pop(f.name) for f in fields(cfg.lin) if f.name in kwargs}
    if lin:
        kwargs["lin"] = replace(cfg.lin, **lin)
    return replace(cfg, **kwargs)
