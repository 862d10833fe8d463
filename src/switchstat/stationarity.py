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
pair; each expression is walked once per residual or Jacobian for all lanes
that need it, each pattern's linear systems are solved in one stacked solve,
and damping is decided lane by lane.  All lanes share
one multiplier layout, a column per slot of the problem, and the columns a
lane's pattern does not pin stay exactly 0.0.  A batch holds at most
``_LANE_BUDGET`` lanes, so wide searches run as a few batches of whole
patterns.  Every lane runs the floating-point operations of the single-start
solver :func:`newton_solve_branch` in the same order, so each outcome, and
with it every accepted point, is bitwise the same as solving the lanes one at
a time.  Before any lane starts, the search leaves out every pattern whose
pinned affine constraints an exact certificate (:func:`_pins_inconsistent`)
shows to have no common zero, up to a rigorous rounding bound, anywhere in
the inflated search box: no lane of such a pattern can converge to a point
the accept filter keeps.  Continuation, which solves from one start at a
time, calls :func:`newton_solve_branch` directly.  Its residual and Jacobian
run as straight-line code compiled once per shape of the branch system (the
objective and the pinned constraints without their constant values),
bitwise equal to the tree methods' ``val_grad`` and ``val_grad_hess``; the
relaxed problems along a continuation path differ only in constants and
share it.

The accept filter runs once per bitwise-distinct converged ``x``: many lanes
converge to the same bits (on the benchmark's mid3 problem, 1125 converged
lanes hold 493 distinct ``x``).  Its verdict reads nothing of a lane but
``x``, so a lane that repeats an earlier ``x`` bit for bit takes that
verdict, and counting and deduplication still run per lane: the result is
exactly that of filtering every lane.  A point where a constraint function
is undefined is infeasible, and is dropped like any other.
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
    """Branch or subset enumeration would exceed its configured cap."""


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
        # a negative budget has no meaning, and the batched solver, which
        # always tries the full step, would not match the single-start one
        for name in ("max_iter", "max_halvings", "polish_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.grid_points < 1:
            raise ValueError(f"grid_points must be >= 1, got {self.grid_points}")


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
    ``inf`` where a constraint function is undefined."""
    xl = [float(v) for v in x]
    worst = 0.0
    try:
        for h in p.equalities:
            worst = max(worst, abs(h.val(xl)))
        for g in p.inequalities:
            worst = max(worst, max(0.0, -g.val(xl)))
        for f1, f2 in p.switches:
            worst = max(worst, abs(f1.val(xl) * f2.val(xl)))
    except EvalDomainError:
        return math.inf
    return worst


def complementarity_violation(p: Problem, x, mult: Multipliers) -> float:
    """Largest multiplier-times-constraint product magnitude over the
    inequality and switching slots; ``inf`` where a constraint with a
    nonzero multiplier is undefined, as :func:`feasibility_violation`."""
    xl = [float(v) for v in x]
    worst = 0.0
    try:
        for (kind, _), c, y in _weighted_slots(p, mult):
            if kind != "lam":
                worst = max(worst, abs(y * c.val(xl)))
    except EvalDomainError:
        return math.inf
    return worst


def active_sets(p: Problem, x, cfg: SolveConfig = DEFAULT_CONFIG) -> IndexSets:
    """Classify active inequalities and switching branches at ``x``.

    A switching index whose two members are both nonzero belongs to no set;
    on feasible points the three sets partition the switching indices.
    """
    xl = [float(v) for v in x]
    tol = cfg.tol_active
    j0 = tuple(
        j for j, g in enumerate(p.inequalities) if abs(g.val(xl)) <= tol
    )
    alpha, beta, gamma = [], [], []
    for m, (f1, f2) in enumerate(p.switches):
        z1 = abs(f1.val(xl)) <= tol
        z2 = abs(f2.val(xl)) <= tol
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
    worst = max(feas, comp, max([0.0] + [-mu for mu in mult.mu]))
    xl = [float(v) for v in x]
    _, df = p.objective.val_grad(xl)
    acc = list(df)
    for _, c, y in _weighted_slots(p, mult):
        _, g = c.val_grad(xl)
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
    mult, error = _multiplier_rule(p, x, slots, G, True, cfg)
    if error is not None:
        raise error
    resid = _residual(p, x, mult, feas, complementarity_violation(p, x, mult))
    if resid > cfg.tol_resid:
        raise NotStationaryError(
            f"stationarity residual {resid:.3e} exceeds tol_resid"
            f" {cfg.tol_resid:.1e}"
        )
    return mult


def _multiplier_rule(p: Problem, x, slots, G, licq, cfg: SolveConfig):
    """Least-squares multipliers of the multiplier rule at ``x`` on the
    gradient stack ``G`` of the LICQ-order ``slots``: the unique ones when
    ``licq`` (G has full row rank), a representative of the multiplier set
    otherwise.  Returns them and, under LICQ, the
    :class:`SingularSystemError` of :func:`solve_linear`'s square residual
    test on that solve, else None.  :func:`solve_linear`'s column-rank test
    on ``G.T`` would repeat the row-rank test on ``G`` that decided ``licq``
    (on mid3, the examples and the criterion-7 corpus no QR diagonal entry
    of either lies within 10^7.8 of the cutoff), so it does not run."""
    df = eval_gradient(p.objective, x)
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


def _branch_residual(objective, cons, z, n):
    """Residual of the square branch system at z = (x, multipliers)."""
    xl = z[:n].tolist()
    y = z[n:]
    _, df = objective.val_grad(xl)
    top = list(df)
    resid = np.empty(n + len(cons))
    for i, c in enumerate(cons):
        cv, cg = c.val_grad(xl)
        yi = y[i]
        if yi != 0.0:
            for t in range(n):
                top[t] -= yi * cg[t]
        resid[n + i] = cv
    resid[:n] = top
    return resid


def _branch_jacobian(objective, cons, z, n):
    xl = z[:n].tolist()
    y = z[n:]
    m = len(cons)
    J = np.zeros((n + m, n + m))
    _, _, Hf = objective.val_grad_hess(xl)
    H = np.array(Hf)
    for i, c in enumerate(cons):
        _, cg, cH = c.val_grad_hess(xl)
        if y[i] != 0.0:
            H -= y[i] * np.array(cH)
        row = np.array(cg)
        J[n + i, :n] = row
        J[:n, n + i] = -row
    J[:n, :n] = H
    return J


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
    bitwise equal to :func:`_branch_residual` and :func:`_branch_jacobian`
    (a nested list for the Jacobian) and raise where those raise: each tree
    is :class:`expr._StraightLine` code, the updates by multiplier ``y_i``
    are skipped when ``y_i`` is zero, and they subtract ``y_i * gradient``
    and ``y_i * Hessian`` entry by entry as the reference's arrays do."""
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
        + [code.ref(code.neg(cg[a])) for cg in grads]
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
    there.  The search does not solve a pattern whose pinned affine
    constraints are provably inconsistent (:func:`_pins_inconsistent`); the
    solvers themselves have no such test, so on an inconsistent branch their
    steps keep failing to improve."""
    b = -np.asarray(r)
    try:
        return np.linalg.solve(J, b)
    except np.linalg.LinAlgError:
        if diagnostics is not None:
            diagnostics["singular_jacobian"] = (
                diagnostics.get("singular_jacobian", 0) + 1
            )
        return np.linalg.lstsq(J, b, rcond=None)[0]


def newton_solve_branch(
    p: Problem,
    pattern: BranchPattern,
    start,
    cfg: SolveConfig = DEFAULT_CONFIG,
    mult_start=None,
    diagnostics=None,
):
    """Damped Newton on one branch system from ``start``.

    Multipliers start at zero unless ``mult_start`` (one value per unknown
    slot) is given.  Steps are halved until the residual max-norm strictly
    decreases; a step with no improving damping, a singular Jacobian or an
    exhausted iteration budget all yield ``None``.  After reaching
    ``tol_resid`` a few extra full steps polish the root while they keep
    improving, so converged points are accurate well beyond the acceptance
    threshold.

    The residual and the Jacobian run as straight-line code compiled once
    per shape of the branch system (:func:`_branch_code`), bitwise equal to
    :func:`_branch_residual` and :func:`_branch_jacobian` on the tree
    methods; the constants of the problem are arguments, so the relaxed
    problems along a continuation path share the code of each pattern.
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
        z[n:] = np.asarray(mult_start, dtype=float)
    z = z.tolist()

    def residual(zv):
        r = residual_code(zv, consts)
        return r, _max_norm(r)

    def jacobian(zv):
        return np.array(jacobian_code(zv, consts))

    try:
        r, rnorm = residual(z)
    except EvalDomainError:
        return None
    if not math.isfinite(rnorm):
        return None

    converged = rnorm <= cfg.tol_resid
    for _ in range(cfg.max_iter):
        if converged:
            break
        try:
            J = jacobian(z)
        except EvalDomainError:
            return None
        step = _newton_step(J, r, diagnostics).tolist()
        if not all(map(math.isfinite, step)) or (
            _max_norm(step) > _BLOW_UP * (1.0 + _max_norm(z))
        ):
            return None
        t = 1.0
        improved = False
        for _ in range(cfg.max_halvings + 1):
            z_try = [zi + t * si for zi, si in zip(z, step)]
            try:
                r_try, rn_try = residual(z_try)
            except EvalDomainError:
                rn_try = np.inf
            if math.isfinite(rn_try) and rn_try < rnorm:
                z, r, rnorm = z_try, r_try, rn_try
                improved = True
                break
            t *= 0.5
        if not improved:
            return None
        converged = rnorm <= cfg.tol_resid
    if not converged:
        return None

    # polish: extra full steps while they strictly improve the residual; its
    # singular Jacobians are not counted
    for _ in range(cfg.polish_steps):
        try:
            step = _newton_step(jacobian(z), r, None).tolist()
            z_try = [zi + si for zi, si in zip(z, step)]
            r_try, rn_try = residual(z_try)
        except EvalDomainError:
            break
        if math.isfinite(rn_try) and rn_try < rnorm:
            z, r, rnorm = z_try, r_try, rn_try
        else:
            break

    return np.array(z[:n]), _multipliers_from_slots(p, slots, z[n:])


def _lanes(include, i):
    """The rows of the lanes whose pattern pins ``cons[i]``: a full slice
    when every lane does, None when none does."""
    col = include[:, i]
    if col.all():
        return slice(None)
    rows = np.flatnonzero(col)
    return rows if rows.size else None


def _batch_residual(objective, cons, Z, n, include):
    """_branch_residual for every row of ``Z``; returns (R, failed lanes).

    ``include[k, i]`` says whether lane k pins ``cons[i]``.  A constraint is
    walked only over the lanes that pin it, and fails only those; elsewhere
    its residual entry is 0.0 and it leaves the gradient row untouched, as it
    must where the lane's multiplier column holds 0.0.
    """
    X = Z[:, :n]
    _, top, _, bad = eval_batch(objective, X)
    R = np.zeros_like(Z)
    with np.errstate(all="ignore"):  # failed lanes carry inf and nan
        for i, c in enumerate(cons):
            rows = _lanes(include, i)
            if rows is None:
                continue
            cv, cg, _, cbad = eval_batch(c, X[rows])
            yi = Z[rows, n + i, None]
            # where y_i == 0 the scalar path skips the update; subtracting
            # 0*g could flip the sign of a zero or turn an infinite g into nan
            t = top[rows]
            top[rows] = np.where(yi != 0.0, t - yi * cg, t)
            R[rows, n + i] = cv
            bad[rows] |= cbad
    R[:, :n] = top
    return R, bad


def _batch_lagrangian(objective, cons, Z, n, include):
    """Lagrangian Hessians ``H[B, n, n]`` and constraint gradient rows
    ``G[B, m, n]`` of the branch Jacobian at every row of ``Z``; returns
    (H, G, failed lanes).  ``include`` as for :func:`_batch_residual`; rows
    of constraints a lane does not pin are 0.0."""
    X = Z[:, :n]
    G = np.zeros((len(Z), len(cons), n))
    _, _, H, bad = eval_batch(objective, X, hessian=True)
    with np.errstate(all="ignore"):
        for i, c in enumerate(cons):
            rows = _lanes(include, i)
            if rows is None:
                continue
            _, cg, cH, cbad = eval_batch(c, X[rows], hessian=True)
            yi = Z[rows, n + i, None, None]
            Hr = H[rows]
            H[rows] = np.where(yi != 0.0, Hr - yi * cH, Hr)
            G[rows, i] = cg
            bad[rows] |= cbad
    return H, G, bad


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
# problem, and a damping round evaluates several trial points per lane, so a
# batch's arrays grow with lanes x slots: the budget bounds the memory of wide
# searches (mid3, 36 patterns x 125 starts, runs as 5 batches), while
# searches with a few starts per pattern (up to 324 lanes in the criterion-7
# corpus) still run as one batch, which is where batching across patterns
# saves tree walks.
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


def _pins_inconsistent(p: Problem, pattern: BranchPattern, forms, tol) -> bool:
    """Whether the affine constraints ``pattern`` pins certify that its
    branch system's residual max norm exceeds ``tol`` at every ``x`` with
    max |x_j| <= radius; ``forms`` pairs every slot of ``p`` with its
    constraint's :func:`expr._affine_form` at that radius (None when not
    affine), computed once for all patterns.

    Each pinned slot whose tree is affine has exact rational coefficients
    c_i(x) = a_i·x + b_i and a bound err_i on the rounding of its float
    value.  Fraction-free elimination in integers finds rational y with
    Σ y_i a_i = 0; then |Σ y_i b_i| = |Σ y_i c_i(x)| <= ‖y‖₁ max_i |c_i(x)|
    for every real x, so some pinned value is at least
    β = |Σ y_i b_i| / ‖y‖₁ in exact arithmetic, and more than β - max err_i
    (over the support of y) as computed.  The residual holds every pinned
    value, so when that exceeds ``tol`` no iterate in the radius converges.
    Patterns that are singular but consistent (one function pinned twice)
    leave only rows with Σ y_i b_i = 0 and are not certified.
    """
    pinned = [f for s, f in forms if f is not None and _pins(pattern, s)]
    # row k starts as (A, B) = D_k (a_k, b_k) with y = D_k e_k, and every
    # row keeps (A, B) = Σ y_i (a_i, b_i)
    rows = [
        (list(a), b, [d if i == k else 0 for i in range(len(pinned))])
        for k, (a, b, d, _) in enumerate(pinned)
    ]
    for j in range(p.n):
        k = next((k for k, row in enumerate(rows) if row[0][j]), None)
        if k is None:
            continue
        pa, pb, py = rows.pop(k)
        for r, (a, b, y) in enumerate(rows):
            pj, aj = pa[j], a[j]
            if aj:
                a = [pj * c - aj * c2 for c, c2 in zip(a, pa)]
                y = [pj * c - aj * c2 for c, c2 in zip(y, py)]
                b = pj * b - aj * pb
                h = math.gcd(*a, b, *y)  # y is never all zero
                rows[r] = [c // h for c in a], b // h, [c // h for c in y]
    # every row left has A = 0
    for _, b, y in rows:
        if b:
            bound = _up(tol + max(pinned[i][3] for i, yi in enumerate(y) if yi))
            if math.isfinite(bound):
                num, den = bound.as_integer_ratio()
                if abs(b) * den > num * sum(map(abs, y)):
                    return True
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

    R, failed = _batch_residual(obj, cons, Z, n, include)
    rnorm = _max_norms(R)
    failed |= ~np.isfinite(rnorm)
    converged = ~failed & (rnorm <= cfg.tol_resid)
    # damping factors 1, 1/2, 1/4, ..., formed as the scalar loop forms them
    factors = [1.0]
    for _ in range(cfg.max_halvings):
        factors.append(factors[-1] * 0.5)
    factors = np.array(factors)

    for _ in range(cfg.max_iter):
        live = np.flatnonzero(~failed & ~converged)
        if not live.size:
            break
        H, G, bad = _batch_lagrangian(obj, cons, Z[live], n, include[live])
        failed[live[bad]] = True
        live, H, G = live[~bad], H[~bad], G[~bad]
        step = _pattern_steps(H, G, R[live], lane_pattern[live], cols, diagnostics)
        blown = ~np.all(np.isfinite(step), axis=1) | (
            _max_norms(step) > _BLOW_UP * (1.0 + _max_norms(Z[live]))
        )
        failed[live[blown]] = True
        live, step = live[~blown], step[~blown]
        # a lane takes the first damping factor that strictly lowers its
        # residual.  Factors are tried in chunks of doubling size, each
        # chunk for every lane still searching in one walk, so a lane that
        # needs many halvings costs few walks
        done, size = 0, 1
        while live.size and done < len(factors):
            ts = factors[done:done + size]
            k, L = len(ts), live.size
            Z_try = (Z[live] + ts[:, None, None] * step).reshape(k * L, -1)
            R_try, bad = _batch_residual(
                obj, cons, Z_try, n, np.tile(include[live], (k, 1))
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
        failed[live] = True  # no improving damping
        converged = ~failed & (rnorm <= cfg.tol_resid)
    failed |= ~converged

    # polish: extra full steps while they strictly improve the residual
    live = np.flatnonzero(~failed)
    for _ in range(cfg.polish_steps):
        if not live.size:
            break
        H, G, bad = _batch_lagrangian(obj, cons, Z[live], n, include[live])
        live, H, G = live[~bad], H[~bad], G[~bad]
        step = _pattern_steps(H, G, R[live], lane_pattern[live], cols, None)
        Z_try = Z[live] + step
        R_try, bad = _batch_residual(obj, cons, Z_try, n, include[live])
        rn_try = _max_norms(R_try)
        ok = ~bad & np.isfinite(rn_try) & (rn_try < rnorm[live])
        live = live[ok]
        Z[live], R[live], rnorm[live] = Z_try[ok], R_try[ok], rn_try[ok]

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

    Every lane takes the same Newton steps, halvings, step-blow-up test,
    least-squares fallback and polish steps.  Each pattern's unknowns are a
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


def _grid_starts(n, box, cfg):
    """Multi-start points, one per row, in lexicographic grid order."""
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
    """The accept filter's verdict on one candidate: ``kind`` is "drop"
    (outside the inflated box, infeasible, undefined there, or violating
    complementarity), "residual" (stationarity residual too large), "sign"
    (a negative inequality multiplier) or "accept"."""

    kind: str
    mult: Optional[Multipliers] = None
    idx: Optional[IndexSets] = None
    resid: float = 0.0
    licq: bool = False


_DROP = _Verdict("drop")
_RESIDUAL = _Verdict("residual")


def _accept_verdict(p: Problem, x, lo, hi, cfg: SolveConfig) -> _Verdict:
    """The accept filter on one converged candidate ``x``, inside the
    inflated box ``[lo, hi]`` per axis: feasibility, the index sets, the LICQ
    rank, least-squares multipliers and their sign, then an independent
    residual.  It reads nothing of the candidate but ``x``."""
    if np.any(x < lo) or np.any(x > hi):
        return _DROP
    try:
        idx, slots, G, r, feas = _licq_stack(p, x, cfg)
    except (InfeasiblePointError, EvalDomainError):
        # infeasible, a constraint function undefined there included; or an
        # active constraint defined there whose gradient is not (x2*x1^(-1)
        # at (1e-300, 0)), which leaves no gradient stack to judge
        return _DROP
    licq = r == G.shape[0]
    mult, error = _multiplier_rule(p, x, slots, G, licq, cfg)
    if any(mj < -cfg.tol_sign for mj in mult.mu):
        return _Verdict("sign", mult, idx)
    if error is not None:
        # recover_multipliers would raise here: the candidate is not
        # stationary at the required residual
        return _RESIDUAL
    comp = complementarity_violation(p, x, mult)
    resid = _residual(p, x, mult, feas, comp)
    # under LICQ the residual is judged first, as in recover_multipliers, so
    # a candidate failing both checks counts as residual-rejected
    if licq and resid > cfg.tol_resid:
        return _RESIDUAL
    if comp > cfg.tol_comp:
        return _DROP
    if resid > cfg.tol_resid:
        return _RESIDUAL
    return _Verdict("accept", mult, idx, resid, licq)


def _per_distinct_x(verdict):
    """``verdict(x)`` run once per bitwise-distinct ``x``: later calls with
    the same bytes return the first result.  The key is ``x.tobytes()``, so
    ``-0.0`` and ``0.0`` stay apart."""
    memo = {}

    def cached(x):
        key = x.tobytes()
        if key not in memo:
            memo[key] = verdict(x)
        return memo[key]

    return cached


def search_stationary_points(
    p: Problem, box, cfg: SolveConfig = DEFAULT_CONFIG
) -> SearchResult:
    """Full multi-start search returning accepted points, the sign-condition
    reject list and solver diagnostics.

    Patterns that :func:`_pins_inconsistent` certifies are not solved, since
    no lane of theirs converges inside the inflated box, beyond which the
    filter accepts nothing; ``diagnostics["inconsistent_patterns"]`` counts
    them, and ``solves`` still counts every (pattern, start) pair.

    The accept filter runs once per bitwise-distinct converged ``x``.  Its
    verdict depends on nothing but ``x``, so a repeat takes the first
    verdict, and the counting and the deduplication that follow run for
    every candidate as before: ``points``, ``rejected_sign`` and
    ``diagnostics`` are those of filtering every candidate.
    """
    lo, hi = float(box[0]), float(box[1])
    if not hi > lo:
        raise ValueError(f"empty box [{lo}, {hi}]")
    patterns = enumerate_branches(p, cfg)
    starts = _grid_starts(p.n, box, cfg)
    pad = cfg.box_inflation * (hi - lo)
    # the filter drops every x outside the inflated box, which lies within
    # this radius: a lane cannot give an accepted point beyond it
    radius = max(abs(lo - pad), abs(hi + pad))
    forms = [
        (s, _affine_form(_slot_expr(p, s), p.n, radius)) for s in _problem_slots(p)
    ]
    solved = [
        q for q in patterns if not _pins_inconsistent(p, q, forms, cfg.tol_resid)
    ]
    diagnostics = {"solves": len(patterns) * len(starts), "converged": 0,
                   "singular_jacobian": 0,
                   "inconsistent_patterns": len(patterns) - len(solved),
                   "residual_rejected": 0}
    candidates = [
        (pattern, outcome)
        for pattern, outcomes in zip(
            solved, _newton_solve_patterns(p, solved, starts, cfg, diagnostics)
        )
        for outcome in outcomes
    ]

    verdict_of = _per_distinct_x(
        lambda x: _accept_verdict(p, x, lo - pad, hi + pad, cfg)
    )
    accepted: list[WStationaryPoint] = []
    rejected: list[Rejection] = []
    for pattern, outcome in candidates:
        if outcome is None:
            continue
        diagnostics["converged"] += 1
        x, _ = outcome
        v = verdict_of(x)
        if v.kind == "drop":
            continue
        if v.kind == "residual":
            diagnostics["residual_rejected"] += 1
            continue
        xt = tuple(float(c) + 0.0 for c in x)
        if v.kind == "sign":
            if all(_dist(xt, r.x) > cfg.dedup_radius for r in rejected):
                rejected.append(
                    Rejection(xt, v.mult, v.idx, reason="sign condition")
                )
            continue
        if any(_dist(xt, a.x) <= cfg.dedup_radius for a in accepted):
            continue
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
