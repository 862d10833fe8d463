"""Second-order classification of W-stationary points.

A W-stationary point is nondegenerate when (ND1) LICQ holds, (ND2) every
active inequality multiplier is strictly positive, (ND3) no bi-active
switching multiplier pair has a vanishing member, and (ND4) the Lagrangian
Hessian restricted to the tangent space of the fully-active local manifold
is nonsingular.  For nondegenerate points the W-index, the number of
negative restricted eigenvalues plus the number of bi-active switching
pairs, decides minimality: a nondegenerate point is a local minimizer
exactly when its W-index is zero.

Strong stability (persistence and local uniqueness of the point under small
second-order perturbations of all defining functions) is decided, under
LICQ, by ND3 together with the restricted Hessians over all inequality
subsets between the strictly-positive set and the full active set being
nonsingular with one common determinant sign.  Strict inequalities are read
with a symmetric ``tol_sign`` dead zone; zero-dimensional tangent spaces
contribute determinant sign +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import Problem, eval_hessian, eval_value
from .linalg import det_sign, inertia, nullspace_basis, rank
from .stationarity import (
    DEFAULT_CONFIG,
    CombinatorialCapError,
    IndexSets,
    LicqViolationError,
    Multipliers,
    SolveConfig,
    _active_slots,
    _gradient_rows,
    check_licq,
)

__all__ = [
    "WIndex",
    "NDReport",
    "SubsetResult",
    "StabilityVerdict",
    "Classification",
    "SubsetCapError",
    "tangent_basis",
    "lagrangian_hessian",
    "quadratic_index",
    "check_nondegeneracy",
    "classify_point",
    "check_strong_stability",
]

ND3_FAILS = "ND3_FAILS"
SINGULAR_SUBSET = "SINGULAR_SUBSET"
SIGN_MISMATCH = "SIGN_MISMATCH"
NONE = "NONE"


class SubsetCapError(CombinatorialCapError):
    """Too many inequality subsets in the strong-stability enumeration."""


@dataclass(frozen=True)
class WIndex:
    qi: int               # negative eigenvalues of the restricted Hessian
    bi: int               # number of bi-active switching pairs
    w: int                # qi + bi
    degenerate: bool      # restricted Hessian numerically singular (ND4 fails)
    tangent_dim: int


@dataclass(frozen=True)
class NDReport:
    nd1: bool
    nd2: bool
    nd3: bool
    nd4: bool
    notes: tuple[str, ...] = ()

    @property
    def nondegenerate(self):
        return self.nd1 and self.nd2 and self.nd3 and self.nd4


@dataclass(frozen=True)
class SubsetResult:
    j_star: tuple[int, ...]
    dim: int
    det_sign: int


@dataclass(frozen=True)
class StabilityVerdict:
    strongly_stable: bool
    nd3_holds: bool
    subsets: tuple[SubsetResult, ...]
    failure_reason: str  # ND3_FAILS | SINGULAR_SUBSET | SIGN_MISMATCH | NONE


@dataclass(frozen=True)
class Classification:
    x: tuple[float, ...]
    f_value: float
    nd: NDReport
    w: Optional[WIndex]
    verdict: str
    is_local_minimizer: Optional[bool]


def tangent_basis(
    p: Problem,
    x,
    idx: IndexSets,
    j_star=None,
    cfg: SolveConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Orthonormal basis of the tangent space of the locally-active manifold
    with inequalities pinned on ``j_star`` (default: all active ones).

    The rows are the LICQ layout of :func:`licq_matrix` with ``j_star`` in
    place of J0: equality gradients, alpha first members, gamma second
    members, ``j_star`` inequality gradients, both members per bi-active
    index.  Raises :class:`LicqViolationError` when those rows are dependent.
    """
    if j_star is None:
        j_star = idx.j0
    j_star = tuple(sorted(j_star))
    if not set(j_star) <= set(idx.j0):
        raise ValueError(f"j_star {j_star} is not a subset of J0 {idx.j0}")
    A = _gradient_rows(p, x, _active_slots(p, idx, j_star))
    if rank(A, cfg.lin) < A.shape[0]:
        raise LicqViolationError(
            f"active gradients are dependent at {tuple(float(v) for v in x)};"
            " tangent space is not well defined"
        )
    return nullspace_basis(A, cfg.lin)


def lagrangian_hessian(p: Problem, x, mult: Multipliers) -> np.ndarray:
    """Hessian of objective minus multiplier-weighted constraints at ``x``."""
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


def _restricted(H, V):
    M = V.T @ H @ V
    return 0.5 * (M + M.T)


def quadratic_index(
    p: Problem, x, mult: Multipliers, idx: IndexSets,
    cfg: SolveConfig = DEFAULT_CONFIG,
) -> WIndex:
    """Counts behind the W-index: restricted-Hessian negative eigenvalues
    plus the number of bi-active switching pairs."""
    V = tangent_basis(p, x, idx, cfg=cfg)
    H = lagrangian_hessian(p, x, mult)
    ine = inertia(_restricted(H, V), cfg.lin)
    qi = ine.n_neg
    bi = len(idx.beta)
    return WIndex(
        qi=qi,
        bi=bi,
        w=qi + bi,
        degenerate=ine.n_zero > 0,
        tangent_dim=V.shape[1],
    )


def check_nondegeneracy(
    p: Problem, x, mult: Multipliers, idx: IndexSets,
    cfg: SolveConfig = DEFAULT_CONFIG,
) -> NDReport:
    """Evaluate the four nondegeneracy conditions; failures are report
    content, not errors."""
    return _nondegeneracy(p, x, mult, idx, cfg)[0]


def _nondegeneracy(p, x, mult, idx, cfg):
    """The :class:`NDReport` and the :class:`WIndex` it decides ND4 from
    (``None`` when LICQ fails)."""
    notes = []
    licq = check_licq(p, x, cfg)
    nd1 = licq.holds
    if not nd1:
        notes.append(
            f"ND1: active gradient stack has rank {licq.rank} < {licq.rows}"
        )
    bad_mu = [j for j in idx.j0 if mult.mu[j] <= cfg.tol_sign]
    nd2 = not bad_mu
    if bad_mu:
        notes.append(
            "ND2: active inequality multipliers not strictly positive at "
            + ", ".join(f"j={j} (mu={mult.mu[j]:.3e})" for j in bad_mu)
        )
    bad_sigma = [
        m
        for m in idx.beta
        if abs(mult.sigma1[m]) <= cfg.tol_sign or abs(mult.sigma2[m]) <= cfg.tol_sign
    ]
    nd3 = not bad_sigma
    if bad_sigma:
        notes.append(
            "ND3: vanishing bi-active multiplier at "
            + ", ".join(
                f"m={m} (sigma1={mult.sigma1[m]:.3e}, sigma2={mult.sigma2[m]:.3e})"
                for m in bad_sigma
            )
        )
    if nd1:
        wi = quadratic_index(p, x, mult, idx, cfg)
        nd4 = not wi.degenerate
        if not nd4:
            notes.append("ND4: restricted Lagrangian Hessian is singular")
    else:
        wi = None
        nd4 = False
        notes.append("ND4: not evaluated (LICQ fails)")
    return NDReport(nd1, nd2, nd3, nd4, tuple(notes)), wi


def classify_point(
    p: Problem, x, mult: Multipliers, idx: IndexSets,
    cfg: SolveConfig = DEFAULT_CONFIG,
) -> Classification:
    """Minimizer/saddle verdict from the W-index; inconclusive when the
    point is degenerate."""
    nd, wi = _nondegeneracy(p, x, mult, idx, cfg)
    if not nd.nondegenerate:
        verdict = "degenerate: minimizer test inconclusive"
        is_min = None
    elif wi.w == 0:
        verdict = "minimizer"
        is_min = True
    elif wi.w == 1:
        verdict = "saddle"
        is_min = False
    else:
        verdict = f"higher-index (w={wi.w})"
        is_min = False
    return Classification(
        x=tuple(float(v) for v in x),
        f_value=eval_value(p.objective, x),
        nd=nd,
        w=wi,
        verdict=verdict,
        is_local_minimizer=is_min,
    )


def check_strong_stability(
    p: Problem, x, mult: Multipliers, idx: IndexSets,
    cfg: SolveConfig = DEFAULT_CONFIG,
) -> StabilityVerdict:
    """Strong-stability characterization at a W-stationary point under LICQ.

    Enumerates every inequality subset between the strictly-positive set
    and the full active set, records the restricted-Hessian determinant sign
    on each, and requires all of them nonsingular with one common sign plus
    ND3.  Raises :class:`LicqViolationError` when LICQ fails (the
    characterization does not apply) and :class:`SubsetCapError` when the
    subset count exceeds the cap.
    """
    licq = check_licq(p, x, cfg)
    if not licq.holds:
        raise LicqViolationError(
            "strong-stability characterization requires LICQ"
            f" (rank {licq.rank} < {licq.rows})"
        )
    j_plus = tuple(j for j in idx.j0 if mult.mu[j] > cfg.tol_sign)
    free = [j for j in idx.j0 if j not in j_plus]
    count = 2 ** len(free)
    if count > cfg.subset_cap:
        raise SubsetCapError(
            f"{count} inequality subsets exceed subset_cap={cfg.subset_cap}"
        )
    H = lagrangian_hessian(p, x, mult)
    subsets = []
    for mask in range(count):
        j_star = tuple(sorted(
            j_plus + tuple(free[i] for i in range(len(free)) if mask >> i & 1)
        ))
        V = tangent_basis(p, x, idx, j_star, cfg)
        subsets.append(
            SubsetResult(j_star, V.shape[1], det_sign(_restricted(H, V), cfg.lin))
        )
    nd3 = all(
        abs(mult.sigma1[m]) > cfg.tol_sign and abs(mult.sigma2[m]) > cfg.tol_sign
        for m in idx.beta
    )
    signs = {s.det_sign for s in subsets}
    if not nd3:
        reason = ND3_FAILS
    elif 0 in signs:
        reason = SINGULAR_SUBSET
    elif len(signs) > 1:
        reason = SIGN_MISMATCH
    else:
        reason = NONE
    return StabilityVerdict(
        strongly_stable=(reason == NONE),
        nd3_holds=nd3,
        subsets=tuple(subsets),
        failure_reason=reason,
    )
