"""Small dense linear-algebra kernels with an explicit tolerance policy.

Everything that turns floating-point numbers into discrete verdicts (rank,
nullity, eigenvalue sign counts, determinant signs) runs through the single
:class:`ToleranceConfig` record so the numerical interpretation of exact
conditions stays auditable and overridable in one place.

Rank comes from the diagonal of a column-pivoted Householder QR computed
here in plain Python, with LAPACK ``dgeqp3``'s pivot rule.  The matrices
ranked are active-gradient stacks of a few rows and columns, where a Python
loop costs less than a LAPACK call, and without scipy in this module
``analyze`` and ``relax`` never import it: its import takes more start-up
time and memory than numpy's and this package's together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "Inertia",
    "SingularSystemError",
    "rank",
    "nullspace_basis",
    "solve_linear",
    "inertia",
    "det_sign",
]


class SingularSystemError(ValueError):
    """Linear solve requested on a column-rank-deficient system."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds for rank/inertia decisions.

    rank cutoff: ``tau = max(max(m, n) * rank_scale * |r_00|, rank_floor)``
    where ``|r_00|`` is the largest diagonal magnitude of the R factor of the
    column-pivoted Householder QR that :func:`rank` computes in this module.
    Eigenvalues within ``eig_zero * max(1, spectral scale)`` of zero count as
    zero.  ``solve_residual`` bounds the acceptable residual of
    a square solve relative to the data magnitude.
    """

    rank_scale: float = 1e-10
    rank_floor: float = 1e-14
    eig_zero: float = 1e-8
    solve_residual: float = 1e-10


DEFAULT_TOLS = ToleranceConfig()


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts of a symmetric matrix; sums to its dimension."""

    n_neg: int
    n_zero: int
    n_pos: int

    @property
    def dim(self):
        return self.n_neg + self.n_zero + self.n_pos


def rank(A, tols: ToleranceConfig = DEFAULT_TOLS) -> int:
    """Numerical row/column rank via column-pivoted QR diagonal magnitudes.

    0 for an empty matrix; raises ``ValueError`` when ``A`` holds an inf or
    a nan."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if A.size == 0:
        return 0
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    diag = _pivoted_qr_diagonal(A.T.tolist())
    tau = max(max(m, n) * tols.rank_scale * max(diag), tols.rank_floor)
    return sum(d > tau for d in diag)


def _pivoted_qr_diagonal(cols) -> list:
    """``|r_kk|`` of the column-pivoted Householder QR of the matrix whose
    columns are the equal-length lists ``cols`` (consumed).

    Step k pivots to the remaining column of largest norm over rows k and
    below, the first one on a tie (``dgeqp3``'s rule), so ``|r_kk|`` is that
    norm; the reflection that zeroes the pivot column below row k is then
    applied to the other columns, and row k is dropped.  The list stops
    early when every remaining column is zero: the entries left out are 0.
    """
    diag = []
    while cols and cols[0]:
        norms = [math.hypot(*c) for c in cols]
        r = max(norms)
        diag.append(r)
        if r == 0.0:
            break
        p = norms.index(r)
        cols[0], cols[p] = cols[p], cols[0]
        x = cols[0]
        # reflector u = x + sign(x0) |x| e0, so that H x = -sign(x0) |x| e0
        # and H = I - u u^T / (|x| (|x| + |x0|))
        u0 = x[0] + math.copysign(r, x[0])
        h = r * (r + abs(x[0]))
        tail = x[1:]
        rest = []
        for c in cols[1:]:
            s = (u0 * c[0] + sum([a * b for a, b in zip(tail, c[1:])])) / h
            rest.append([b - s * a for a, b in zip(tail, c[1:])])
        cols = rest
    return diag


def nullspace_basis(A, tols: ToleranceConfig = DEFAULT_TOLS) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of ``A``, shape (n, n - rank)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[1]
    r = rank(A, tols)
    if r == 0:
        return np.eye(n)
    # take the right singular vectors beyond the rank decided above, so that
    # rank + nullity = n holds by construction
    _, _, vt = np.linalg.svd(A)
    return vt[r:, :].T.copy()


def solve_linear(A, b, tols: ToleranceConfig = DEFAULT_TOLS) -> np.ndarray:
    """Minimum-residual solution of ``A x = b`` for square or overdetermined A.

    Raises :class:`SingularSystemError` when the column rank is deficient
    under the tolerance policy, or when a square solve fails its residual
    sanity bound (ill-conditioning that slipped past the rank test).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if rank(A, tols) < n:
        raise SingularSystemError(
            f"column rank of the {m}x{n} system is deficient"
        )
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    _check_square_residual(A, b, x, tols)
    return x


def _check_square_residual(A, b, x, tols: ToleranceConfig) -> None:
    """:func:`solve_linear`'s residual test on its least-squares solution
    ``x`` of the 2-D ``A`` and 1-D ``b``: raises
    :class:`SingularSystemError` where :func:`solve_linear` would after its
    rank test passed."""
    if A.shape[0] != A.shape[1]:
        return
    scale = 1.0 + float(np.abs(A).max(initial=0.0)) * float(
        np.abs(x).max(initial=0.0)
    ) + float(np.abs(b).max(initial=0.0))
    resid = float(np.abs(A @ x - b).max(initial=0.0))
    if resid > tols.solve_residual * scale:
        raise SingularSystemError(
            f"square solve residual {resid:.3e} exceeds {tols.solve_residual:.1e}"
            f" * {scale:.3e}"
        )


def inertia(S, tols: ToleranceConfig = DEFAULT_TOLS) -> Inertia:
    """Sign counts of the eigenvalues of a symmetric matrix.

    Eigenvalues within ``eig_zero * max(1, max |eigenvalue|)`` of zero count
    as zero.  The empty 0x0 matrix has inertia (0, 0, 0).
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if S.size == 0:
        return Inertia(0, 0, 0)
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"inertia needs a square matrix, got {S.shape}")
    S = 0.5 * (S + S.T)
    w = np.linalg.eigvalsh(S)
    tau = tols.eig_zero * max(1.0, float(np.abs(w).max()))
    n_neg = int(np.count_nonzero(w < -tau))
    n_pos = int(np.count_nonzero(w > tau))
    return Inertia(n_neg, len(w) - n_neg - n_pos, n_pos)


def det_sign(S, tols: ToleranceConfig = DEFAULT_TOLS) -> int:
    """Determinant sign of a symmetric matrix: 0 if numerically singular,
    else (-1)**(number of negative eigenvalues).

    The empty 0x0 matrix has determinant sign +1 (empty-product convention;
    this makes sign comparisons over zero-dimensional tangent spaces total).
    """
    ine = inertia(S, tols)
    if ine.n_zero > 0:
        return 0
    return -1 if ine.n_neg % 2 else 1
