"""Small dense linear-algebra kernels with an explicit tolerance policy.

Everything that turns floating-point numbers into discrete verdicts (rank,
nullity, eigenvalue sign counts, determinant signs) runs through the single
:class:`ToleranceConfig` record so the numerical interpretation of exact
conditions stays auditable and overridable in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    where ``|r_00|`` is the largest diagonal magnitude of the column-pivoted
    QR factor.  Eigenvalues within ``eig_zero * max(1, spectral scale)`` of
    zero count as zero.  ``solve_residual`` bounds the acceptable residual of
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
    """Numerical row/column rank via column-pivoted QR diagonal magnitudes."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if A.size == 0:
        return 0
    R = scipy.linalg.qr(A, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(R))
    if diag.size == 0:
        return 0
    tau = max(max(m, n) * tols.rank_scale * float(diag.max()), tols.rank_floor)
    return int(np.count_nonzero(diag > tau))


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
    return _checked_lstsq(A, b, None, tols)


def _checked_lstsq(A, b, x, tols: ToleranceConfig) -> np.ndarray:
    """:func:`solve_linear` on a solution ``x`` the caller already holds.

    ``x`` must be ``np.linalg.lstsq(A, b, rcond=None)[0]`` for the same
    ``A`` and ``b``, or None to compute it here.  The rank test and the
    square residual test run as in :func:`solve_linear`, so ``x`` is
    returned, or :class:`SingularSystemError` raised, exactly where
    :func:`solve_linear` would return or raise.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if rank(A, tols) < n:
        raise SingularSystemError(
            f"column rank of the {m}x{n} system is deficient"
        )
    if x is None:
        x = np.linalg.lstsq(A, b, rcond=None)[0]
    if m == n:
        scale = 1.0 + float(np.abs(A).max(initial=0.0)) * float(
            np.abs(x).max(initial=0.0)
        ) + float(np.abs(b).max(initial=0.0))
        resid = float(np.abs(A @ x - b).max(initial=0.0))
        if resid > tols.solve_residual * scale:
            raise SingularSystemError(
                f"square solve residual {resid:.3e} exceeds {tols.solve_residual:.1e}"
                f" * {scale:.3e}"
            )
    return x


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
