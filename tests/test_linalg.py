"""Tolerance-policy linear algebra kernel tests."""

import math

import numpy as np
import pytest
import scipy.linalg

from switchstat import linalg, stationarity
from switchstat.cli import main
from switchstat.linalg import (
    DEFAULT_TOLS,
    Inertia,
    SingularSystemError,
    _pivoted_qr_diagonal,
    det_sign,
    inertia,
    nullspace_basis,
    rank,
    solve_linear,
)
from tests.conftest import (
    CROSS_LINEAR,
    CROSS_QUADRATIC,
    INSTABILITY_BOTH,
    INSTABILITY_ONE,
    STABLE_WITHOUT_ND2,
)
from tests.test_stationarity import MID3


def _lapack_rank(A, tols=DEFAULT_TOLS):
    """``rank``'s cutoff rule on the R diagonal of LAPACK's pivoted QR
    (``dgeqp3``): the rank, the diagonal magnitudes and the cutoff."""
    diag = np.abs(np.diag(scipy.linalg.qr(A, mode="r", pivoting=True)[0]))
    tau = max(max(A.shape) * tols.rank_scale * float(diag.max()), tols.rank_floor)
    return int(np.count_nonzero(diag > tau)), diag, tau


def _margin(diag, tau):
    """Decades between the cutoff and the nonzero diagonal entry nearest
    to it."""
    return min(
        (abs(math.log10(d / tau)) for d in diag if d > 0.0), default=math.inf
    )


def _test_matrices(rng):
    """Random matrices of 1 to 4 rows and 1 to 5 columns and their
    transposes, of every rank, scaled by 10^-8, 1 and 10^8, some with a zero
    or a duplicated row; each with its exact rank."""
    for _ in range(300):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        r = int(rng.integers(0, min(m, n) + 1))
        A = (
            rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            if r
            else np.zeros((m, n))
        )
        variant = rng.integers(3)
        if variant == 1:
            A = np.insert(A, int(rng.integers(m + 1)), 0.0, axis=0)
        elif variant == 2:
            A = np.insert(A, int(rng.integers(m + 1)), A[int(rng.integers(m))], axis=0)
        for scale in (1e-8, 1.0, 1e8):
            yield A * scale, r
            yield (A * scale).T, r


class TestRank:
    def test_identity_rows(self):
        assert rank(np.array([[1.0, 0.0], [0.0, 1.0]])) == 2

    def test_collinear_rows(self):
        assert rank(np.array([[1.0, 0.0], [2.0, 0.0]])) == 1

    def test_gradient_stack_with_dependent_inequality(self):
        # stacked gradients of x1 + x2, x1, x2 at the origin
        A = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert rank(A) == 2

    def test_empty(self):
        assert rank(np.zeros((0, 3))) == 0
        assert rank(np.zeros((2, 0))) == 0

    def test_near_dependent_rows_below_tolerance(self):
        A = np.array([[1.0, 0.0], [1.0, 1e-16]])
        assert rank(A) == 1

    def test_non_finite_input_raises(self):
        for bad in (math.inf, -math.inf, math.nan):
            A = np.array([[1.0, 0.0], [0.0, bad]])
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                rank(A)

    def test_matches_lapack_pivoted_qr(self):
        rng = np.random.default_rng(21)
        for A, r in _test_matrices(rng):
            lapack_r, lapack_diag, _ = _lapack_rank(A)
            assert rank(A) == lapack_r == r, A
            # the same pivot order gives the same diagonal up to rounding;
            # entries left out after an all-zero remainder are zero
            diag = _pivoted_qr_diagonal(A.T.tolist())
            diag += [0.0] * (len(lapack_diag) - len(diag))
            assert np.abs(np.array(diag) - lapack_diag).max() <= (
                1e-13 * lapack_diag.max()
            ), A

    def test_pivot_ties_go_to_the_first_column(self):
        # three columns of norm 5: pivoting on (5, 0) leaves (0, 5) whole,
        # pivoting on (3, 4) leaves parts of norm 4 and 3
        for A, diag in (
            (np.array([[5.0, 0.0, 3.0], [0.0, 5.0, 4.0]]), [5.0, 5.0]),
            (np.array([[3.0, 5.0, 0.0], [4.0, 0.0, 5.0]]), [5.0, 4.0]),
        ):
            assert _pivoted_qr_diagonal(A.T.tolist()) == pytest.approx(diag)
            assert list(_lapack_rank(A)[1]) == pytest.approx(diag)

    def test_analyze_rank_calls_keep_their_lapack_verdict(self, monkeypatch, tmp_path):
        # every rank call of analyze on mid3 and the five examples; over all
        # of them the diagonal entry nearest to the cutoff lies 10^9.13 from
        # it, in both factorisations, far outside rounding
        calls = []

        def spy(A, tols=DEFAULT_TOLS):
            calls.append((np.atleast_2d(np.array(A, dtype=float)), tols))
            return rank(A, tols)

        monkeypatch.setattr(linalg, "rank", spy)
        monkeypatch.setattr(stationarity, "rank", spy)
        texts = [MID3, CROSS_LINEAR, CROSS_QUADRATIC, INSTABILITY_BOTH,
                 INSTABILITY_ONE, STABLE_WITHOUT_ND2]
        for k, text in enumerate(texts):
            path = tmp_path / f"p{k}.txt"
            path.write_text(text)
            assert main(["analyze", str(path), "--json", str(tmp_path / "r.json")]) == 0
        nonempty = [(A, tols) for A, tols in calls if A.size]
        assert len(nonempty) > 500
        smallest = math.inf
        for A, tols in nonempty:
            lapack_r, lapack_diag, tau = _lapack_rank(A, tols)
            assert rank(A, tols) == lapack_r
            diag = _pivoted_qr_diagonal(A.T.tolist())
            smallest = min(smallest, _margin(lapack_diag, tau), _margin(diag, tau))
        assert smallest > 9.0


class TestNullspace:
    def test_single_row(self):
        V = nullspace_basis(np.array([[0.0, 1.0]]))
        assert V.shape == (2, 1)
        assert abs(abs(V[0, 0]) - 1.0) < 1e-14
        assert abs(V[1, 0]) < 1e-14

    def test_full_rank_square(self):
        V = nullspace_basis(np.eye(2))
        assert V.shape == (2, 0)

    def test_zero_row(self):
        V = nullspace_basis(np.zeros((1, 2)))
        assert V.shape == (2, 2)
        assert np.allclose(V.T @ V, np.eye(2), atol=1e-14)

    def test_quality_and_dimension_count(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            r = int(rng.integers(0, min(m, n) + 1))
            A = (
                rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
                if r
                else np.zeros((m, n))
            )
            got_rank = rank(A)
            V = nullspace_basis(A)
            assert got_rank + V.shape[1] == n
            if V.shape[1]:
                norm = np.abs(A @ V).max() if A.size else 0.0
                assert norm <= 1e-10 * (1.0 + np.abs(A).max(initial=0.0))
                assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-12


class TestSolve:
    def test_identity(self):
        assert np.array_equal(solve_linear(np.eye(2), [3.0, 4.0]), [3.0, 4.0])

    def test_multiplier_recovery_columns(self):
        # unit-gradient columns against the objective gradient at the origin
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = solve_linear(A, [-2.0, -2.0])
        assert np.allclose(y, [-2.0, -2.0], atol=1e-14)
        assert np.allclose(A @ y, [-2.0, -2.0], atol=1e-14)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularSystemError):
            solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), [1.0, 1.0])

    def test_overdetermined_least_squares(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0, 2.0])
        x = solve_linear(A, b)
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)


class TestInertia:
    def test_positive_diagonal(self):
        assert inertia(np.diag([2.0, 2.0])) == Inertia(0, 0, 2)

    def test_mixed_diagonal(self):
        assert inertia(np.diag([-1.0, 3.0])) == Inertia(1, 0, 1)

    def test_zero_matrix(self):
        assert inertia(np.zeros((1, 1))) == Inertia(0, 1, 0)

    def test_empty(self):
        assert inertia(np.zeros((0, 0))) == Inertia(0, 0, 0)

    def test_dead_zone_scales_with_spectrum(self):
        S = np.diag([1e9, 1e-3])
        # 1e-3 is within 1e-8 * 1e9 = 10 of zero, so it counts as zero
        assert inertia(S) == Inertia(0, 1, 1)


class TestDetSign:
    def test_examples(self):
        assert det_sign(np.diag([2.0, 2.0])) == 1
        assert det_sign(np.diag([-1.0, 3.0])) == -1
        assert det_sign(np.zeros((0, 0))) == 1
        assert det_sign(np.zeros((2, 2))) == 0

    def test_sylvester_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            w = rng.uniform(0.1, 3.0, size=d) * rng.choice([-1.0, 1.0], size=d)
            Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            S = Q @ np.diag(w) @ Q.T
            S = 0.5 * (S + S.T)
            ine = inertia(S)
            assert ine.n_zero == 0
            assert det_sign(S) == (-1) ** ine.n_neg
            assert det_sign(S) == int(np.sign(np.prod(w)))

    def test_congruence_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            w = rng.uniform(0.2, 3.0, size=d) * rng.choice([-1.0, 1.0], size=d)
            Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            S = Q @ np.diag(w) @ Q.T
            S = 0.5 * (S + S.T)
            B = rng.normal(size=(d, d))
            while abs(np.linalg.det(B)) < 0.1:
                B = rng.normal(size=(d, d))
            M = B.T @ S @ B
            M = 0.5 * (M + M.T)
            assert inertia(M) == inertia(S)
            assert det_sign(M) == det_sign(S)
