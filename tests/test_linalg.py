"""Dense kernel tests.

The kernels are wrappers over numpy.linalg, so the comparisons against
numpy.linalg below guard the wrapping (symmetrization, ordering, error
mapping) rather than the arithmetic.  Independence rests on the residual
and property checks: S V = V diag w, det = prod of the eigenvalues,
L L^T = S, and the Lyapunov residual.  Random matrices are seeded so
failures reproduce.
"""

import numpy as np
import pytest

import lpstab.linalg as la
from lpstab.errors import NotPositiveDefiniteError, SingularMatrixError
from lpstab.lognorm import INF, ONE, TWO, weighted


def test_vec_norms():
    x = np.array([3.0, -4.0])
    assert la.vec_norm(x, ONE) == 7.0
    assert la.vec_norm(x, TWO) == 5.0
    assert la.vec_norm(x, INF) == 4.0
    P = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert la.vec_norm(x, weighted(P)) == pytest.approx(np.hypot(6.0, 4.0))


def test_vec_norm_near_overflow():
    # the two-norm is scaled by the largest entry, so squares never overflow
    x = np.array([3e300, -4e300])
    assert la.vec_norm(x, TWO) == pytest.approx(5e300, rel=1e-15)
    P = np.array([[0.5, 0.0], [0.0, 0.25]])
    assert la.vec_norm(x, weighted(P)) == pytest.approx(np.hypot(1.5, 1.0) * 1e300, rel=1e-15)
    assert np.isfinite(la.vec_norm(np.array([1e300, 1e300, 1e300]), TWO))


def test_vec_norm_axioms():
    rng = np.random.default_rng(1)
    for kind in (ONE, TWO, INF):
        for _ in range(50):
            n = rng.integers(1, 7)
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            c = float(rng.standard_normal())
            assert la.vec_norm(x, kind) >= 0.0
            assert la.vec_norm(np.zeros(n), kind) == 0.0
            assert la.vec_norm(c * x, kind) == pytest.approx(abs(c) * la.vec_norm(x, kind))
            assert la.vec_norm(x + y, kind) <= la.vec_norm(x, kind) + la.vec_norm(y, kind) + 1e-12


def test_mat_norm_against_numpy():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = rng.integers(1, 7)
        A = rng.standard_normal((n, n))
        assert la.mat_norm(A, ONE) == pytest.approx(np.linalg.norm(A, 1), rel=1e-12)
        assert la.mat_norm(A, INF) == pytest.approx(np.linalg.norm(A, np.inf), rel=1e-12)
        assert la.mat_norm(A, TWO) == pytest.approx(np.linalg.norm(A, 2), rel=1e-9)


def test_mat_norm_submultiplicative():
    rng = np.random.default_rng(3)
    for kind in (ONE, TWO, INF):
        for _ in range(200):
            n = rng.integers(1, 6)
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, n))
            assert la.mat_norm(A @ B, kind) <= (la.mat_norm(A, kind) * la.mat_norm(B, kind)
                                                * (1.0 + 1e-12) + 1e-12)
            # induced norm compatibility with the vector norm
            x = rng.standard_normal(n)
            assert la.vec_norm(A @ x, kind) <= (la.mat_norm(A, kind) * la.vec_norm(x, kind)
                                                * (1.0 + 1e-12) + 1e-12)


def test_sym_eigs_against_numpy():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = rng.integers(1, 9)
        M = rng.standard_normal((n, n))
        S = 0.5 * (M + M.T)
        w = la.sym_eigs(S)
        ref = np.linalg.eigvalsh(S)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.abs(w - ref).max() <= 1e-9 * (1.0 + np.abs(ref).max())
        # trace identity
        assert abs(w.sum() - np.trace(S)) <= 1e-10 * (1.0 + abs(np.trace(S)))


def test_sym_eigs_vectors_residual():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = rng.integers(2, 9)
        M = rng.standard_normal((n, n))
        S = 0.5 * (M + M.T)
        w, V = la.sym_eigs(S, vectors=True)
        resid = np.linalg.norm(S @ V - V @ np.diag(w), 2)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(S, 2))
        assert np.linalg.norm(V.T @ V - np.eye(n), 2) <= 1e-10


def test_gram_eigs_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = rng.integers(1, 7)
        A = rng.standard_normal((n, n))
        w = la.sym_eigs(A.T @ A)
        assert w.min() >= -1e-12 * max(1.0, w.max())


def test_gen_eigs_against_numpy():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = rng.integers(2, 9)
        A = rng.standard_normal((n, n))
        z = np.sort_complex(np.array(la.gen_eigs(A)))
        ref = np.sort_complex(np.linalg.eigvals(A))
        assert np.abs(z - ref).max() <= 1e-6 * (1.0 + np.abs(ref).max())


def test_gen_eigs_det_product():
    rng = np.random.default_rng(8)
    for n in range(2, 9):
        A = rng.standard_normal((n, n))
        z = la.gen_eigs(A)
        prod = complex(1.0)
        for v in z:
            prod *= v
        det = la.determinant(A)
        assert abs(prod.real - det) <= 1e-8 * (1.0 + abs(det))
        assert abs(prod.imag) <= 1e-8 * (1.0 + abs(det))


def test_gen_eigs_defective():
    # Jordan block: double eigenvalue, no eigenbasis
    z = la.gen_eigs(np.array([[2.0, 1.0], [0.0, 2.0]]))
    assert np.abs(np.array(z) - 2.0).max() <= 1e-6


def test_cholesky():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = rng.integers(1, 8)
        B = rng.standard_normal((n, n))
        H = B @ B.T + n * np.eye(n)
        L = la.cholesky(H)
        assert np.abs(np.triu(L, 1)).max() == 0.0
        assert np.abs(L @ L.T - H).max() <= 1e-12 * max(1.0, np.abs(H).max()) * 10
    with pytest.raises(NotPositiveDefiniteError):
        la.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_linear_solve_and_inverse():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = rng.integers(1, 9)
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = la.linear_solve(A, b)
        assert np.abs(A @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max() + np.abs(A @ x).max())
        Ainv = la.inverse(A)
        assert np.abs(A @ Ainv - np.eye(n)).max() <= 1e-8
    with pytest.raises(SingularMatrixError):
        la.linear_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))


def test_determinant():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = rng.integers(1, 8)
        A = rng.standard_normal((n, n))
        assert la.determinant(A) == pytest.approx(np.linalg.det(A), rel=1e-9, abs=1e-12)
    assert la.determinant(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0


def test_similarity_transform():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = rng.integers(1, 7)
        P = rng.standard_normal((n, n)) + n * np.eye(n)
        A = rng.standard_normal((n, n))
        B = la.similarity_transform(P, A)
        assert np.abs(B - P @ A @ np.linalg.inv(P)).max() <= 1e-8 * (1.0 + np.abs(A).max())


def _random_hurwitz(rng, n):
    A = rng.standard_normal((n, n))
    shift = max(z.real for z in np.linalg.eigvals(A))
    return A - (shift + 0.5 + 0.1 * abs(shift)) * np.eye(n)


def test_solve_lyapunov():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        A = _random_hurwitz(rng, n)
        H = la.solve_lyapunov(A)
        assert np.abs(H - H.T).max() == 0.0
        resid = A.T @ H + H @ A + 2.0 * np.eye(n)
        assert np.abs(resid).max() <= 1e-8 * (1.0 + np.abs(H).max())
        assert np.linalg.eigvalsh(H).min() > 0.0


def test_solve_lyapunov_rejects_non_hurwitz():
    with pytest.raises(NotPositiveDefiniteError):
        la.solve_lyapunov(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_input_validation():
    with pytest.raises(Exception):
        la.mat_norm(np.array([1.0, 2.0]), ONE)  # not square
    with pytest.raises(Exception):
        la.sym_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
    with pytest.raises(Exception):
        la.mat_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]), ONE)
