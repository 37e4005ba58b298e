"""Dense kernel tests.

The kernels are wrappers over numpy.linalg, so the comparisons against
numpy.linalg below guard the wrapping (symmetrization, ordering, error
mapping) rather than the arithmetic.  Independence rests on the residual
and property checks: S V = V diag w, det = prod of the eigenvalues,
L L^T = S, and the Lyapunov residual.  Random matrices are seeded so
failures reproduce.
"""

import tracemalloc

import numpy as np
import pytest

import lpstab.linalg as la
from lpstab.errors import NotPositiveDefiniteError, NumericError, SingularMatrixError
from lpstab.lognorm import INF, ONE, TWO, mu, weighted


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


def test_two_norm_of_stacked_vectors():
    # windowed_drift takes the norms of a whole stack of running integrals at once
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 8, 17):
        X = rng.standard_normal((5, 6, n)) * rng.uniform(1e-3, 1e3)
        X[0, 0] = 0.0
        X[1, 1, 0] = 1e300
        ref = np.array([[la.vec_norm(x, TWO) for x in row] for row in X])
        assert la._two_norm(X).tobytes() == ref.tobytes()


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


def test_sym_eigs_stack():
    rng = np.random.default_rng(30)
    for n in (1, 2, 4, 7):
        B = rng.standard_normal((3, 4, n, n))
        S = B + np.swapaxes(B, -1, -2)
        w = la.sym_eigs(S)
        assert w.shape == (3, 4, n)
        assert w.tobytes() == np.array([[la.sym_eigs(M) for M in row] for row in S]).tobytes()
    S[2, 1, 0, -1] += 1.0   # one asymmetric matrix spoils the stack
    with pytest.raises(ValueError, match="symmetric"):
        la.sym_eigs(S)


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
        det = np.linalg.det(A)
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


def test_check_nonsingular_rejects_singular():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert la.check_nonsingular(A) is not None
    with pytest.raises(SingularMatrixError):
        la.check_nonsingular(np.array([[1.0, 2.0], [2.0, 4.0]]))


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


def _lyapunov_residual_ok(A, H):
    resid = A.T @ H + H @ A + 2.0 * np.eye(A.shape[0])
    return np.abs(resid).max() <= 1e-8 * (1.0 + np.abs(H).max())


@pytest.mark.parametrize("A", [[[-1e-14, 0.0], [0.0, -1.0]], [[-1.0, 1e6], [0.0, -1.0]]],
                         ids=["diag-1e-14", "jordan-1e6"])
def test_solve_lyapunov_accepts_ill_conditioned_hurwitz(A):
    # an eigenvalue 1e-14 left of the imaginary axis, and a strongly non-normal A
    A = np.array(A)
    H = la.solve_lyapunov(A)
    assert _lyapunov_residual_ok(A, H)
    assert np.linalg.eigvalsh(H).min() > 0.0


def test_solve_lyapunov_rejects_non_hurwitz():
    v = np.full(8, 8.0 ** -0.5)
    oscillator = np.diag([0.0, 0.0, -8.1, -5.2])
    oscillator[0, 1], oscillator[1, 0] = 8.05, -8.05
    for A in ([[1.0, 0.0], [0.0, -1.0]],
              [[0.5, 1.0], [0.0, -1.0]],    # Q still tends to a positive definite matrix
              [[0.0, 1.0], [-1.0, 0.0]],    # eigenvalues on the imaginary axis: S turns singular
              [[0.0, 0.0], [0.0, -1.0]],    # singular from the start
              [[0.0, -0.019], [4.05, 0.0]],  # S stays on the axis, and Q overflows, every step
              oscillator,  # S never settles: it cycles with period 2, its trace below 1 - n every other step
              -np.eye(8) + 1.5 * np.outer(v, v)):  # sign(A) = -I + 2 v v^T, within 1/4 of -I entrywise
        with pytest.raises(NotPositiveDefiniteError):
            la.solve_lyapunov(np.array(A))


def test_solve_lyapunov_at_the_dimension_cap_is_small():
    rng = np.random.default_rng(64)
    A = _random_hurwitz(rng, 64)
    tracemalloc.start()
    try:
        H = la.solve_lyapunov(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _lyapunov_residual_ok(A, H)
    assert peak < 4 << 20  # a few 64 x 64 arrays


def test_input_validation():
    with pytest.raises(Exception):
        la.mat_norm(np.array([1.0, 2.0]), ONE)  # not square
    with pytest.raises(Exception):
        la.sym_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not symmetric
    with pytest.raises(Exception):
        la.mat_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]), ONE)
    # mat_norm, sym_eigs and lognorm.mu take stacks of square matrices only
    with pytest.raises(ValueError, match="square"):
        la.mat_norm(np.zeros((2, 2, 3)), ONE)
    with pytest.raises(ValueError, match="square"):
        la.gen_eigs(np.zeros((2, 2, 2)))
    # vec_norm takes (..., n) stacks with n >= 1
    with pytest.raises(ValueError, match="non-empty"):
        la.vec_norm(np.float64(1.0), ONE)
    with pytest.raises(ValueError, match="non-empty"):
        la.vec_norm(np.zeros((3, 0)), TWO)


def test_overflow_inside_is_a_numeric_error():
    # finite arguments whose Gram product or symmetric part overflows
    A = np.array([[1e308, 1e308], [1e308, -1e308]])
    with pytest.raises(NumericError, match="Gram product overflowed"):
        la.mat_norm(A, TWO)
    with pytest.raises(NumericError, match="symmetric part overflowed"):
        mu(A, TWO)
    # non-finite arguments stay input errors
    with pytest.raises(ValueError, match="non-finite"):
        la.mat_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]), TWO)
    with pytest.raises(ValueError, match="non-finite"):
        mu(np.array([[np.inf, 0.0], [0.0, 1.0]]), TWO)


def test_norm_kind_rejects_unknown_tag():
    # checked once on construction, so the norm routines need no fallback branch
    with pytest.raises(ValueError, match="unknown norm tag 'bogus'"):
        la.NormKind("bogus")


def test_norm_kind_checks_its_transform_once():
    # a transform belongs to the weighted norm alone, and is checked when the kind is built
    with pytest.raises(ValueError, match="the weighted norm needs a transform"):
        la.NormKind("weighted")
    with pytest.raises(ValueError, match="the two norm takes no transform"):
        la.NormKind("two", np.eye(2))
    with pytest.raises(SingularMatrixError, match="P is singular"):
        la.NormKind("weighted", np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        la.NormKind("weighted", np.array([[np.inf, 0.0], [0.0, 1.0]]))
    P = np.array([[2.0, 1.0], [0.0, 1.0]])
    kind = la.NormKind("weighted", P)
    assert kind.transform.tobytes() == P.tobytes()
    A = np.array([[-1.0, 3.0], [0.5, -2.0]])
    assert la.mat_norm(A, kind) == la.mat_norm(la.similarity_transform(P, A), TWO)


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_stacks_match_per_item_calls(n):
    # mat_norm and vec_norm over (4, 5) stacks against one call per item
    rng = np.random.default_rng(77 + n)
    S = rng.standard_normal((4, 5, n, n)) * rng.uniform(0.01, 100.0, (4, 5, 1, 1))
    flat = S.reshape(-1, n, n)
    P = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    for kind in (ONE, TWO, INF, weighted(P)):
        got = la.mat_norm(S, kind)
        assert got.shape == (4, 5)
        assert got.tobytes() == np.array([la.mat_norm(A, kind) for A in flat]).tobytes()
    # vec_norm over the (4, 5, n) stack of first columns, one entry near the overflow cap
    X = S[..., 0].copy()
    X[1, 2, 0] = 1e300
    for kind in (ONE, TWO, INF, weighted(P)):
        got = la.vec_norm(X, kind)
        assert got.shape == (4, 5)
        assert got.tobytes() == np.array([la.vec_norm(x, kind) for x in X.reshape(-1, n)]).tobytes()
    assert la.similarity_transform(P, S).tobytes() == np.array(
        [la.similarity_transform(P, A) for A in flat]).tobytes()
