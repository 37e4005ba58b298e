"""Logarithmic norm properties and closed-form cross-checks.

Each named norm has a closed evaluation formula; the limit-quotient
estimate (||I + hA|| - 1)/h gives an independent consistency route.
"""

import numpy as np
import pytest

from lpstab import linalg
from lpstab.linalg import mat_norm, solve_lyapunov, cholesky
from lpstab.lognorm import (
    INF,
    NAMED,
    ONE,
    TWO,
    lyapunov_weighted,
    mu,
    mu_limit_estimate,
    mu_pair,
    weighted,
)

KINDS = [ONE, TWO, INF]


def test_closed_forms_small():
    A = np.array([[-2.0, 1.0], [3.0, -5.0]])
    # columns: -2+3=1? no: mu_1 = max_j (a_jj + sum_{i!=j} |a_ij|)
    assert mu(A, ONE) == pytest.approx(max(-2.0 + 3.0, -5.0 + 1.0))
    assert mu(A, INF) == pytest.approx(max(-2.0 + 1.0, -5.0 + 3.0))
    S = 0.5 * (A + A.T)
    assert mu(A, TWO) == pytest.approx(np.linalg.eigvalsh(S).max(), abs=1e-12)


def test_diagonal_matrix_all_norms_agree():
    D = np.diag([-3.0, -1.0, 2.0])
    for kind in KINDS:
        assert mu(D, kind) == pytest.approx(2.0, abs=1e-12)


def test_named_registry():
    assert set(NAMED) == {"one", "two", "inf"}
    assert NAMED["one"] is ONE and NAMED["two"] is TWO and NAMED["inf"] is INF


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.tag)
def test_mu_bounds_and_negation(kind):
    rng = np.random.default_rng(101)
    for _ in range(500):
        n = rng.integers(1, 7)
        A = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
        m = mu(A, kind)
        nrm = mat_norm(A, kind)
        assert -nrm - 1e-10 <= m <= nrm + 1e-10
        # mu is subadditive, so -mu(-A) <= mu(A)
        assert -mu(-A, kind) <= m + 1e-10


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.tag)
def test_shift_identity(kind):
    rng = np.random.default_rng(102)
    for _ in range(100):
        n = rng.integers(1, 7)
        A = rng.standard_normal((n, n))
        c = float(rng.standard_normal() * 5.0)
        assert mu(A + c * np.eye(n), kind) == pytest.approx(mu(A, kind) + c, abs=1e-11)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.tag)
def test_subadditive_and_lipschitz(kind):
    rng = np.random.default_rng(103)
    for _ in range(200):
        n = rng.integers(1, 7)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        assert mu(A + B, kind) <= mu(A, kind) + mu(B, kind) + 1e-10
        assert abs(mu(A, kind) - mu(B, kind)) <= mat_norm(A - B, kind) + 1e-10


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.tag)
def test_limit_quotient_agrees(kind):
    rng = np.random.default_rng(104)
    for _ in range(40):
        n = rng.integers(1, 6)
        A = rng.standard_normal((n, n))
        nrm = mat_norm(A, kind)
        for h in (1e-4, 1e-5, 1e-6):
            est = mu_limit_estimate(A, kind, h=h)
            # first-order quotient: error is O(h ||A||^2)
            assert abs(est - mu(A, kind)) <= 10.0 * h * max(1.0, nrm) ** 2 + 1e-9


def test_weighted_norm_reduces_to_two():
    rng = np.random.default_rng(105)
    for _ in range(20):
        n = rng.integers(1, 6)
        A = rng.standard_normal((n, n))
        assert mu(A, weighted(np.eye(n))) == pytest.approx(mu(A, TWO), abs=1e-12)


def test_mu_stack_matches_per_matrix():
    rng = np.random.default_rng(107)
    for n in (1, 2, 3, 5, 9):
        stack = rng.standard_normal((4, 3, n, n)) * rng.uniform(0.1, 10.0)
        P = rng.standard_normal((n, n)) + n * np.eye(n)
        for kind in (ONE, TWO, INF, weighted(P)):
            got = mu(stack, kind)
            assert got.shape == (4, 3)
            ref = np.array([[mu(M, kind) for M in row] for row in stack])
            assert got.tobytes() == ref.tobytes()


def test_mu_pair_equals_mu_of_both_signs():
    # the two and weighted norms read mu[-M] as the negated bottom eigenvalue of the symmetric
    # part whose top one is mu[M]: this pins that eigvalsh(-S)[-1] == -eigvalsh(S)[0] exactly
    rng = np.random.default_rng(108)
    for n in range(1, 65):
        stack = rng.standard_normal((6, n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (6, 1, 1))
        P = np.eye(n) + np.triu(rng.standard_normal((n, n)), 1) / n
        for kind in (ONE, TWO, INF, weighted(P)):
            got = mu_pair(stack, kind)
            assert got.shape == (6, 2)
            assert got[:, 0].tobytes() == mu(stack, kind).tobytes(), (n, kind.tag)
            assert got[:, 1].tobytes() == mu(-stack, kind).tobytes(), (n, kind.tag)
            assert mu_pair(stack[0], kind).tobytes() == got[0].tobytes()


def _ref_mu_pair(A, kind):
    # mu_pair on the whole stack at once, as before it went by blocks of matrices
    if kind.tag in ("one", "inf"):
        d = np.diagonal(A, axis1=-2, axis2=-1)
        off = np.abs(A).sum(axis=-2 if kind.tag == "one" else -1) - np.abs(d)
        return np.stack((d + off, -d + off), axis=-1).max(axis=-2)
    if kind.tag == "weighted":
        A = linalg._similar(kind.transform, A)
    w = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))
    return np.stack((w[..., -1], -w[..., 0]), axis=-1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64])
def test_mu_pair_by_blocks_matches_whole_stack(n):
    # stacks that end short of, on and past a block's end, and stacks with more leading axes
    rng = np.random.default_rng(n)
    m = max(1, 2 ** 16 // n ** 2)
    P = np.eye(n) + np.triu(rng.standard_normal((n, n)), 1) / n
    for count in sorted({0, 1, m - 1, m, m + 1, 2 * m + 3}):
        stack = rng.standard_normal((count, n, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (count, 1, 1))
        for kind in (ONE, TWO, INF, weighted(P)):
            for A in (stack, stack[:count // 2 * 2].reshape(2, -1, n, n)):
                assert mu_pair(A, kind).tobytes() == _ref_mu_pair(A, kind).tobytes(), (count, kind.tag)


def test_mu_weighted_matches_kind_route():
    rng = np.random.default_rng(106)
    for _ in range(30):
        n = rng.integers(2, 6)
        A = rng.standard_normal((n, n))
        P = rng.standard_normal((n, n)) + n * np.eye(n)
        # the kind route solves with P^T; here the inverse is formed explicitly
        assert mu(A, weighted(P)) == pytest.approx(mu(P @ A @ np.linalg.inv(P), TWO), abs=1e-10)


def _random_hurwitz(rng, n):
    A = rng.standard_normal((n, n))
    shift = max(z.real for z in np.linalg.eigvals(A))
    return A - (shift + 0.5 + 0.1 * abs(shift)) * np.eye(n)


def test_lyapunov_weight_certifies_hurwitz():
    # with H solving A^T H + H A = -2 I and P = chol(H)^T, the weighted
    # log norm equals -1/eigmax(H); both routes must agree
    rng = np.random.default_rng(107)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = _random_hurwitz(rng, n)
        kind = lyapunov_weighted(A)
        H = solve_lyapunov(A)
        assert np.abs(kind.transform - cholesky(H).T).max() <= 1e-12
        target = -1.0 / np.linalg.eigvalsh(H)[-1]
        got = mu(A, kind)
        assert got == pytest.approx(target, abs=1e-6)
        assert got < 0.0


def test_lyapunov_weight_rejects_unstable():
    with pytest.raises(Exception):
        lyapunov_weighted(np.array([[0.1, 0.0], [0.0, -1.0]]))


def test_mu_two_of_skew_is_zero():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert mu(A, TWO) == pytest.approx(0.0, abs=1e-14)
    assert mu(-A, TWO) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("h", [0.0, -1e-7])
def test_limit_estimate_needs_a_positive_step(h):
    with pytest.raises(ValueError, match="h must be positive"):
        mu_limit_estimate(np.eye(2), ONE, h)
