"""Logarithmic norms (matrix measures) of real square matrices.

mu[A] is the one-sided directional derivative of the induced operator norm
at the identity: lim_{h -> 0+} (|I + h A| - 1) / h.  Unlike a norm it can be
negative, and a negative value certifies exponential decay of |x(t)| for
x' = A x in the chosen vector norm.  Closed forms are used for the three
classical norms:

  one  : max over columns j of  a_jj + sum_{i != j} |a_ij|
  inf  : max over rows i of     a_ii + sum_{j != i} |a_ij|
  two  : largest eigenvalue of  (A + A^T) / 2

A weighted kind with transform P uses the norm |P x|_2 and reduces to the
two-norm of P A P^{-1}.  mu_limit_estimate evaluates the defining limit at a
small finite h and exists purely as a consistency check on the closed forms.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import NormKind, _as_square, _as_squares

ONE = NormKind("one")
TWO = NormKind("two")
INF = NormKind("inf")

#: the classical kinds by CLI name
NAMED = {"one": ONE, "two": TWO, "inf": INF}


def weighted(P) -> NormKind:
    """Norm kind |x| = |P x|_2 for a nonsingular transform P."""
    return NormKind("weighted", P)


def lyapunov_weighted(A) -> NormKind:
    """Weight built from a Hurwitz matrix A.

    Solves A^T H + H A = -2 I and returns the kind with transform L^T where
    H = L L^T, so that |x|^2 = x^T H x.  In this norm mu[A] <= -1 / |H|_2,
    which is strictly negative.  Raises NotPositiveDefiniteError when A is
    not Hurwitz, and SingularMatrixError when L^T is too ill-conditioned to
    serve as a transform.
    """
    return weighted(linalg.cholesky(linalg.solve_lyapunov(A)).T)


@np.errstate(over="ignore", invalid="ignore")  # an overflow gives inf, or raises NumericError
def mu_pair(M, kind: NormKind) -> np.ndarray:
    """mu[M] and mu[-M] along a last axis of length 2, for one matrix or a
    (..., n, n) stack, from one pass over M: the one and inf norms share the
    off-diagonal sums, and the two and weighted norms read the top and the
    negated bottom eigenvalue of one symmetric part."""
    A = _as_squares(M)
    if kind.tag in ("one", "inf"):
        d = np.diagonal(A, axis1=-2, axis2=-1)
        off = _by_blocks(A, lambda B: np.abs(B).sum(axis=-2 if kind.tag == "one" else -1)) - np.abs(d)
        return np.stack((d + off, -d + off), axis=-1).max(axis=-2)
    if kind.tag == "weighted":
        A = linalg._similar(kind.transform, A)
    # exactly symmetric, as addition commutes, so it needs no second symmetrization
    w = _by_blocks(A, lambda B: linalg._sym_eigvals(0.5 * (B + np.swapaxes(B, -1, -2)), "symmetric part"))
    return np.stack((w[..., -1], -w[..., 0]), axis=-1)


def _by_blocks(A, f):
    # f of the (..., n, n) stack A, shape (..., n), from blocks of matrices: a temporary as
    # large as a whole stack would double the peak memory
    m = max(1, 2 ** 16 // A.shape[-1] ** 2)
    if A.size <= m * A.shape[-1] ** 2:
        return f(A)
    B = A.reshape(-1, *A.shape[-2:])
    return np.concatenate([f(B[i:i + m]) for i in range(0, len(B), m)]).reshape(A.shape[:-1])


def mu(M, kind: NormKind):
    """Logarithmic norm of M for the given vector norm kind; for a (..., n, n)
    stack, the array of each matrix's mu over the leading axes."""
    v = mu_pair(M, kind)[..., 0]
    return float(v) if v.ndim == 0 else v


def mu_limit_estimate(M, kind: NormKind, h: float = 1e-7) -> float:
    """Finite-h evaluation of (|I + h M| - 1) / h.

    Agrees with mu() to O(h) and is kept as an independent cross-check; do
    not use it on the certification path.
    """
    A = _as_square(M)
    if h <= 0.0:
        raise ValueError("h must be positive")
    eye = np.eye(A.shape[0])
    return (linalg.mat_norm(eye + h * A, kind) - 1.0) / h
