"""Dense kernels for small real matrices (n <= 64): checked wrappers over LAPACK via numpy.linalg."""

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import ConvergenceError, NotPositiveDefiniteError, NumericError, SingularMatrixError


@dataclass(frozen=True, eq=False)
class NormKind:
    """Vector norm "one", "two", "inf" or "weighted" (|Px|_2 for a nonsingular
    transform P).  Instances compare by identity, so they can key caches."""

    tag: str
    transform: np.ndarray | None = None

    def __repr__(self):
        if self.tag == "weighted":
            return f"NormKind(weighted, n={self.transform.shape[0]})"
        return f"NormKind({self.tag})"


def _as_square(M, name="matrix"):
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError(f"{name} must be square and non-empty, got shape {A.shape}")
    if A.shape[0] > TOL.max_dim:
        raise ValueError(f"{name} exceeds the dimension cap {TOL.max_dim}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    return A


def _as_vector(v, name="vector"):
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")
    return x


def _as_symmetric(M, name="matrix"):
    A = _as_square(M, name)
    if float(np.abs(A - A.T).max()) > TOL.sym_tol * (1.0 + float(np.abs(A).max())):
        raise ValueError(f"{name} is not symmetric within {TOL.sym_tol:g}")
    return 0.5 * (A + A.T)


def _two_norm(x) -> float:
    # scaled so that components near the overflow cap stay finite
    top = float(np.abs(x).max())
    if top == 0.0 or not math.isfinite(top):
        return top
    y = x / top
    return top * math.sqrt(float(y @ y))


def vec_norm(v, kind: NormKind) -> float:
    x = _as_vector(v)
    if kind.tag == "one":
        return float(np.abs(x).sum())
    if kind.tag == "inf":
        return float(np.abs(x).max())
    if kind.tag not in ("two", "weighted"):
        raise ValueError(f"unknown norm tag {kind.tag!r}")
    return _two_norm(kind.transform @ x if kind.tag == "weighted" else x)


def mat_norm(M, kind: NormKind) -> float:
    """Induced operator norm of M for the given vector norm."""
    A = _as_square(M)
    if kind.tag in ("one", "inf"):
        return float(np.abs(A).sum(axis=0 if kind.tag == "one" else 1).max())
    if kind.tag not in ("two", "weighted"):
        raise ValueError(f"unknown norm tag {kind.tag!r}")
    B = similarity_transform(kind.transform, A) if kind.tag == "weighted" else A
    return math.sqrt(max(float(sym_eigs(B.T @ B)[-1]), 0.0))


def similarity_transform(P, A):
    """P A P^{-1} without forming the inverse explicitly."""
    P = check_nonsingular(P, "P")
    return np.linalg.solve(P.T, (P @ _as_square(A, "A")).T).T


def _lapack(error, routine, *args):
    try:
        return routine(*args)
    except np.linalg.LinAlgError as exc:
        raise error(f"{routine.__name__} failed: {exc}") from exc


def sym_eigs(S, vectors: bool = False):
    """Ascending eigenvalues w of symmetric S, and with vectors=True V with S V = V diag(w)."""
    routine = np.linalg.eigh if vectors else np.linalg.eigvalsh
    return _lapack(ConvergenceError, routine, _as_symmetric(S, "S"))


def gen_eigs(M) -> list[complex]:
    """All eigenvalues, sorted by (real, imag); complex ones in exact conjugate pairs."""
    z = map(complex, _lapack(ConvergenceError, np.linalg.eigvals, _as_square(M)))
    return sorted(z, key=lambda v: (v.real, v.imag))


def check_nonsingular(M, name="matrix"):
    """Validated M; singular when sigma_min <= TOL.singular_floor * sigma_max."""
    A = _as_square(M, name)
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= TOL.singular_floor * s[0]:
        raise SingularMatrixError(f"{name} is singular: singular values {s[0]:.6e} .. {s[-1]:.6e}")
    return A


def cholesky(S):
    """Lower-triangular L with L L^T = S; S must be positive definite."""
    return _lapack(NotPositiveDefiniteError, np.linalg.cholesky, _as_symmetric(S, "S"))


def linear_solve(M, b):
    return np.linalg.solve(check_nonsingular(M), _as_vector(b, "b"))


def inverse(M):
    return np.linalg.inv(check_nonsingular(M))


def determinant(M) -> float:
    return float(np.linalg.det(_as_square(M)))


def solve_lyapunov(A):
    """H with A^T H + H A = -2 I, from the Kronecker system (I (x) A^T + A^T (x) I)
    vec(H) = vec(-2 I); residual-checked, and positive definite iff A is Hurwitz."""
    A = _as_square(A, "A")
    eye = np.eye(A.shape[0])
    try:
        # vec(-2 I) and the symmetrized H are the same in either storage order
        H = linear_solve(np.kron(eye, A.T) + np.kron(A.T, eye), -2.0 * eye.ravel()).reshape(eye.shape)
        H = 0.5 * (H + H.T)
        resid = float(np.linalg.norm(A.T @ H + H @ A + 2.0 * eye, 2))
        if resid > TOL.lyapunov_residual * (1.0 + float(np.abs(H).max())):
            raise NumericError(f"Lyapunov residual {resid:.3e} above bound")
        cholesky(H)
    except (SingularMatrixError, NotPositiveDefiniteError) as exc:
        raise NotPositiveDefiniteError(f"Lyapunov solve failed, matrix is not Hurwitz: {exc}") from exc
    return H
