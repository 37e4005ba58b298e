"""Dense kernels for small real matrices (n <= 64): checked wrappers over LAPACK via numpy.linalg."""

import numpy as np

from .config import TOL
from .errors import ConvergenceError, NotPositiveDefiniteError, NumericError, SingularMatrixError

_SIGN_STEPS, _SIGN_STOP = 100, 1e-12  # sign iteration: step cap; change of S, relative to max|S|, that ends it


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


class NormKind:
    """Vector norm "one", "two", "inf" or "weighted" (|Px|_2 for a nonsingular
    transform P).  Instances are immutable and compare by identity, so they
    can key caches.  A weighted transform is checked here, once."""

    __slots__ = ("tag", "transform")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, tag: str, transform: np.ndarray | None = None):
        if tag not in ("one", "two", "inf", "weighted"):
            raise ValueError(f"unknown norm tag {tag!r}")
        if (tag == "weighted") != (transform is not None):
            raise ValueError("the weighted norm needs a transform" if tag == "weighted"
                             else f"the {tag} norm takes no transform")
        if transform is not None:
            transform = check_nonsingular(transform, "P")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "transform", transform)

    def __reduce__(self):
        return NormKind, (self.tag, self.transform)

    def __repr__(self):
        if self.tag == "weighted":
            return f"NormKind(weighted, n={self.transform.shape[0]})"
        return f"NormKind({self.tag})"


def _as_squares(M, name="matrix"):
    # a square matrix or a stack of them, shape (..., n, n)
    A = np.asarray(M, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        raise ValueError(f"{name} must be square and non-empty, got shape {A.shape}")
    if A.shape[-1] > TOL.max_dim:
        raise ValueError(f"{name} exceeds the dimension cap {TOL.max_dim}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    return A


def _as_square(M, name="matrix"):
    A = _as_squares(M, name)
    if A.ndim != 2:
        raise ValueError(f"{name} must be square and non-empty, got shape {A.shape}")
    return A


def _as_vectors(v, name="vector"):
    x = np.asarray(v, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError(f"{name} must be non-empty along its last axis, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")
    return x


def _symmetrized(A, name):
    At = np.swapaxes(A, -1, -2)
    if (np.abs(A - At).max(axis=(-2, -1)) > TOL.sym_tol * (1.0 + np.abs(A).max(axis=(-2, -1)))).any():
        raise ValueError(f"{name} is not symmetric within {TOL.sym_tol:g}")
    return 0.5 * (A + At)


def _two_norm(x):
    # along the last axis, scaled so that components near the overflow cap stay finite
    top = np.abs(x).max(axis=-1)
    plain = (top == 0.0) | ~np.isfinite(top)
    y = x / np.where(plain, 1.0, top)[..., None]
    # a (1, n) @ (n, 1) product per vector is the same dot kernel as y @ y
    dot = np.matmul(y[..., None, :], y[..., :, None])[..., 0, 0]
    return np.where(plain, top, top * np.sqrt(dot))


def vec_norm(v, kind: NormKind):
    """Norm of the vector v for the given kind; for a (..., n) stack, the array
    of each vector's norm over the leading axes."""
    x = _as_vectors(v)
    if kind.tag == "one":
        r = np.abs(x).sum(axis=-1)
    elif kind.tag == "inf":
        r = np.abs(x).max(axis=-1)
    else:
        r = _two_norm((kind.transform @ x[..., None])[..., 0] if kind.tag == "weighted" else x)
    return float(r) if x.ndim == 1 else r


@np.errstate(over="ignore", invalid="ignore")  # an overflow gives inf, or raises NumericError
def mat_norm(M, kind: NormKind):
    """Induced operator norm of M for the given vector norm; for a (..., n, n)
    stack, the array of each matrix's norm over the leading axes."""
    A = _as_squares(M)
    if kind.tag in ("one", "inf"):
        v = np.abs(A).sum(axis=-2 if kind.tag == "one" else -1).max(axis=-1)
    else:
        B = _similar(kind.transform, A) if kind.tag == "weighted" else A
        w = _top_sym_eig(np.swapaxes(B, -1, -2) @ B, "Gram product")  # by syrk, exactly symmetric
        v = np.sqrt(np.where(0.0 > w, 0.0, w))  # Python's max(w, 0.0), which keeps a -0.0
    return float(v) if A.ndim == 2 else v


def similarity_transform(P, A):
    """P A P^{-1} without forming the inverse explicitly; A may be a (..., n, n) stack."""
    return _similar(check_nonsingular(P, "P"), _as_squares(A, "A"))


def _similar(P, A):
    # similarity_transform of arguments already checked, such as a NormKind's transform
    return np.swapaxes(np.linalg.solve(P.T, np.swapaxes(P @ A, -1, -2)), -1, -2)


def _lapack(error, routine, *args):
    try:
        return routine(*args)
    except np.linalg.LinAlgError as exc:
        raise error(f"{routine.__name__} failed: {exc}") from exc


def sym_eigs(S, vectors: bool = False):
    """Ascending eigenvalues w of symmetric S, and with vectors=True V with S V = V diag(w).
    S may be a (..., n, n) stack; w and V then carry its leading axes."""
    routine = np.linalg.eigh if vectors else np.linalg.eigvalsh
    return _lapack(ConvergenceError, routine, _symmetrized(_as_squares(S, "S"), "S"))


def _top_sym_eig(S, what):
    # top eigenvalue of each matrix of an exactly symmetric stack computed from finite arguments
    if not np.isfinite(S).all():
        raise NumericError(f"{what} overflowed to a non-finite value")
    return _lapack(ConvergenceError, np.linalg.eigvalsh, S)[..., -1]


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
    return _lapack(NotPositiveDefiniteError, np.linalg.cholesky, _symmetrized(_as_square(S, "S"), "S"))


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericError
def solve_lyapunov(A):
    """H with A^T H + H A = -2 I in O(n^3) by the scaled Newton sign iteration (Roberts 1980, Byers 1987):
    S = A settles at sign(A), of trace 2 k - n for k eigenvalues right of the imaginary axis, if none is on it."""
    A = _as_square(A, "A")
    n, S, Q = A.shape[0], A, 2.0 * np.eye(A.shape[0])
    finite = np.isfinite(A + A.T).all()  # A + A^T is the Lyapunov operator at H = I
    for _ in range(_SIGN_STEPS if finite else 0):
        c, Si = np.exp(-np.linalg.slogdet(S)[1] / n), _lapack(NotPositiveDefiniteError, np.linalg.inv, S)
        S, prev, Q = 0.5 * (c * S + Si / c), S, 0.5 * (c * Q + Si.T @ Q @ Si / c)
        finite, settled = np.isfinite(S).all(), np.abs(S - prev).max() <= _SIGN_STOP * np.abs(S).max()
        if settled or not finite:  # S alone decides: Q may overflow while S settles
            break
    if finite and not (settled and np.trace(S) < 1.0 - n):
        raise NotPositiveDefiniteError("matrix is not Hurwitz: the sign iteration does not tend to -I")
    H = 0.25 * (Q + Q.T)  # Q tends to 2 H
    R = A.T @ H + H @ A + 2.0 * np.eye(n)
    if not np.isfinite(R).all():  # as when A + A^T, S, Q or H is not finite
        raise NumericError("Lyapunov system overflowed to a non-finite value")
    if (resid := float(np.linalg.norm(R, 2))) > TOL.lyapunov_residual * (1.0 + float(np.abs(H).max())):
        raise NumericError(f"Lyapunov residual {resid:.3e} above bound")
    _lapack(NumericError, np.linalg.cholesky, H)  # A is Hurwitz, but H is not numerically positive definite
    return H
