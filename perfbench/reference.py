"""Independent reference values for the benchmark's output checks.

Nothing here imports lpstab.  Catalog systems are re-derived from their
closed forms, dense systems from the coefficients the generator wrote to
the system file, and ODE references come from scipy's DOP853 integrator,
so a wrong answer from lpstab cannot also be the reference it is checked
against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

# -------------------------------------------------------------- A(t) models


def example1_matrix(beta: float):
    """rotating_frame(beta): [[-1 + b c^2, 1 - b s c], [-1 - b s c, -1 + b s^2]]."""
    def A(t):
        s, c = math.sin(t), math.cos(t)
        return np.array([[-1.0 + beta * c * c, 1.0 - beta * s * c],
                         [-1.0 - beta * s * c, -1.0 + beta * s * s]])
    return A


def example1_transition(beta: float, t: float, s: float) -> np.ndarray:
    """Exact Phi(t, s) of rotating_frame(beta)."""
    a = beta - 1.0
    fwd = np.array([[math.exp(a * t) * math.cos(t), math.exp(-t) * math.sin(t)],
                    [-math.exp(a * t) * math.sin(t), math.exp(-t) * math.cos(t)]])
    back = np.array([[math.exp(-a * s) * math.cos(s), -math.exp(-a * s) * math.sin(s)],
                     [math.exp(s) * math.sin(s), math.exp(s) * math.cos(s)]])
    return fwd @ back


def example2_matrix(t: float) -> np.ndarray:
    s, c = math.sin(12.0 * t), math.cos(12.0 * t)
    return np.array([[-5.5 + 7.5 * s, 7.5 * c], [7.5 * c, -20.5 - 7.5 * s]])


#: one-norm averages of mu[A] and mu[-A]: column 1 resp. 2 always dominates
EXAMPLE2_LAMBDA_ONE = (15.0 / math.pi - 5.5, 20.5 + 15.0 / math.pi)
#: two-norm: eigenvalues of A are -13 +/- 7.5 sqrt(2 + 2 sin 12t)
EXAMPLE2_LAMBDA_TWO = (30.0 / math.pi - 13.0, 30.0 / math.pi + 13.0)
EXAMPLE2_TRACE = -26.0


def example2_pi_one(t: float) -> tuple[float, float]:
    """Exact running integrals of mu_one[A] and mu_one[-A] over [0, t]."""
    def abs_cos_integral(u):  # integral of |cos v| over [0, u]
        k = math.floor(u / math.pi)
        r = u - k * math.pi
        return 2.0 * k + (math.sin(r) if r <= 0.5 * math.pi else 2.0 - math.sin(r))
    sin_part = 7.5 * (1.0 - math.cos(12.0 * t)) / 12.0
    abs_part = 7.5 * abs_cos_integral(12.0 * t) / 12.0
    return -5.5 * t + sin_part + abs_part, 20.5 * t + sin_part + abs_part


def trig_matrix(A0: np.ndarray, A1: np.ndarray, A2: np.ndarray):
    """A(t) = A0 + A1 sin(2t) + A2 cos(2t)."""
    def A(t):
        return A0 + A1 * math.sin(2.0 * t) + A2 * math.cos(2.0 * t)
    return A


# ------------------------------------------------------------ ODE references

_RTOL = 1e-11
_ATOL = 1e-13


def transition(A, t0: float, t1: float) -> np.ndarray:
    """Phi(t1, t0) of x' = A(t) x by DOP853."""
    n = A(t0).shape[0]

    def rhs(t, y):
        return (A(t) @ y.reshape(n, n)).ravel()

    sol = solve_ivp(rhs, (t0, t1), np.eye(n).ravel(), method="DOP853",
                    rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference transition failed: {sol.message}")
    return sol.y[:, -1].reshape(n, n)


def forced_state(A, d, x0: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """x(t1) of x' = A(t) x + d(t), x(t0) = x0, by DOP853."""
    sol = solve_ivp(lambda t, x: A(t) @ x + d(t), (t0, t1), np.asarray(x0, dtype=float),
                    method="DOP853", rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference forced solution failed: {sol.message}")
    return sol.y[:, -1]


def exponent_real_parts(monodromy: np.ndarray, period: float) -> list[float]:
    """log|rho| / T for the multipliers rho of a monodromy matrix, ascending."""
    return sorted(math.log(abs(z)) / period for z in np.linalg.eigvals(monodromy))


# ---------------------------------------------------- drift-rate quadrature


def mu_grid(As: np.ndarray, norm: str) -> np.ndarray:
    """Logarithmic norm of each matrix in an (N, n, n) stack."""
    diag = np.diagonal(As, axis1=1, axis2=2)
    if norm == "one":
        return (diag + np.abs(As).sum(axis=1) - np.abs(diag)).max(axis=1)
    if norm == "inf":
        return (diag + np.abs(As).sum(axis=2) - np.abs(diag)).max(axis=1)
    if norm == "two":
        return np.linalg.eigvalsh(0.5 * (As + np.swapaxes(As, 1, 2)))[:, -1]
    raise ValueError(f"no reference mu for norm {norm!r}")


def trig_rates(A0, A1, A2, norm: str, panels: int = 1 << 15) -> tuple[float, float]:
    """Period averages of mu[A] and mu[-A] for A0 + A1 sin 2t + A2 cos 2t
    (period pi) by composite Simpson on a uniform grid, in chunks to bound
    memory."""
    ts = np.linspace(0.0, math.pi, 2 * panels + 1)
    w = np.ones(ts.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (ts[1] - ts[0]) / 3.0 / math.pi
    plus = minus = 0.0
    for lo in range(0, ts.size, 4096):
        t = ts[lo:lo + 4096, None, None]
        As = A0[None] + np.sin(2.0 * t) * A1[None] + np.cos(2.0 * t) * A2[None]
        plus += float(w[lo:lo + 4096] @ mu_grid(As, norm))
        minus += float(w[lo:lo + 4096] @ mu_grid(-As, norm))
    return plus, minus
