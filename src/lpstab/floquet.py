"""Transition-matrix route: integrate the system and compare.

Everything in this module is deliberately independent of the drift-integral
certificates in periodic.py.  The state transition matrix is produced by a
fixed-step fourth-order Runge-Kutta integrator with step doubling, the
monodromy spectrum by the in-house QR solver, and the verify_* functions
confront the two routes: characteristic-exponent strip membership, the
exponential sandwich on |transition| over time, and the decay envelope
promised by a stability verdict.  Agreement here is evidence; disagreement
beyond the stated allowances is a bug in one of the routes and raises no
exception, it just comes back as a failed check or a positive violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, periodic
from .config import TOL
from .errors import BlowupError, ConvergenceError, NumericError
from .linalg import NormKind
from .periodic import SystemDef


@dataclass(frozen=True)
class TransitionMatrix:
    """State transition matrix Phi(t_end, t_start) with integration metadata."""

    value: np.ndarray
    t_start: float
    t_end: float
    steps: int
    error_estimate: float


def _rk4_matrix(sys: SystemDef, a: float, b: float, steps: int) -> np.ndarray:
    n = sys.n
    Phi = np.eye(n)
    h = (b - a) / steps
    mat = sys.matrix
    cap = TOL.overflow
    t = a
    for k in range(steps):
        A1 = mat(t)
        A2 = mat(t + 0.5 * h)  # shared by the two middle stages
        A4 = mat(t + h)
        K1 = A1 @ Phi
        K2 = A2 @ (Phi + (0.5 * h) * K1)
        K3 = A2 @ (Phi + (0.5 * h) * K2)
        K4 = A4 @ (Phi + h * K3)
        Phi = Phi + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        t = a + (k + 1) * h
        if not np.isfinite(Phi).all() or float(np.abs(Phi).max()) > cap:
            raise BlowupError(f"transition matrix exceeded {cap:.1e} at t={t:.6g}", t_reached=t)
    return Phi


def integrate_transition(sys: SystemDef, t_from: float, t_to: float,
                         tol: float | None = None) -> TransitionMatrix:
    """Phi(t_to, t_from) by RK4 with step doubling.

    The step count doubles until two consecutive answers agree to tol
    relative to the result's magnitude; the returned error_estimate is that
    difference divided by 15, the usual fourth-order extrapolation factor.
    Backward spans integrate with a negative step.  A positive determinant
    is required of the result (the exact transition matrix always has one).
    """
    if tol is None:
        tol = TOL.ode_tol
    n = sys.n
    if t_to == t_from:
        eye = np.eye(n)
        eye.flags.writeable = False
        return TransitionMatrix(eye, t_from, t_to, 0, 0.0)
    span = abs(t_to - t_from)
    steps = max(8, min(TOL.ode_start_steps, int(math.ceil(TOL.ode_start_steps * span / sys.period))))
    prev = _rk4_matrix(sys, t_from, t_to, steps)
    while steps * 2 <= TOL.ode_max_steps:
        steps *= 2
        cur = _rk4_matrix(sys, t_from, t_to, steps)
        diff = float(np.abs(cur - prev).max())
        if diff <= tol * (1.0 + float(np.abs(cur).max())):
            if linalg.determinant(cur) <= 0.0:
                raise NumericError(
                    f"integrated transition matrix has non-positive determinant over [{t_from:g}, {t_to:g}]")
            cur.flags.writeable = False
            return TransitionMatrix(cur, t_from, t_to, steps, diff / 15.0)
        prev = cur
    raise ConvergenceError(
        f"transition matrix over [{t_from:g}, {t_to:g}] did not settle within {TOL.ode_max_steps} steps")


@dataclass(frozen=True)
class FceEstimate:
    """Monodromy spectrum: multipliers rho and characteristic exponent real
    parts log|rho| / T, ascending."""

    multipliers: tuple[complex, ...]
    real_parts: tuple[float, ...]
    monodromy: TransitionMatrix


def monodromy_fce(sys: SystemDef, tol: float | None = None) -> FceEstimate:
    """Characteristic multipliers and exponent real parts over one period."""
    tm = integrate_transition(sys, sys.t0, sys.t0 + sys.period, tol)
    mult = linalg.gen_eigs(tm.value)
    parts = []
    for z in mult:
        m = abs(z)
        if m < TOL.multiplier_floor:
            raise NumericError(
                f"characteristic multiplier {z:.3e} is numerically zero; exponents are meaningless")
        parts.append(math.log(m) / sys.period)
    parts.sort()
    return FceEstimate(tuple(mult), tuple(parts), tm)


# ------------------------------------------------------------- cross-checks

@dataclass(frozen=True)
class StripCheck:
    passed: bool
    lower: float
    upper: float
    real_parts: tuple[float, ...]
    worst_violation: float
    allowance: float


def verify_strip(sys: SystemDef, kind: NormKind,
                 rates: periodic.RateSummary | None = None,
                 fce: FceEstimate | None = None) -> StripCheck:
    """Check that every characteristic exponent real part lies in the strip
    [-lambda_minus, lambda_plus] predicted by the drift integrals.

    worst_violation is the largest excursion outside the strip (negative
    when everything is strictly inside); the allowance combines the
    configured slack with both routes' error estimates.
    """
    if rates is None:
        rates = periodic.rate_summary(sys, kind)
    if fce is None:
        fce = monodromy_fce(sys)
    lower = -rates.lambda_minus
    upper = rates.lambda_plus
    min_mod = min(abs(z) for z in fce.multipliers)
    eps_mult = sys.n * fce.monodromy.error_estimate / max(min_mod, TOL.multiplier_floor)
    allowance = TOL.strip_slack + rates.quadrature_error / sys.period + math.log1p(eps_mult) / sys.period
    worst = -math.inf
    for rp in fce.real_parts:
        worst = max(worst, lower - rp, rp - upper)
    return StripCheck(worst <= allowance, lower, upper, fce.real_parts, worst, allowance)


def verify_sandwich(sys: SystemDef, kind: NormKind) -> float:
    """Largest relative violation of the two-sided transition bound on the
    pairs t0 <= s <= t <= t0 + 2T of a grid of 16 times:

        |Phi(t, s)| <= exp(pi_plus(t) - pi_plus(s))
        |Phi(s, t)| <= exp(pi_minus(t) - pi_minus(s))

    Transitions between pairs are accumulated from per-segment integrations
    (never by inverting an ill-conditioned product), so the comparison stays
    sharp even for strongly stable systems.  The return value is positive
    when some pair violates a bound; for a correct implementation it is pure
    numerical noise, orders of magnitude below 1e-6.
    """
    grid = 16
    ts = np.linspace(sys.t0, sys.t0 + 2.0 * sys.period, grid)
    fsegs = []
    bsegs = []
    for j in range(1, grid):
        a, b = float(ts[j - 1]), float(ts[j])
        fsegs.append(integrate_transition(sys, a, b).value)
        bsegs.append(integrate_transition(sys, b, a).value)
    pp = periodic.pi_integral(sys, kind, 1, ts)[0]
    pm = periodic.pi_integral(sys, kind, -1, ts)[0]
    worst = -math.inf
    for i in range(grid - 1):
        F = np.eye(sys.n)
        B = np.eye(sys.n)
        for j in range(i + 1, grid):
            F = fsegs[j - 1] @ F
            B = B @ bsegs[j - 1]
            worst = max(worst,
                        math.expm1(math.log(linalg.mat_norm(F, kind)) - (pp[j] - pp[i])),
                        math.expm1(math.log(linalg.mat_norm(B, kind)) - (pm[j] - pm[i])))
    return worst


@dataclass(frozen=True)
class DecayCheck:
    passed: bool
    worst_margin: float
    allowance: float
    pairs: int
    state_checks: int


def verify_decay(sys: SystemDef, verdict: periodic.Verdict, grid: int = 16) -> DecayCheck:
    """Spot-check the decay envelope promised by a stable verdict.

    For every ordered grid pair (s, t) with t0 <= s <= t <= t0 + 3T the
    envelope |Phi(t, s)| <= K exp(-alpha (t - s)) is tested via products of
    per-segment transitions.  On top of that, the two-sided solution
    envelope

        |x0| exp(-lambda_minus (t - t0) - delta_upper_minus)
          <= |x(t)| <= |x0| exp(lambda_plus (t - t0) + delta_upper_plus)

    is checked at the grid times for eight random initial states drawn from
    a fixed seed.  worst_margin is the smallest log-scale slack seen
    anywhere; the check passes when it stays above -allowance.
    """
    if verdict.classification not in ("UES", "US"):
        raise ValueError(f"decay envelope only exists for stable verdicts, got {verdict.classification!r}")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    kind = verdict.kind
    rates = verdict.rates
    log_k = math.log(verdict.K)
    alpha = verdict.alpha_tilde
    t0 = sys.t0
    ts = np.linspace(t0, t0 + 3.0 * sys.period, grid)
    segs = []
    rel = 0.0
    for j in range(1, grid):
        tm = integrate_transition(sys, float(ts[j - 1]), float(ts[j]))
        segs.append(tm.value)
        rel += tm.error_estimate / (1.0 + float(np.abs(tm.value).max()))
    worst = math.inf
    pairs = 0
    from_start = [np.eye(sys.n)]
    for i in range(grid - 1):
        P = np.eye(sys.n)
        for j in range(i + 1, grid):
            P = segs[j - 1] @ P
            if i == 0:
                from_start.append(P)
            worst = min(worst, log_k - alpha * float(ts[j] - ts[i])
                        - math.log(linalg.mat_norm(P, kind)))
            pairs += 1
    rng = np.random.default_rng(20260814)
    state_checks = 0
    for _ in range(8):
        x0 = rng.standard_normal(sys.n)
        nx0 = linalg.vec_norm(x0, kind)
        if nx0 < 1e-6:
            continue
        for j in range(1, grid):
            dt = float(ts[j] - t0)
            log_x = math.log(linalg.vec_norm(from_start[j] @ x0, kind))
            up = math.log(nx0) + rates.lambda_plus * dt + rates.delta_upper_plus
            lo = math.log(nx0) - rates.lambda_minus * dt - rates.delta_upper_minus
            worst = min(worst, up - log_x, log_x - lo)
            state_checks += 1
    allowance = TOL.decay_slack + math.log1p(rel) + rel
    return DecayCheck(worst >= -allowance, worst, allowance, pairs, state_checks)
