"""Periodic linear systems and their one-period contraction certificates.

A system x' = A(t) x with T-periodic entries is described symbolically so
A(t) can be evaluated exactly at any time.  For a chosen vector norm the
running integrals

    pi_plus(t)  = integral of mu[ A(s)] over [t0, t]
    pi_minus(t) = integral of mu[-A(s)] over [t0, t]

bound the state transition factor from above by exp(pi_plus) and from below
by exp(-pi_minus).  Both are sandwiched between straight lines with the
common slope lambda = pi(T)/T and offsets delta_lower/delta_upper, the
extreme deviations over one period.  Everything downstream (stability
verdicts, Floquet-exponent strips, decay envelopes) is read off these five
numbers per direction; rate_summary computes them and classify turns them
into a certificate:

    pi_plus(T) < 0  -> uniformly exponentially stable, with explicit
                       overshoot K and decay rate alpha
    pi_plus(T) = 0  -> uniformly stable
    pi_minus(T) < 0 -> unstable (the lower bound grows)
    otherwise       -> inconclusive in this norm

Quadrature is adaptive Simpson; the integrands are continuous but can have
kinks where off-diagonal entries or symmetric-part eigenvalues cross, so
error estimates are carried through and reported.

Evaluation takes arrays of times throughout: SystemDef.matrix gives matrix
stacks, lognorm.mu maps stacks to arrays, integrate refines all of its
intervals level by level with one integrand call per level, and
rate_summary polishes its extrema by bisection on mu - lambda, one mu call
per round, and one pi_integral call per direction at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import linalg, lognorm
from .config import TOL
from .errors import ConvergenceError, InputError, NumericError
from .expr import Expression, ParseError, contains_time, evaluate, parse, to_string
from .linalg import NormKind


@dataclass(frozen=True)
class SystemDef:
    """A square matrix of time expressions with a declared period.

    entries holds parsed expression trees, row-major; period is the declared
    T > 0 and t0 the initial time.  Instances are immutable and hashable, so
    derived quantities can be cached on the system itself.  Use
    system_from_strings for the common construction from text.
    """

    entries: tuple[tuple[Expression, ...], ...]
    period: float
    t0: float = 0.0

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise InputError("system has no rows")
        if n > TOL.max_dim:
            raise InputError(f"system dimension {n} exceeds the cap {TOL.max_dim}")
        for row in self.entries:
            if len(row) != n:
                raise InputError(f"matrix is not square: {n} rows but a row of length {len(row)}")
        if not (isinstance(self.period, float) and math.isfinite(self.period) and self.period > 0.0):
            raise InputError(f"period must be a positive finite number, got {self.period!r}")
        if not (isinstance(self.t0, float) and math.isfinite(self.t0) and self.t0 >= 0.0):
            raise InputError(f"initial time must be finite and >= 0, got {self.t0!r}")
        step, spacing = self.period / TOL.scan_points, math.ulp(self.t0 + self.period)
        if spacing > step:
            raise InputError(f"initial time {self.t0:g} is too large for period {self.period:g}: floats near "
                             f"t0 + T are {spacing:.3g} apart, wider than the scan step {step:.3g}")
        flat = tuple(e for row in self.entries for e in row)
        object.__setattr__(self, "_flat", flat)
        # every lru_cache lookup hashes the system, so walk the n^2 trees once
        object.__setattr__(self, "_hash", hash((self.entries, self.period, self.t0)))
        object.__setattr__(self, "_constant", not any(contains_time(e) for e in flat))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_constant(self) -> bool:
        return self._constant

    def matrix(self, t) -> np.ndarray:
        """A(t), or the stack t.shape + (n, n) for an array of times."""
        n = len(self.entries)
        v = evaluate(self._flat, t)
        return v.reshape(v.shape[:-1] + (n, n))

    def as_strings(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(to_string(e) for e in row) for row in self.entries)


def system_from_strings(rows: Sequence[Sequence[str]], period: float, t0: float = 0.0) -> SystemDef:
    """Parse a row-major matrix of expression strings into a SystemDef."""
    parsed = []
    for i, row in enumerate(rows):
        prow = []
        for j, text in enumerate(row):
            try:
                prow.append(parse(text))
            except ParseError as exc:
                raise InputError(f"entry ({i + 1},{j + 1}): {exc}") from exc
        parsed.append(tuple(prow))
    return SystemDef(tuple(parsed), float(period), float(t0))


def validate_periodicity(sys: SystemDef) -> float:
    """Compare A(t) with A(t + T) on a sample grid of TOL.periodicity_grid times.

    Returns the largest entrywise deviation found; raises InputError when it
    exceeds the configured tolerance relative to the sampled magnitude.  A
    declared period that divides the true one passes, which is harmless:
    every certificate below remains valid for it.
    """
    ts = sys.t0 + sys.period * np.arange(TOL.periodicity_grid) / TOL.periodicity_grid
    # t_j and t_j + T interleaved, so an EvalError names the first failing time in that order
    M = sys.matrix(np.stack((ts, ts + sys.period), axis=1))
    worst = float(np.abs(M[:, 0] - M[:, 1]).max())
    scale = max(1.0, float(np.abs(M[:, 0]).max()))
    if worst > TOL.periodicity_tol * scale:
        raise InputError(
            f"entries are not {sys.period:g}-periodic: deviation {worst:.3e} "
            f"exceeds {TOL.periodicity_tol * scale:.3e}")
    return worst


# ---------------------------------------------------------------- quadrature

def _adapt(f, a, b, fa, fm, fb, whole, tol, depth):
    # every panel of one level at once; the children of all rejected panels form the next
    m = 0.5 * (a + b)
    fx = f(np.concatenate((0.5 * (a + m), 0.5 * (m + b))))
    flm, frm = fx[:a.size], fx[a.size:]
    h12 = (b - a) / 12.0
    left = h12 * (fa + 4.0 * flm + fm)
    right = h12 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    value, err = left + right + delta / 15.0, np.abs(delta) / 15.0
    bad = ~np.isfinite(value)  # also where any integrand value is; refining cannot mend it
    if bad.any():
        raise NumericError(f"integrand or its Simpson estimate is not finite from t={a[bad].min():.6g}")
    split = np.abs(delta) > 15.0 * tol
    if depth > 0 and split.any():
        k = int(split.sum())
        cat = lambda x, y: np.concatenate((x[split], y[split]))  # noqa: E731
        v, e = _adapt(f, cat(a, m), cat(m, b), cat(fa, fm), cat(flm, frm), cat(fm, fb),
                      cat(left, right), 0.5 * tol, depth - 1)
        value[split] = v[:k] + v[k:]
        err[split] = e[:k] + e[k:]
    return value, err


def integrate(f: Callable[[np.ndarray], np.ndarray], a, b):
    """Adaptive Simpson quadrature of f over [a, b], or over each interval of
    the broadcast arrays a and b, with one call of f (a 1-d time array to its
    values) per refinement level of all of them.

    Returns (value, error_estimate), floats for scalar limits.  The estimate
    is the accumulated Richardson correction; when the depth cap is hit it
    simply comes out larger.  A panel whose integrand values or estimate are
    not finite raises NumericError, naming the earliest such panel of its level.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("integration limits must be finite")
    value, err = np.zeros(a.shape), np.zeros(a.shape)
    live = a != b
    if live.any():
        lo, hi = np.minimum(a, b)[live], np.maximum(a, b)[live]
        fa, fm, fb = np.split(f(np.concatenate((lo, 0.5 * (lo + hi), hi))), 3)
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        v, err[live] = _adapt(f, lo, hi, fa, fm, fb, whole, TOL.quad_abs, TOL.quad_max_depth)
        value[live] = np.where(b[live] < a[live], -v, v)
    return (float(value), float(err)) if value.ndim == 0 else (value, err)


# ------------------------------------------------------------ running rates

def _mu_fn(sys: SystemDef, kind: NormKind, sign: int) -> Callable[[np.ndarray], np.ndarray]:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return lambda s: lognorm.mu(sign * sys.matrix(s), kind)


@lru_cache(maxsize=64)
def _scan(sys: SystemDef, kind: NormKind, sign: int):
    # cumulative one-period integral of mu[sign A] at scan grid points, summed in grid order
    ts = np.linspace(sys.t0, sys.t0 + sys.period, TOL.scan_points + 1)
    vals, errs = integrate(_mu_fn(sys, kind, sign), ts[:-1], ts[1:])
    cum = np.cumsum(np.concatenate(([0.0], vals)))
    err = float(np.cumsum(errs)[-1])
    ts.flags.writeable = False
    cum.flags.writeable = False
    return ts, cum, err


def pi_integral(sys: SystemDef, kind: NormKind, sign: int, t):
    """Integral of mu[sign A(s)] over [t0, t], reduced modulo the period.

    Whole periods reuse one cached period integral; only the fractional tail
    is integrated fresh.  t may be an array of times, integrated in one
    quadrature call.  Returns (value, error_estimate), floats for a float t
    and arrays of t's shape otherwise.
    """
    shape = np.shape(t)
    t = np.asarray(t, dtype=float).ravel()
    early = t < sys.t0 - 1e-12 * (1.0 + abs(sys.t0))
    if early.any():
        raise ValueError(f"t={t[early][0]:g} precedes the initial time {sys.t0:g}")
    t = np.maximum(t, sys.t0)
    if sys.is_constant:
        value, err = lognorm.mu(sign * sys.matrix(sys.t0), kind) * (t - sys.t0), np.zeros(t.shape)
    else:
        T, N = sys.period, TOL.scan_points
        with np.errstate(over="ignore", invalid="ignore"):
            k = (t - sys.t0) // T
        if not np.isfinite(k).all():
            raise NumericError(f"t={t[~np.isfinite(k)][0]:g} is more periods past t0 = {sys.t0:g} "
                               f"than a float can count (period {T:g})")
        r = (t - sys.t0) - k * T
        k, r = np.where(r < 0.0, (k - 1.0, r + T), (k, r))
        ts, cum, scan_err = _scan(sys, kind, sign)
        per = float(cum[-1])
        # whole periods alone: k * per keeps the sign of a zero, so t0 gives -0.0 when per < 0
        value, err = k * per, k * scan_err
        tail = r != 0.0
        r, k = r[tail], k[tail]
        j = np.minimum((r / T * N).astype(int), N - 1)
        target = sys.t0 + r
        j = j - (target < ts[j])
        part, perr = integrate(_mu_fn(sys, kind, sign), ts[j], target)
        value[tail] = k * per + cum[j] + part
        err[tail] = k * scan_err + (j / N) * scan_err + perr
    if shape == ():
        return float(value[0]), float(err[0])
    return value.reshape(shape), err.reshape(shape)


@dataclass(frozen=True)
class RateSummary:
    """Per-period rates and envelope offsets for both field directions.

    lambda_* are the period averages pi_*(T)/T; delta_upper_*/delta_lower_*
    are the largest and smallest values of pi_*(t) - lambda_* (t - t0) over
    one period, so that within [t0, t0 + T] (and by periodicity, forever)

        lambda (t - t0) + delta_lower <= pi(t) <= lambda (t - t0) + delta_upper.

    quadrature_error is the summed Simpson error estimate behind them.
    """

    kind: NormKind
    t0: float
    period: float
    lambda_plus: float
    lambda_minus: float
    delta_upper_plus: float
    delta_lower_plus: float
    delta_upper_minus: float
    delta_lower_minus: float
    pi_plus_period: float
    pi_minus_period: float
    quadrature_error: float


def rate_summary(sys: SystemDef, kind: NormKind) -> RateSummary:
    """Compute the RateSummary for a system and norm.

    The deviation phi(t) = pi(t) - lambda (t - t0) is scanned on a uniform
    grid of per-segment adaptive integrals.  Every grid local maximum and
    minimum within one grid step's change of the grid extreme is then
    polished: phi' = mu - lambda is known pointwise, so each bracket is
    bisected on its sign, all brackets at once, and phi is read at the
    converged abscissas by one pi_integral call per direction.  Constant
    systems short-circuit: pi is exactly linear and every delta is zero.
    """
    T = sys.period
    t0 = sys.t0
    if sys.is_constant:
        A = sys.matrix(t0)
        mp = lognorm.mu(A, kind)
        mm = lognorm.mu(-A, kind)
        return RateSummary(kind, t0, T, mp, mm, 0.0, 0.0, 0.0, 0.0, mp * T, mm * T, 0.0)
    lams, pers, deltas = [], [], []
    err_total = 0.0
    for sign in (1, -1):
        ts, cum, err = _scan(sys, kind, sign)
        err_total += err
        per = float(cum[-1])
        lam = per / T
        g = cum - lam * (ts - t0)
        lams.append(lam)
        pers.append(per)
        # grid peaks of g (flip = 1) and of -g (flip = -1) near the extreme; strict on the left,
        # so a plateau counts once
        step = float(np.abs(np.diff(g)).max())
        peaks = []
        for s in (1.0, -1.0):
            h = np.concatenate(([-np.inf], s * g, [-np.inf]))
            mid = h[1:-1]
            peaks.append(np.flatnonzero((mid > h[:-2]) & (mid >= h[2:]) & (mid >= mid.max() - step)))
        j = np.concatenate(peaks)
        flip = np.repeat([1.0, -1.0], [p.size for p in peaks])
        a, b = ts[np.maximum(j - 1, 0)], ts[np.minimum(j + 1, ts.size - 1)]
        # a fixed count of halvings, since a bracket cannot narrow below the spacing of floats near t
        tol = TOL.refine_width * (float(ts[-1]) - float(ts[0]))
        mu = _mu_fn(sys, kind, sign)
        for _ in range(math.ceil(math.log2(max(float((b - a).max()) / tol, 1.0)))):
            m = 0.5 * (a + b)
            rising = flip * (mu(m) - lam) > 0.0
            a, b = np.where(rising, m, a), np.where(rising, b, m)
        x = 0.5 * (a + b)
        phi = flip * (pi_integral(sys, kind, sign, x)[0] - lam * (x - t0))
        deltas += (max(float(g.max()), float(phi[flip > 0].max())),
                   min(float(g.min()), -float(phi[flip < 0].max())))
    du_p, dl_p, du_m, dl_m = deltas
    (lam_p, lam_m), (per_p, per_m) = lams, pers
    return RateSummary(kind, t0, T, lam_p, lam_m, du_p, dl_p, du_m, dl_m, per_p, per_m, err_total)


# ------------------------------------------------------------ certification

@dataclass(frozen=True)
class Verdict:
    """Outcome of the one-period drift test in a fixed norm.

    classification is one of "UES", "US", "unstable", "inconclusive".  For
    the two stable outcomes K bounds the overshoot and alpha_tilde the decay
    rate (zero for plain uniform stability):

        |x(t)| <= K exp(-alpha_tilde (t - s)) |x(s)|   for t >= s >= t0.

    strip = (-lambda_minus, lambda_plus) brackets the real parts of every
    Floquet characteristic exponent regardless of the outcome.
    """

    classification: str
    kind: NormKind
    rates: RateSummary
    strip: tuple[float, float]
    K: float | None
    alpha_tilde: float | None
    message: str


def classify(sys: SystemDef, kind: NormKind, zero_tol: float | None = None) -> Verdict:
    """Stability verdict for x' = A(t) x from one-period drift integrals.

    The test is sufficient, not necessary: "inconclusive" means this norm
    does not decide, and another norm or the transition-matrix route may
    still settle it.  Verdicts depending on the sign of a near-zero drift
    use a resolution band: zero_tol if given, else a default tied to the
    quadrature error estimate.
    """
    rates = rate_summary(sys, kind)
    T = sys.period
    if zero_tol is None:
        band = max(TOL.zero_band, 10.0 * rates.quadrature_error)
    else:
        if not (math.isfinite(zero_tol) and zero_tol >= 0.0):
            raise InputError(f"zero_tol must be a finite number >= 0, got {zero_tol!r}")
        band = zero_tol
    strip = (-rates.lambda_minus, rates.lambda_plus)
    pi_p = rates.pi_plus_period
    pi_m = rates.pi_minus_period
    if pi_p < -band:
        K = math.exp(rates.delta_upper_plus - rates.delta_lower_plus)
        alpha = -pi_p / T
        msg = (f"uniformly exponentially stable: one-period drift {pi_p:.6g} < 0; "
               f"|x(t)| <= {K:.6g} exp(-{alpha:.6g} (t-s)) |x(s)|")
        return Verdict("UES", kind, rates, strip, K, alpha, msg)
    if pi_p <= band:
        K = math.exp(rates.delta_upper_plus - rates.delta_lower_plus)
        msg = (f"uniformly stable: one-period drift {pi_p:.6g} vanishes within the "
               f"resolution band {band:.2g}; |x(t)| <= {K:.6g} |x(s)|")
        return Verdict("US", kind, rates, strip, K, 0.0, msg)
    if pi_m < -band:
        rate = -pi_m / T
        msg = (f"unstable: reversed-field one-period drift {pi_m:.6g} < 0 forces "
               f"|x(t)| >= c exp({rate:.6g} (t-s)) |x(s)|")
        return Verdict("unstable", kind, rates, strip, None, None, msg)
    msg = (f"inconclusive in this norm: both one-period drifts are positive "
           f"({pi_p:.6g} and {pi_m:.6g}); try another norm or the transition-matrix route")
    return Verdict("inconclusive", kind, rates, strip, None, None, msg)


def fce_strip(sys: SystemDef, kind: NormKind) -> tuple[float, float]:
    """Closed real-part strip [-lambda_minus, lambda_plus] that contains
    every Floquet characteristic exponent of the system."""
    rates = rate_summary(sys, kind)
    return (-rates.lambda_minus, rates.lambda_plus)


# ------------------------------------------------------- frozen-time route

@dataclass(frozen=True)
class FrozenTimeReport:
    """Slowly-varying sufficient conditions evaluated on a frozen-time grid.

    applicable requires every sampled frozen matrix to be Hurwitz; alpha is
    the worst stability margin -max Re eig A(t) and m_bound the sampled sup
    of |A(t)|_2 (m_margin adds 5 percent headroom for the grid gap).  The
    first condition asks alpha > 4 m_margin; the second bounds the sampled
    sup of |A'(t)|_2 by c2_bound = (2/(2n-1)) alpha^(4n-2) / (2 m^(4n-4)).
    c2_bound_alt replaces the denominator by (2m)^(4n-4), the tighter
    reading; both are reported.
    """

    applicable: bool
    grid_points: int
    m_bound: float
    m_margin: float
    worst_abscissa: float
    alpha: float
    sup_adot: float
    c1_satisfied: bool
    c2_satisfied: bool
    c2_bound: float
    c2_bound_alt: float


def frozen_time_check(sys: SystemDef, grid_points: int = 64) -> FrozenTimeReport:
    """Evaluate the frozen-time conditions for x' = A(t) x on a grid.

    This route is independent of the drift integrals: it certifies stability
    from pointwise spectra plus a bound on how fast A may move.  It is very
    conservative; the report exists mainly to show when it cannot apply.
    """
    if grid_points < 16:
        raise InputError("grid_points must be at least 16")
    n = sys.n
    T = sys.period
    h = TOL.fd_step * T
    ts = sys.t0 + T * np.arange(grid_points) / grid_points
    A = sys.matrix(ts)
    # mat_norm gives -0.0 for a zero matrix; the bounds report it as 0.0
    m_bound = max(0.0, float(linalg.mat_norm(A, lognorm.TWO).max()))
    worst = float(linalg._lapack(ConvergenceError, np.linalg.eigvals, A).real.max())
    dA = (sys.matrix(ts + h) - sys.matrix(ts - h)) / (2.0 * h)
    sup_adot = max(0.0, float(linalg.mat_norm(dA, lognorm.TWO).max()))
    m_margin = 1.05 * m_bound
    alpha = -worst
    applicable = worst < 0.0
    c1 = applicable and alpha > 4.0 * m_margin
    if applicable and m_margin > 0.0:
        c2_bound = (2.0 / (2 * n - 1)) * alpha ** (4 * n - 2) / (2.0 * m_margin ** (4 * n - 4))
        c2_bound_alt = (2.0 / (2 * n - 1)) * alpha ** (4 * n - 2) / ((2.0 * m_margin) ** (4 * n - 4))
        c2 = sup_adot < c2_bound
    else:
        c2_bound = 0.0
        c2_bound_alt = 0.0
        c2 = False
    return FrozenTimeReport(applicable, grid_points, m_bound, m_margin, worst,
                            alpha, sup_adot, c1, c2, c2_bound, c2_bound_alt)


def barrier_series(sys: SystemDef, kind: NormKind, t_end: float, samples: int = 512) -> np.ndarray:
    """Sample the running integrals and their linear envelopes on [t0, t_end].

    Returns an array of shape (samples, 7) with columns t, pi_plus,
    pi_minus, low_plus, up_plus, low_minus, up_minus, where low/up are the
    sandwich lines lambda (t - t0) + delta_lower / delta_upper per sign.
    """
    if not math.isfinite(t_end) or t_end <= sys.t0:
        raise ValueError(f"t_end must exceed the initial time {sys.t0:g}")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    rates = rate_summary(sys, kind)
    ts = np.linspace(sys.t0, t_end, samples)
    dt = ts - sys.t0
    return np.column_stack((
        ts, pi_integral(sys, kind, 1, ts)[0], pi_integral(sys, kind, -1, ts)[0],
        rates.lambda_plus * dt + rates.delta_lower_plus,
        rates.lambda_plus * dt + rates.delta_upper_plus,
        rates.lambda_minus * dt + rates.delta_lower_minus,
        rates.lambda_minus * dt + rates.delta_upper_minus))
