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

Evaluation takes arrays of times throughout, and both directions come from
one A(t) evaluation: SystemDef.matrix gives matrix stacks, lognorm.mu_pair
maps them to mu[A] and mu[-A], integrate refines all of its intervals and
columns level by level with one integrand call per level, and rate_summary
polishes the extrema of both directions by bisection on mu - lambda, one
mu_pair call per round, and one pi_integral call at the end.
"""

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg, lognorm
from .config import TOL
from .errors import ConvergenceError, InputError, NumericError
from .expr import Expression, ParseError, contains_time, evaluate, parse, plan, to_string
from .linalg import NormKind, _immutable


class SystemDef:
    """A square matrix of time expressions with a declared period.

    entries holds parsed expression trees, row-major; period is the declared
    T > 0 and t0 the initial time.  Instances are immutable and hashable, so
    derived quantities can be cached on the system itself.  Use
    system_from_strings for the common construction from text.
    """

    __slots__ = ("entries", "period", "t0", "_plan", "_hash", "_constant")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, entries: tuple[tuple[Expression, ...], ...], period: float, t0: float = 0.0):
        n = len(entries)
        if n == 0:
            raise InputError("system has no rows")
        if n > TOL.max_dim:
            raise InputError(f"system dimension {n} exceeds the cap {TOL.max_dim}")
        for row in entries:
            if len(row) != n:
                raise InputError(f"matrix is not square: {n} rows but a row of length {len(row)}")
        if not (isinstance(period, float) and math.isfinite(period) and period > 0.0):
            raise InputError(f"period must be a positive finite number, got {period!r}")
        if not (isinstance(t0, float) and math.isfinite(t0) and t0 >= 0.0):
            raise InputError(f"initial time must be finite and >= 0, got {t0!r}")
        step, spacing = period / TOL.scan_points, math.ulp(t0 + period)
        if spacing > step:
            raise InputError(f"initial time {t0:g} is too large for period {period:g}: floats near "
                             f"t0 + T are {spacing:.3g} apart, wider than the scan step {step:.3g}")
        flat = tuple(e for row in entries for e in row)
        # every lru_cache lookup hashes the system, so walk the n^2 trees once
        values = (entries, period, t0, plan(flat), hash((entries, period, t0)),
                  not any(map(contains_time, flat)))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not SystemDef:
            return NotImplemented
        return (self.entries, self.period, self.t0) == (other.entries, other.period, other.t0)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SystemDef(entries={self.entries!r}, period={self.period!r}, t0={self.t0!r})"

    def __reduce__(self):
        return SystemDef, (self.entries, self.period, self.t0)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_constant(self) -> bool:
        return self._constant

    def matrix(self, t) -> np.ndarray:
        """A(t), or the stack t.shape + (n, n) for an array of times."""
        n = len(self.entries)
        v = evaluate(self._plan, t)
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

def _adapt(f, a, b, fa, fm, fb, whole, tol, ulp, live):
    # every panel of one level at once, a row per panel and a column per integrand column; a
    # column is live on a panel while it refines it, and the children of every panel with a
    # live column form the next level.  ulp is the spacing of floats at the call's largest limit
    m = 0.5 * (a + b)
    flm, frm = np.split(f(np.concatenate((0.5 * (a + m), 0.5 * (m + b)))), 2)
    h12 = ((b - a) / 12.0)[:, None]
    left = h12 * (fa + 4.0 * flm + fm)
    right = h12 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    value, err = left + right + delta / 15.0, np.abs(delta) / 15.0
    bad = live & ~np.isfinite(value)  # also where any integrand value is; refining cannot mend it
    if bad.any():
        raise NumericError(f"integrand or its Simpson estimate is not finite from t={a[bad.any(axis=1)].min():.6g}")
    split = live & (np.abs(delta) > 15.0 * tol)
    if split.any():  # then also past what rounding the five nodes' values and times can cause
        noise = 2.0 ** -50 * (np.abs(left) + np.abs(right)) + ulp * (np.abs(fm - fa) + np.abs(fb - fm))
        split &= (np.abs(delta) > noise) & ((b - a)[:, None] > 4.0 * ulp)
    if (rows := split.any(axis=1)).any():
        k = int(rows.sum())
        cat = lambda x, y: np.concatenate((x[rows], y[rows]))  # noqa: E731
        v, e = _adapt(f, cat(a, m), cat(m, b), cat(fa, fm), cat(flm, frm), cat(fm, fb),
                      cat(left, right), 0.5 * tol, ulp, cat(split, split))
        value[split] = (v[:k] + v[k:])[split[rows]]
        err[split] = (e[:k] + e[k:])[split[rows]]
    return value, err


@np.errstate(over="ignore", invalid="ignore")  # a Simpson sum that is not finite raises NumericError
def integrate(f: Callable[[np.ndarray], np.ndarray], a, b):
    """Adaptive Simpson quadrature of f over [a, b], or over each interval of
    the broadcast arrays a and b, with one call of f per refinement level of
    all of them, the first even when no interval has length.  f maps a 1-d
    array of times to their values, or to k columns of them, each refined on
    its own panels as if it were alone.  f must give a time the same values
    in any array: an end that starts the next interval is evaluated once.

    Returns (value, error_estimate) of the limits' shape, plus a last axis of
    k for k columns; floats for scalar limits and one column.  The estimate
    sums the Richardson corrections of the panels that stopped splitting: at
    the budget, at float noise, or four ulps of the call's largest limit wide.
    Non-finite values or estimates raise NumericError from the earliest panel.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("integration limits must be finite")
    live = a != b
    lo, hi = np.minimum(a, b)[live], np.maximum(a, b)[live]
    n = lo.size
    fresh = hi != np.append(lo[1:], np.nan)
    x = f(np.concatenate((lo, 0.5 * (lo + hi), hi[fresh])))
    shape, k = a.shape + x.shape[1:], math.prod(x.shape[1:])
    x = x.reshape(x.shape[0], k)
    fa, fm = x[:n], x[n:2 * n]
    fb = x[np.where(fresh, 2 * n + np.cumsum(fresh) - 1, np.arange(1, n + 1))]
    value, err = np.zeros(a.shape + (k,)), np.zeros(a.shape + (k,))
    if n:
        whole = ((hi - lo) / 6.0)[:, None] * (fa + 4.0 * fm + fb)
        v, err[live] = _adapt(lambda t: f(t).reshape(-1, k), lo, hi, fa, fm, fb, whole,
                              TOL.quad_abs, np.spacing(max(-lo.min(), hi.max())), np.ones((n, k), bool))
        value[live] = np.where((b < a)[live][:, None], -v, v)
    value, err = value.reshape(shape), err.reshape(shape)
    return (float(value), float(err)) if value.ndim == 0 else (value, err)


# ------------------------------------------------------------ running rates

def _mu_fn(sys: SystemDef, kind: NormKind) -> Callable[[np.ndarray], np.ndarray]:
    return lambda s: lognorm.mu_pair(sys.matrix(s), kind)


@lru_cache(maxsize=64)
def _scan(sys: SystemDef, kind: NormKind):
    # cumulative one-period integrals of mu[A] and mu[-A], a column each, at scan grid points,
    # summed in grid order
    ts = np.linspace(sys.t0, sys.t0 + sys.period, TOL.scan_points + 1)
    vals, errs = integrate(_mu_fn(sys, kind), ts[:-1], ts[1:])
    cum = np.cumsum(np.concatenate((np.zeros((1, 2)), vals)), axis=0)
    err = np.cumsum(errs, axis=0)[-1]
    ts.flags.writeable = cum.flags.writeable = err.flags.writeable = False
    return ts, cum, err


def pi_integral(sys: SystemDef, kind: NormKind, t):
    """Integrals of mu[A(s)] and mu[-A(s)] over [t0, t], reduced modulo the period.

    Whole periods reuse one cached period integral; only the fractional tail
    is integrated fresh.  t may be an array of times, integrated in one
    quadrature call.  Returns (value, error_estimate), each of t's shape
    plus a last axis that holds the plus and the minus direction.
    """
    shape = np.shape(t) + (2,)
    t = np.asarray(t, dtype=float).ravel()
    early = t < sys.t0 - 1e-12 * (1.0 + abs(sys.t0))
    if early.any():
        raise ValueError(f"t={t[early][0]:g} precedes the initial time {sys.t0:g}")
    t = np.maximum(t, sys.t0)[:, None]
    if sys.is_constant:
        value, err = lognorm.mu_pair(sys.matrix(sys.t0), kind) * (t - sys.t0), np.zeros(shape)
    else:
        T, N = sys.period, TOL.scan_points
        with np.errstate(over="ignore", invalid="ignore"):
            k = (t - sys.t0) // T
        if not np.isfinite(k).all():
            raise NumericError(f"t={t[~np.isfinite(k)][0]:g} is more periods past t0 = {sys.t0:g} "
                               f"than a float can count (period {T:g})")
        r = (t - sys.t0) - k * T
        k, r = np.where(r < 0.0, (k - 1.0, r + T), (k, r))
        ts, cum, scan_err = _scan(sys, kind)
        per = cum[-1]
        # whole periods alone: k * per keeps the sign of a zero, so t0 gives -0.0 when per < 0
        value, err = k * per, k * scan_err
        tail = r[:, 0] != 0.0
        r, k = r[tail, 0], k[tail]
        j = np.minimum((r / T * N).astype(int), N - 1)
        target = sys.t0 + r
        j = j - (target < ts[j])
        part, perr = integrate(_mu_fn(sys, kind), ts[j], target)
        value[tail] = k * per + cum[j] + part
        err[tail] = k * scan_err + (j / N)[:, None] * scan_err + perr
    return value.reshape(shape), err.reshape(shape)


class RateSummary(NamedTuple):
    """Per-period rates and envelope offsets for both field directions.

    lambda_* are the period averages pi_*(T)/T; delta_upper_*/delta_lower_*
    are the largest and smallest values of pi_*(t) - lambda_* (t - t0) over
    one period, so that within [t0, t0 + T] (and by periodicity, forever)

        lambda (t - t0) + delta_lower <= pi(t) <= lambda (t - t0) + delta_upper.

    quadrature_error is the summed Simpson error estimate behind them.
    """

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
    bisected on its sign, all brackets of both directions at once, and phi
    is read at the converged abscissas by one pi_integral call.  Constant
    systems short-circuit: pi is exactly linear and every delta is zero.
    """
    T, t0 = sys.period, sys.t0
    if sys.is_constant:
        mp, mm = map(float, lognorm.mu_pair(sys.matrix(t0), kind))
        return RateSummary(T, mp, mm, 0.0, 0.0, 0.0, 0.0, mp * T, mm * T, 0.0)
    ts, cum, errs = _scan(sys, kind)
    pers, lams = cum[-1], cum[-1] / T
    g = cum - (ts - t0)[:, None] * lams
    # grid peaks near the extreme of each column of g (flip = 1) and of -g (flip = -1); strict
    # on the left, so a plateau counts once
    steps = np.tile(np.abs(np.diff(g, axis=0)).max(axis=0), 2)
    h = np.pad(np.concatenate((g, -g), axis=1), ((1, 1), (0, 0)), constant_values=-np.inf)
    mid = h[1:-1]
    j, c = np.nonzero((mid > h[:-2]) & (mid >= h[2:]) & (mid >= mid.max(axis=0) - steps))
    col, flip, idx = c % 2, np.where(c < 2, 1.0, -1.0), np.arange(j.size)
    a, b = ts[np.maximum(j - 1, 0)], ts[np.minimum(j + 1, ts.size - 1)]
    # a fixed count of halvings per direction, since a bracket cannot narrow below the spacing
    # of floats near t
    tol = TOL.refine_width * (float(ts[-1]) - float(ts[0]))
    rounds = np.array([math.ceil(math.log2(max(float((b - a)[col == d].max()) / tol, 1.0))) for d in (0, 1)])[col]
    mu, lam = _mu_fn(sys, kind), lams[col]
    for i in range(rounds.max()):
        m = 0.5 * (a + b)
        rising = flip * (mu(m)[idx, col] - lam) > 0.0
        a, b = np.where((rounds > i) & rising, m, a), np.where((rounds > i) & ~rising, m, b)
    x = 0.5 * (a + b)
    phi = flip * (pi_integral(sys, kind, x)[0][idx, col] - lam * (x - t0))
    du_p, du_m = (max(float(g[:, d].max()), float(phi[(col == d) & (flip > 0)].max())) for d in (0, 1))
    dl_p, dl_m = (min(float(g[:, d].min()), -float(phi[(col == d) & (flip < 0)].max())) for d in (0, 1))
    return RateSummary(T, *map(float, lams), du_p, dl_p, du_m, dl_m, *map(float, pers),
                       float(errs[0] + errs[1]))


# ------------------------------------------------------------ certification

class Verdict(NamedTuple):
    """Outcome of the one-period drift test in a fixed norm.

    classification is one of "UES", "US", "unstable", "inconclusive".  For
    the two stable outcomes K bounds the overshoot (inf past the largest
    float) and alpha_tilde the decay rate (zero for plain uniform stability):

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
    try:
        K = math.exp(rates.delta_upper_plus - rates.delta_lower_plus)
    except OverflowError:  # an overshoot past the largest float
        K = math.inf
    if pi_p < -band:
        alpha = -pi_p / T
        msg = (f"uniformly exponentially stable: one-period drift {pi_p:.6g} < 0; "
               f"|x(t)| <= {K:.6g} exp(-{alpha:.6g} (t-s)) |x(s)|")
        return Verdict("UES", kind, rates, strip, K, alpha, msg)
    if pi_p <= band:
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


# ------------------------------------------------------- frozen-time route

class FrozenTimeReport(NamedTuple):
    """Slowly-varying sufficient conditions evaluated on a frozen-time grid.

    applicable requires every sampled frozen matrix to be Hurwitz; alpha is
    the worst stability margin -max Re eig A(t) and m_bound the sampled sup
    of |A(t)|_2 (m_margin adds 5 percent headroom for the grid gap).  The
    first condition asks alpha > 4 m_margin; the second bounds the sampled
    sup of |A'(t)|_2 by c2_bound = alpha^2 (alpha/m)^(4n-4) / (2n-1), with
    m = m_margin.  c2_bound_alt = 2 alpha^2 (alpha/(2m))^(4n-4) / (2n-1)
    replaces the denominator m^(4n-4) / 2 by (2m)^(4n-4), the tighter
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


def frozen_time_check(sys: SystemDef) -> FrozenTimeReport:
    """Evaluate the frozen-time conditions for x' = A(t) x on a grid of 64
    evenly spaced times over one period.

    This route is independent of the drift integrals: it certifies stability
    from pointwise spectra plus a bound on how fast A may move.  It is very
    conservative; the report exists mainly to show when it cannot apply.
    """
    grid_points = 64
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
        # alpha <= |A|_2 < m_margin, so each power is of a ratio below 1 and only a bound
        # itself past the largest float overflows
        c2_bound = alpha * (alpha * (alpha / m_margin) ** (4 * n - 4)) / (2 * n - 1)
        c2_bound_alt = 2.0 * alpha * (alpha * (alpha / (2.0 * m_margin)) ** (4 * n - 4)) / (2 * n - 1)
        if not (math.isfinite(c2_bound) and math.isfinite(c2_bound_alt)):
            raise NumericError("frozen-time rate bound overflowed to a non-finite value")
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
        ts, pi_integral(sys, kind, ts)[0],
        rates.lambda_plus * dt + rates.delta_lower_plus,
        rates.lambda_plus * dt + rates.delta_upper_plus,
        rates.lambda_minus * dt + rates.delta_lower_minus,
        rates.lambda_minus * dt + rates.delta_upper_minus))
