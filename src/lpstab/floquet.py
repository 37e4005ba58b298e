"""Transition-matrix route: integrate the system and compare.

Everything in this module is deliberately independent of the drift-integral
certificates in periodic.py: the two routes share only the evaluation of
A(t).  State transition matrices come from a fixed-step fourth-order
Runge-Kutta integrator with step doubling, which advances all the segments
of one request together as a (P, n, n) stack.  On a linear field an RK4
step is a matrix, so the kernel evaluates A(t) in blocks on the stage grid,
builds each block's step matrices as one stack and composes them by
log-depth prefix products (an associative scan, Blelloch 1990) instead of
stepping in a Python loop.  The monodromy spectrum comes from LAPACK via
numpy.linalg, and the verify_* functions confront the two routes:
characteristic-exponent strip membership, the exponential sandwich on
|transition| over time, and the decay envelope promised by a stability
verdict.  Agreement here is evidence; disagreement beyond the stated
allowances is a bug in one of the routes and raises no exception, it just
comes back as a failed check or a positive violation.
"""

import math
import random
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg, lognorm, periodic
from .config import TOL, Tolerances
from .errors import BlowupError, ConvergenceError, NumericError
from .linalg import NormKind
from .periodic import SystemDef


class TransitionMatrix(NamedTuple):
    """State transition matrix Phi(t_end, t_start) with integration metadata:
    floats and an int for one segment (integrate_transition), read-only
    stacks over the segments for many (integrate_transitions)."""

    value: np.ndarray
    t_start: float | np.ndarray
    t_end: float | np.ndarray
    steps: int | np.ndarray
    error_estimate: float | np.ndarray


# a block's working set in bytes: its stage stack of A(t) and the temporaries that build,
# compose and check its step matrices, about _PER_STEP n x n matrices per step.  Large n
# needs large blocks, since each sys.matrix call walks n^2 expression trees; at small n
# a block stops at _BLOCK_STEPS steps, past which it saves no time and only adds memory.
# A block holds at least one chunk, so at n = 64 it may go over
_BLOCK_BYTES = 4 << 20
_BLOCK_STEPS = 1024
_PER_STEP = 9


def _per_block(n: int, matrices: int) -> int:
    """Items in a block when each holds about `matrices` n x n matrices:
    _BLOCK_BYTES worth, at most _BLOCK_STEPS and at least one."""
    return max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // (matrices * n * n * 8)))


def _chunk(n: int) -> int:
    """Steps per chunk of the prefix-product scan, a power of two that depends
    on n alone: fewer at large n, where every extra matmul round costs n^3."""
    return max(2, 64 >> max(0, n.bit_length() - 1))


# |h| |A(t)|_inf at and above which an RK4 step of length h is too coarse for A(t)
_COARSE = 0.5


def _node_rates(sys: SystemDef, a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The largest |A(t)|_inf on the 2 q[i] + 1 evenly spaced nodes of each
    interval [a[i], b[i]]: the ends and midpoints of q[i] equal panels, or
    the stage grid of q[i] RK4 steps.  The nodes go through sys.matrix in
    blocks of bounded bytes."""
    rate = np.zeros(a.size)
    nodes = 2 * q + 1
    ends = np.cumsum(nodes)
    per_block = _per_block(sys.n, 3)  # a node holds A(t), its row of evaluate's output and |A(t)|
    for k0 in range(0, int(ends[-1]), per_block):
        k = np.arange(k0, min(k0 + per_block, int(ends[-1])))
        i = np.searchsorted(ends, k, side="right")
        t = a[i] + (b[i] - a[i]) * (k - ends[i] + nodes[i]) / (2 * q[i])
        norms = linalg.mat_norm(sys.matrix(t), lognorm.INF)
        first = np.flatnonzero(np.diff(i, prepend=-1))  # each interval's run in the block
        rate[i[first]] = np.maximum(rate[i[first]], np.maximum.reduceat(norms, first))
    return rate


def _too_coarse(sys: SystemDef, a: np.ndarray, b: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Whether steps[i] RK4 steps over [a[i], b[i]] are too coarse for A:
    |h| |A(t)|_inf >= _COARSE on their stage grid.  RK4 diverges on its own
    far from its stability interval (about 2.8 on the negative real axis,
    Hairer and Wanner, Solving ODEs II), so an overflow after such a step is
    taken as a step to refine, not as the system's growth."""
    return np.abs(b - a) / steps * _node_rates(sys, a, b, steps) >= _COARSE


def _step_matrices(A: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The RK4 step map I + h/6 (S1 + 2 S2 + 2 S3 + S4) of each stage triple
    A(t), A(t + h/2), A(t + h) in the (m, 3, n, n) stack A, for its step h."""
    eye = np.eye(A.shape[-1])
    half, full, sixth = (0.5 * h)[:, None, None], h[:, None, None], (h / 6.0)[:, None, None]
    S1, A2, A4 = A[:, 0], A[:, 1], A[:, 2]  # A2 is shared by the two middle stages
    S2 = A2 @ (eye + half * S1)
    S3 = A2 @ (eye + half * S2)
    S4 = A4 @ (eye + full * S3)
    return eye + sixth * (S1 + 2.0 * S2 + 2.0 * S3 + S4)


def _prefix_products(Q: np.ndarray) -> None:
    """Replace each step matrix of the (pairs, C, n, n) stack Q by the product
    of its chunk's matrices up to it, later steps on the left, in
    ceil(log2 C) stacked matmul rounds (Hillis-Steele).  Entry k reads only
    entries 0..k, by a tree fixed by k."""
    d = 1
    while d < Q.shape[1]:
        Q[:, d:] = Q[:, d:] @ Q[:, :-d]
        d *= 2


def _rk4_matrix(sys: SystemDef, a: np.ndarray, b: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Phi(b[i], a[i]) by `steps` fixed RK4 steps for every segment of the
    1-d arrays a, b at once, as a (P, n, n) stack, with the (P,) array
    t_blow.

    On a linear field one RK4 step is a matrix M_k, so no loop runs over the
    steps.  Each segment's steps are cut into chunks of C = _chunk(n), and
    the (segment, chunk) pairs, chunk-major, into blocks sized by
    _per_block.  A block reads A(t) on its stage grid t_k, t_k + h/2, t_k + h
    with one sys.matrix call and builds all its M_k as one stack.  Inside each chunk the prefix products
    Q_k = M_k ... M_first come from _prefix_products; Phi is carried from
    chunk to chunk in order, and every step's Phi_k = Q_k Phi_start, formed
    in one stacked matmul, is checked against TOL.overflow.  The product
    tree depends only on the step count and n, so a segment comes out
    bit-identical whatever stack or block layout it is integrated in.

    A segment whose matrix leaves the overflow cap at some step (inf and NaN
    included) integrates no further and comes back as NaN, with the time it
    got to in t_blow; t_blow is NaN for the others.  Only sys.n and
    sys.matrix are read: the forced stepper in perturb passes the augmented
    field [[A(t), d(t)], [0, 0]], whose maps [[M, c], [0, 1]] carry x to
    M x + c.
    """
    h = (b - a) / steps
    n, segs = sys.n, a.size
    width = min(_chunk(n), steps)
    pairs = segs * -(-steps // width)
    per_block = max(1, _per_block(n, _PER_STEP) // width)
    Phi = np.tile(np.eye(n), (segs, 1, 1))
    blow = np.full(segs, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # the cap check catches inf and NaN
        for p0 in range(0, pairs, per_block):
            chunk, seg = np.divmod(np.arange(p0, min(pairs, p0 + per_block)), segs)
            live = np.isnan(blow[seg])  # a blown segment integrates no further
            if not live.any():
                continue
            chunk, seg = chunk[live], seg[live]
            k = chunk[:, None] * width + np.arange(width)
            valid = k < steps  # the last chunk may be short
            hk = np.broadcast_to(h[seg, None], k.shape)[valid]
            t = (a[seg, None] + k * h[seg, None])[valid]
            M = _step_matrices(sys.matrix(np.stack((t, t + 0.5 * hk, t + hk), axis=-1)), hk)
            if valid.all():
                Q = M.reshape(k.shape + (n, n))
            else:
                Q = np.tile(np.eye(n), k.shape + (1, 1))
                Q[valid] = M
            _prefix_products(Q)
            ends = Q[np.arange(seg.size), valid.sum(axis=1) - 1]
            start = np.empty((seg.size, n, n))
            cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), seg.size]
            for lo, hi in zip(cuts, cuts[1:]):  # one run of segments per chunk index
                start[lo:hi] = Phi[seg[lo:hi]]
                Phi[seg[lo:hi]] = ends[lo:hi] @ start[lo:hi]
            # NaN and inf fail the comparison too
            bad = ~(np.abs(Q @ start[:, None]).max(axis=(-2, -1)) <= TOL.overflow) & valid
            for r in np.flatnonzero(bad.any(axis=1)).tolist():  # in step order for each segment
                if np.isnan(blow[seg[r]]):
                    blow[seg[r]] = a[seg[r]] + (k[r, bad[r].argmax()] + 1) * h[seg[r]]
    Phi[~np.isnan(blow)] = np.nan
    return Phi, blow


def _non_positive_det(M: np.ndarray) -> np.ndarray:
    """Whether each matrix of the (m, n, n) stack M has a determinant that is
    non-positive beyond round-off.  LU resolves det only to about n eps times
    Hadamard's bound prod_i |row_i|_2, so a smaller one, zero included, has
    no sign to read: a strongly contracting transition matrix has one."""
    sign, logdet = np.linalg.slogdet(M)
    bad = sign <= 0.0
    with np.errstate(divide="ignore"):  # a zero row, whose det is exactly 0, gives -inf
        noise = math.log(M.shape[-1] * np.finfo(float).eps) + np.log(linalg._two_norm(M[bad])).sum(axis=-1)
    bad[bad] = logdet[bad] > noise
    return bad


def integrate_transitions(sys: SystemDef, t_from, t_to, tol: float | None = None,
                          start_steps=None) -> TransitionMatrix:
    """Phi(t_to[i], t_from[i]) for every pair of the 1-d sequences t_from and
    t_to, each by RK4 with step doubling, as one TransitionMatrix whose
    fields are read-only stacks over the segments: value (P, n, n) and
    t_start, t_end, steps, error_estimate (P,).

    Each segment starts from start_steps, an int or a (P,) array, or by
    default from a step count proportional to its span (between 8 and
    TOL.ode_start_steps), and doubles until two consecutive answers
    agree to tol relative to the result's magnitude; a pass that overflows
    doubles too if _too_coarse finds the blown step too coarse for A on its
    stage grid, and is a BlowupError otherwise; the returned error_estimate
    is that difference divided by 15, the usual fourth-order extrapolation
    factor.  Backward spans integrate with a negative step and
    zero-length ones give the identity.  A result whose determinant is
    non-positive beyond round-off is rejected (the exact transition matrix
    always has a positive one, but a strongly contracting one may have a
    determinant below what LU resolves; see _non_positive_det), and so is
    one that underflowed to zero everywhere, which has no spectrum to read.

    The segments advance together: those with the same step count form one
    (P, n, n) stack, converged ones leave it and the rest double.  The result
    of each segment is bit-identical to integrating it alone.  When segments
    fail, the error raised is the first failing segment's in argument order
    (BlowupError, ConvergenceError or NumericError).
    """
    if tol is None:
        tol = TOL.ode_tol
    a = np.array(t_from, dtype=float)
    b = np.array(t_to, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"t_from and t_to must be 1-d of one length, got shapes {a.shape} and {b.shape}")
    n = sys.n
    # zero-length segments keep the identity, live ones hold their last pass
    value = np.tile(np.eye(n), (a.size, 1, 1))
    err = np.zeros(a.size)
    fail: dict[int, NumericError] = {}
    if start_steps is None:
        start = TOL.ode_start_steps
        start_steps = np.maximum(8, np.minimum(start, np.ceil(start * np.abs(b - a) / sys.period)))
    steps = np.broadcast_to(start_steps, a.shape).astype(np.int64)
    steps[a == b] = 0
    live = np.flatnonzero(a != b)
    first = True
    while live.size:
        if not first:
            over = steps[live] * 2 > TOL.ode_max_steps
            for i in live[over]:
                fail[i] = ConvergenceError(f"transition matrix over [{a[i]:g}, {b[i]:g}] did not "
                                           f"settle within {TOL.ode_max_steps} steps")
            live = live[~over]
            steps[live] *= 2
        cur = np.empty((live.size, n, n))
        t_blow = np.empty(live.size)
        for s in set(steps[live].tolist()):  # (np.unique costs 1.5 MB of RSS on first use)
            grp = np.flatnonzero(steps[live] == s)
            cur[grp], t_blow[grp] = _rk4_matrix(sys, a[live[grp]], b[live[grp]], s)
        blown = ~np.isnan(t_blow)
        # a blow-up after too coarse a step doubles as usual, from no previous answer (its
        # NaN matrix agrees with nothing); one with room for no further doubling is final
        retry = np.zeros_like(blown)
        if blown.any():
            seg, t = live[blown], t_blow[blown]
            retry[blown] = _too_coarse(sys, t - (b[seg] - a[seg]) / steps[seg], t, np.ones(seg.size, np.int64))
            retry &= steps[live] * 2 <= TOL.ode_max_steps
        for i, t in zip(live[blown & ~retry], t_blow[blown & ~retry].tolist()):
            fail[i] = BlowupError(f"transition matrix exceeded {TOL.overflow:.1e} at t={t:.6g}", t_reached=t)
        rest = ~blown | retry
        if not first:
            diff = np.abs(cur - value[live]).max(axis=(1, 2))
            done = rest & (diff <= tol * (1.0 + np.abs(cur).max(axis=(1, 2))))
            zero = ~cur[done].any(axis=(1, 2))
            bad = zero | _non_positive_det(cur[done])
            for i, z in zip(live[done][bad], zero[bad]):
                what = "underflowed to zero" if z else "has non-positive determinant"
                fail[i] = NumericError(f"integrated transition matrix {what} over [{a[i]:g}, {b[i]:g}]")
            err[live[done]] = diff[done] / 15.0
            rest &= ~done
        value[live] = cur
        live = live[rest]
        if fail:
            # segments after a failed one no longer matter
            live = live[live < min(fail)]
        first = False
    if fail:
        raise fail[min(fail)]
    for field in (value, a, b, steps, err):
        field.flags.writeable = False
    return TransitionMatrix(value, a, b, steps, err)


def integrate_transition(sys: SystemDef, t_from: float, t_to: float,
                         tol: float | None = None) -> TransitionMatrix:
    """Phi(t_to, t_from) by RK4 with step doubling: the one-segment case of
    integrate_transitions, with float and int fields."""
    tm = integrate_transitions(sys, [t_from], [t_to], tol)
    return TransitionMatrix(tm.value[0], float(tm.t_start[0]), float(tm.t_end[0]), int(tm.steps[0]),
                            float(tm.error_estimate[0]))


class FceEstimate(NamedTuple):
    """Monodromy spectrum: multipliers rho and characteristic exponent real
    parts log|rho| / T, ascending.

    A multiplier below floor = TOL.multiplier_floor * max|M| is round-off
    of the eigensolver, not a resolved value.  Each such one gives the
    upper bound log(floor) / T in place of its exponent; these are the
    first `unresolved` entries of real_parts."""

    multipliers: tuple[complex, ...]
    real_parts: tuple[float, ...]
    monodromy: TransitionMatrix
    floor: float
    unresolved: int


def monodromy_fce(sys: SystemDef, tol: float | None = None) -> FceEstimate:
    """Characteristic multipliers and exponent real parts over one period."""
    tm = integrate_transition(sys, sys.t0, sys.t0 + sys.period, tol)
    mult = linalg.gen_eigs(tm.value)
    floor = TOL.multiplier_floor * float(np.abs(tm.value).max())
    mods = [abs(z) for z in mult]
    parts = sorted(math.log(max(m, floor)) / sys.period for m in mods)
    return FceEstimate(tuple(mult), tuple(parts), tm, floor, sum(m < floor for m in mods))


# ------------------------------------------------------------- cross-checks

@lru_cache(maxsize=16)
def _period_segments(sys: SystemDef, forward: bool, tol: Tolerances) -> TransitionMatrix | BlowupError:
    """Transitions over the 15 segments of t0 + k T/15, once per system,
    direction and TOL (the module's, read by integrate_transitions); a blow-up
    is kept without its frames, and a backward one never reaches verify_decay."""
    ts = np.linspace(sys.t0, sys.t0 + sys.period, 16)
    try:
        return integrate_transitions(sys, ts[:-1], ts[1:]) if forward else integrate_transitions(sys, ts[1:], ts[:-1])
    except BlowupError as exc:
        return exc.with_traceback(None)


def _spans(segs: np.ndarray, forward: bool, span: int) -> np.ndarray:
    """Transitions over the 15 segments of the grid t0 + k span T/15: as
    Phi(t + T, s + T) = Phi(t, s), products of `span` consecutive segments of
    a stack of _period_segments modulo 15, ordered as in _pair_products."""
    first = span * np.arange(15)
    out = segs[first % 15]
    for d in range(1, span):
        nxt = segs[(first + d) % 15]
        out = nxt @ out if forward else out @ nxt
    return out


def _pair_products(segs: np.ndarray, forward: bool):
    """Products of the (m, n, n) stack of consecutive segment transitions over
    every grid pair i < j, as a stack ordered by j - i and then by i, with the
    index arrays i and j.  Forward products multiply on the left, segs[j-1]
    ... segs[i], backward ones on the right; each starts from the identity and
    takes one stacked matmul per distance j - i, so it is bit-identical to
    accumulating it one pair at a time."""
    m = len(segs)
    P = np.broadcast_to(np.eye(segs.shape[-1]), segs.shape)
    out = []
    for d in range(1, m + 1):
        P = segs[d - 1:] @ P[:m - d + 1] if forward else P[:m - d + 1] @ segs[d - 1:]
        out.append(P)
    i = np.concatenate([np.arange(m - d + 1) for d in range(1, m + 1)])
    return np.concatenate(out), i, i + np.repeat(np.arange(1, m + 1), np.arange(m, 0, -1))


class StripCheck(NamedTuple):
    passed: bool
    lower: float
    upper: float
    real_parts: tuple[float, ...]
    worst_violation: float
    allowance: float


def verify_strip(rates: periodic.RateSummary, fce: FceEstimate) -> StripCheck:
    """Check that every characteristic exponent real part of the monodromy
    route (fce) lies in the strip [-lambda_minus, lambda_plus] of the drift
    route (rates) for one system; an unresolved exponent (see FceEstimate)
    is checked against -lambda_minus alone.

    worst_violation is the largest excursion outside the strip (negative
    when everything is strictly inside); the allowance combines the
    configured slack with both routes' error estimates.
    """
    lower = -rates.lambda_minus
    upper = rates.lambda_plus
    min_mod = min((m for m in map(abs, fce.multipliers) if m >= fce.floor), default=fce.floor)
    eps_mult = len(fce.multipliers) * fce.monodromy.error_estimate / min_mod
    allowance = TOL.strip_slack + rates.quadrature_error / rates.period + math.log1p(eps_mult) / rates.period
    # an unresolved exponent is only an upper bound: below the strip it puts the true
    # exponent below it too, above the strip it says nothing
    worst = max(lower - rp if k < fce.unresolved else max(lower - rp, rp - upper)
                for k, rp in enumerate(fce.real_parts))
    return StripCheck(worst <= allowance, lower, upper, fce.real_parts, worst, allowance)


def verify_sandwich(sys: SystemDef, kind: NormKind) -> float:
    """Largest relative violation of the two-sided transition bound on the
    pairs t0 <= s <= t <= t0 + 2T of a grid of 16 times:

        |Phi(t, s)| <= exp(pi_plus(t) - pi_plus(s))
        |Phi(s, t)| <= exp(pi_minus(t) - pi_minus(s))

    Transitions between pairs are products of grid segments, each two period
    segments (_spans), never inverses of an ill-conditioned product, so the
    comparison stays sharp even for strongly stable systems.  The return
    value is positive when some pair violates a bound; for a correct
    implementation it is pure numerical noise, orders of magnitude below 1e-6.

    The backward flow of a stiff system grows fast.  A pair whose product
    exceeds sqrt(TOL.overflow), where the two-norm's Gram product could
    overflow, is checked by the sum of its grid segments' log norms instead:
    norms are submultiplicative, so that sum bounds the pair's log norm, and
    it meets the pair's bound whenever every segment meets its own.  Each
    grid segment's norm comes from period segments scaled by powers of two,
    since a segment can pass sqrt(TOL.overflow) itself.  A period segment
    past the overflow cap cannot be checked in floating point: that
    BlowupError propagates when some grid segment's bound allows such
    growth, and the result is inf (a violation) when none does.
    """
    ts = np.linspace(sys.t0, sys.t0 + 2.0 * sys.period, 16)
    pp, pm = periodic.pi_integral(sys, kind, ts)[0].T
    stacks = [_period_segments(sys, forward, TOL) for forward in (True, False)]
    if blown := [got for got in stacks if isinstance(got, BlowupError)]:
        if max(np.diff(pp).max(), np.diff(pm).max()) < math.log(TOL.overflow):
            return math.inf
        raise blown[0]
    segs = np.stack([tm.value for tm in stacks])
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the largest float is not finite
        F, i, j = _pair_products(_spans(segs[0], True, 2), forward=True)
        B = _pair_products(_spans(segs[1], False, 2), forward=False)[0]
    P = np.concatenate((F, B))
    # grid segments of period segments scaled to a largest entry in [0.5, 1) stay finite
    e = np.frexp(np.abs(segs).max(axis=(-2, -1)))[1]
    scaled = np.ldexp(segs, -e[..., None, None])
    seg_logs = (np.log(linalg.mat_norm(np.stack((_spans(scaled[0], True, 2), _spans(scaled[1], False, 2))), kind))
                + np.tile(e, 2).reshape(2, 15, 2).sum(axis=-1) * math.log(2.0))
    cum = np.concatenate((np.zeros((2, 1)), np.cumsum(seg_logs, axis=1)), axis=1)
    logs = (cum[:, j] - cum[:, i]).ravel()
    exact = np.abs(P).max(axis=(-2, -1)) <= math.sqrt(TOL.overflow)  # NaN fails too
    logs[exact] = np.log(linalg.mat_norm(P[exact], kind))
    return float(np.expm1(logs - np.concatenate((pp[j] - pp[i], pm[j] - pm[i]))).max())


class DecayCheck(NamedTuple):
    passed: bool
    worst_margin: float
    allowance: float
    pairs: int
    state_checks: int


def verify_decay(sys: SystemDef, verdict: periodic.Verdict) -> DecayCheck:
    """Spot-check the decay envelope promised by a stable verdict.

    For every ordered grid pair (s, t) with t0 <= s <= t <= t0 + 3T the
    envelope |Phi(t, s)| <= K exp(-alpha (t - s)) is tested via products of
    grid segments, each three forward period segments (_spans).  On top of
    that, the two-sided solution envelope

        |x0| exp(-lambda_minus (t - t0) - delta_upper_minus)
          <= |x(t)| <= |x0| exp(lambda_plus (t - t0) + delta_upper_plus)

    is checked at the grid times for eight random initial states drawn from
    a fixed seed.  worst_margin is the smallest log-scale slack seen
    anywhere; the check passes when it stays above -allowance.
    """
    if verdict.classification not in ("UES", "US"):
        raise ValueError(f"decay envelope only exists for stable verdicts, got {verdict.classification!r}")
    kind, rates, t0, log_k = verdict.kind, verdict.rates, sys.t0, math.log(verdict.K)
    ts = np.linspace(t0, t0 + 3.0 * sys.period, 16)
    if isinstance(period := _period_segments(sys, True, TOL), BlowupError):
        raise period
    # each period segment's relative error once per use; a running sum, as np.sum pairs terms
    rel = 3.0 * float(np.cumsum(period.error_estimate / (1.0 + np.abs(period.value).max(axis=(1, 2))))[-1])
    P, i, j = _pair_products(_spans(period.value, True, 3), forward=True)
    worst = float((log_k - verdict.alpha_tilde * (ts[j] - ts[i]) - np.log(linalg.mat_norm(P, kind))).min())
    # |Phi(t_j, t0) x0| at every grid time, Phi(t0, t0) = I included, for eight seeded x0
    rng = random.Random(20260814)
    x0 = np.array([[rng.gauss(0.0, 1.0) for _ in range(sys.n)] for _ in range(8)])[:, None, :, None]
    from_start = np.concatenate((np.eye(sys.n)[None], P[i == 0]))
    norms = linalg.vec_norm((from_start @ x0)[..., 0], kind)
    log_x = np.log(norms[norms[:, 0] >= 1e-6])
    up = log_x[:, :1] + rates.lambda_plus * (ts - t0) + rates.delta_upper_plus
    lo = log_x[:, :1] - rates.lambda_minus * (ts - t0) - rates.delta_upper_minus
    worst = float(np.minimum(up - log_x, log_x - lo)[:, 1:].min(initial=worst))
    allowance = TOL.decay_slack + math.log1p(rel) + rel
    return DecayCheck(worst >= -allowance, worst, allowance, len(P), log_x[:, 1:].size)
