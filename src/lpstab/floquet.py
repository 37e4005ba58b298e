"""Monodromy oracle: integrate the system and compare the two routes.

Everything in this module is deliberately independent of the drift-integral
certificates in periodic.py: the two routes share only the evaluation of
A(t).  Its one RK4 integration is one period of transitions, 15 forward and
15 backward segments (period_segments), which cross_checks integrates once
and hands to every check.  Each segment is read divided by the power of
two of its largest entry, and every product keeps the sum of those
exponents, so nothing under- or overflows however far the flow grows or
contracts.  The monodromy is the product of the 15 forward segments, and
its spectrum comes from LAPACK.  The verify_* functions, pure functions of
the stacks they are given, confront the two routes: characteristic-exponent
strip membership, the exponential sandwich on |transition| over time, and
the decay envelope promised by a stable verdict, UES or US.  As Phi(t + T,
s + T) = Phi(t, s), they read one grid, t0 + k T/15, its segments the
period stacks tiled: the sandwich over 2T, 465 pairs each way, and the
decay check over 3T, 1,035 pairs.  cross_checks makes every decision of
the oracle for analyze, a stack outside the float range included, and
builds each verdict's record and failure messages.
Agreement here is evidence; disagreement beyond the stated allowances is a
bug in one of the routes and raises no exception, it just comes back as a
failed check.
"""

import math
import random
from typing import NamedTuple

import numpy as np

from . import linalg, periodic, transition
from .config import TOL
from .errors import BlowupError, UnderflowError
from .linalg import NormKind
from .lognorm import TWO
from .periodic import SystemDef
from .transition import TransitionMatrix

# segments per period of the oracle's grid t0 + k T/15
_SEGMENTS = 15
_STABLE = ("UES", "US")  # the verdicts that promise a decay envelope


class FceEstimate(NamedTuple):
    """Monodromy spectrum: the monodromy M = Phi(t0 + T, t0) as the product
    of the 15 forward period segments, each divided by the power of two of
    its largest entry, and the product too after each segment, so that M =
    monodromy * 2**scale with no entry's loss to under- or overflow beyond
    its round-off relative to the largest; the multipliers rho of
    monodromy, so each of M's is 2**scale rho; and the characteristic
    exponent real parts (log|rho| + scale log 2) / T, ascending.  steps is
    the segments' step sum and error_estimate the first-order bound on the
    product's error, sum_j err_j / |Phi_j| times the product of the scaled
    segments' two norms, on the scale of monodromy (inf where that passes
    the largest float).

    A multiplier below floor = TOL.multiplier_floor * max|monodromy| is
    round-off of the eigensolver, not a resolved value.  Each such one
    gives the upper bound (log(floor) + scale log 2) / T in place of its
    exponent; these are the first `unresolved` entries of real_parts."""

    multipliers: tuple[complex, ...]
    real_parts: tuple[float, ...]
    monodromy: np.ndarray
    steps: int
    error_estimate: float
    floor: float
    unresolved: int
    scale: int


def monodromy_fce(sys: SystemDef, period: TransitionMatrix) -> FceEstimate:
    """Characteristic multipliers and exponent real parts over one period,
    from period, the forward stack of period_segments.  However far the flow
    grows or contracts, the scaled product keeps its exponents finite."""
    segs, exps = _grid_segments(period.value, 1)
    # the running product, divided by the power of two of its largest entry after each
    # segment: a flow whose segments' largest entries grow far faster than the product,
    # as a strongly non-normal one's do, would otherwise underflow to zero
    M, scale = np.eye(sys.n), 0
    for seg, e in zip(segs, exps.tolist()):
        M = seg @ M
        k = math.frexp(float(np.abs(M).max()))[1]
        M, scale = np.ldexp(M, -k), scale + e + k
    mult = linalg.gen_eigs(M)
    floor = TOL.multiplier_floor * float(np.abs(M).max())
    mods = [abs(z) for z in mult]
    logs = sorted(math.log(max(m, floor)) + scale * math.log(2.0) for m in mods)
    rel = _relative_error(period)
    with np.errstate(over="ignore"):  # a bound past the largest float reads inf
        err = float(np.ldexp(rel * float(np.prod(linalg.mat_norm(segs, TWO))), int(exps.sum()) - scale))
    return FceEstimate(tuple(mult), tuple(v / sys.period for v in logs), M, int(period.steps.sum()), err, floor,
                       sum(m < floor for m in mods), scale)


# ------------------------------------------------------------- cross-checks

def period_segments(sys: SystemDef, forward: bool) -> TransitionMatrix:
    """Transitions over the 15 segments of t0 + k T/15, forward or backward:
    the oracle's only RK4 integration.  integrate_transitions' errors
    propagate, a BlowupError for a segment outside the float range too."""
    ts = np.linspace(sys.t0, sys.t0 + sys.period, _SEGMENTS + 1)
    a, b = (ts[:-1], ts[1:]) if forward else (ts[1:], ts[:-1])
    return transition.integrate_transitions(sys, a, b)


def _relative_error(period: TransitionMatrix) -> float:
    """The period segments' error estimates summed, each relative to its own
    largest entry, the scale on which integrate_transitions accepts it."""
    return float(np.sum(period.error_estimate / np.abs(period.value).max(axis=(1, 2))))


def _grid_segments(period: np.ndarray, tiles: int):
    """Transitions over the segments of the grid t0 + k T/15 across `tiles`
    periods, each as a matrix times 2 to an int exponent: as Phi(t + T, s +
    T) = Phi(t, s), a period_segments stack tiled, each segment divided by
    the power of two of its largest entry, which is exact.  A product of up
    to 45 such segments stays below n^45, however far the flow grows or
    contracts.  Returns the segments and the exponents."""
    e = np.frexp(np.abs(period).max(axis=(1, 2)))[1]
    return np.tile(np.ldexp(period, -e[:, None, None]), (tiles, 1, 1)), np.tile(e, tiles)


def _pair_products(segs: np.ndarray, exps: np.ndarray, forward: bool):
    """Products of the (m, n, n) stack of consecutive grid segments of
    _grid_segments over every grid pair i < j, as a stack ordered by j - i and
    then by i, with the log of the power of two that scales each back to its
    transition, and the index arrays i and j.  Forward products multiply on
    the left, segs[j-1] ... segs[i], backward ones on the right; each starts
    from the identity and takes one stacked matmul per distance j - i, so it
    is bit-identical to accumulating it one pair at a time."""
    m = len(segs)
    P = np.broadcast_to(np.eye(segs.shape[-1]), segs.shape)
    out = []
    for d in range(1, m + 1):
        P = segs[d - 1:] @ P[:m - d + 1] if forward else P[:m - d + 1] @ segs[d - 1:]
        out.append(P)
    i = np.concatenate([np.arange(m - d + 1) for d in range(1, m + 1)])
    j = i + np.repeat(np.arange(1, m + 1), np.arange(m, 0, -1))
    cum = np.concatenate(([0], np.cumsum(exps)))
    return np.concatenate(out), (cum[j] - cum[i]) * math.log(2.0), i, j


class StripCheck(NamedTuple):
    passed: bool
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
    eps_mult = len(fce.multipliers) * fce.error_estimate / min_mod
    allowance = TOL.strip_slack + rates.quadrature_error / rates.period + math.log1p(eps_mult) / rates.period
    # an unresolved exponent is only an upper bound: below the strip it puts the true
    # exponent below it too, above the strip it says nothing
    worst = max(lower - rp if k < fce.unresolved else max(lower - rp, rp - upper)
                for k, rp in enumerate(fce.real_parts))
    return StripCheck(worst <= allowance, worst, allowance)


def _log(norms: np.ndarray) -> np.ndarray:
    """Logs of norms, -inf without numpy's warning for an exact zero, which
    meets every upper bound and no lower one."""
    with np.errstate(divide="ignore"):
        return np.log(norms)


def verify_sandwich(sys: SystemDef, kind: NormKind, forward: TransitionMatrix, backward: TransitionMatrix) -> float:
    """Largest relative violation of the two-sided transition bound on the
    465 pairs t0 <= s < t <= t0 + 2T of the grid t0 + k T/15, 31 times:

        |Phi(t, s)| <= exp(pi_plus(t) - pi_plus(s))
        |Phi(s, t)| <= exp(pi_minus(t) - pi_minus(s))

    Transitions between pairs are products of grid segments, the forward or
    backward stack of period_segments tiled twice (_grid_segments), never
    inverses of an ill-conditioned product, so the comparison stays sharp
    even for strongly stable systems.  The return value is positive when
    some pair violates a bound; for a correct implementation it is pure
    numerical noise, orders of magnitude below 1e-6.

    Each pair's log norm is the log of its scaled product's norm plus its
    power of two, so a transition past the largest float, as a stiff
    system's backward flow, or below the smallest is checked like any other.
    """
    ts = np.linspace(sys.t0, sys.t0 + 2.0 * sys.period, 2 * _SEGMENTS + 1)
    pp, pm = periodic.pi_integral(sys, kind, ts)[0].T
    F, f_shift, i, j = _pair_products(*_grid_segments(forward.value, 2), forward=True)
    B, b_shift = _pair_products(*_grid_segments(backward.value, 2), forward=False)[:2]
    logs = _log(linalg.mat_norm(np.concatenate((F, B)), kind)) + np.concatenate((f_shift, b_shift))
    return float(np.expm1(logs - np.concatenate((pp[j] - pp[i], pm[j] - pm[i]))).max())


class DecayCheck(NamedTuple):
    passed: bool
    worst_margin: float
    allowance: float
    pairs: int
    state_checks: int


def verify_decay(sys: SystemDef, verdict: periodic.Verdict, period: TransitionMatrix) -> DecayCheck:
    """Spot-check the decay envelope promised by a stable verdict.

    For the 1,035 pairs t0 <= s < t <= t0 + 3T of the grid t0 + k T/15, 46
    times, the envelope |Phi(t, s)| <= K exp(-alpha (t - s)) is tested via
    products of grid segments, period, the forward stack of period_segments,
    tiled three times (_grid_segments).  On top of that, the two-sided
    solution envelope

        |x0| exp(-lambda_minus (t - t0) - delta_upper_minus)
          <= |x(t)| <= |x0| exp(lambda_plus (t - t0) + delta_upper_plus)

    is checked at the grid times for eight random initial states drawn from
    a fixed seed.  worst_margin is the smallest log-scale slack seen
    anywhere; the check passes when it stays above -allowance.
    """
    if verdict.classification not in _STABLE:
        raise ValueError(f"decay envelope only exists for stable verdicts, got {verdict.classification!r}")
    kind, rates, t0 = verdict.kind, verdict.rates, sys.t0
    log_k = rates.delta_upper_plus - rates.delta_lower_plus  # K itself may be inf
    ts = np.linspace(t0, t0 + 3.0 * sys.period, 3 * _SEGMENTS + 1)
    rel = 3.0 * _relative_error(period)  # each period segment once per use
    P, shift, i, j = _pair_products(*_grid_segments(period.value, 3), forward=True)
    worst = float((log_k - verdict.alpha_tilde * (ts[j] - ts[i]) - (_log(linalg.mat_norm(P, kind)) + shift)).min())
    # |Phi(t_j, t0) x0| at every grid time, Phi(t0, t0) = I included, for eight seeded x0
    rng = random.Random(20260814)
    x0 = np.array([[rng.gauss(0.0, 1.0) for _ in range(sys.n)] for _ in range(8)])[:, None, :, None]
    from_start = np.concatenate((np.eye(sys.n)[None], P[i == 0]))
    norms = linalg.vec_norm((from_start @ x0)[..., 0], kind)
    log_x = _log(norms[norms[:, 0] >= 1e-6]) + np.concatenate(([0.0], shift[i == 0]))
    up = log_x[:, :1] + rates.lambda_plus * (ts - t0) + rates.delta_upper_plus
    lo = log_x[:, :1] - rates.lambda_minus * (ts - t0) - rates.delta_upper_minus
    worst = float(np.minimum(up - log_x, log_x - lo)[:, 1:].min(initial=worst))
    allowance = TOL.decay_slack + math.log1p(rel) + rel
    return DecayCheck(worst >= -allowance, worst, allowance, len(P), log_x[:, 1:].size)


def _unscaled(x, scale: int):
    """x * 2**scale as floats, as the oracle reports its monodromy figures: inf past the largest one."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, scale).tolist()


# logs of the largest float and of 1 over the smallest normal one: how far a stack may go
_LOG_RANGE = {BlowupError: math.log(np.finfo(float).max), UnderflowError: -math.log(np.finfo(float).tiny)}


def cross_checks(sys: SystemDef, verdicts) -> list[tuple[dict, list[str]]]:
    """The oracle's record of each verdict of sys, as `analyze --json` prints
    it, with the verdict's failure messages, each led by its norm's tag.

    The two period stacks and one monodromy, its figures scaled back to M,
    serve every verdict.  A stack outside the float range, a BlowupError, is
    not checked.  A forward one leaves no monodromy: its keys are left out,
    and the strip and decay checks read null, each with a "not checked" note
    in partially_resolved.  The sandwich then reads null with such a note
    where the stack's own drift bound over some period segment reaches
    _LOG_RANGE, on growth (pi_plus forward, pi_minus backward) past the
    largest float and on decay (pi_minus forward, pi_plus backward) to zero
    (UnderflowError), and inf, a violation, where none does; otherwise it
    passes at TOL.sandwich_slack.  Every stable verdict, UES or US, gets the
    decay check.  partially_resolved appears only with a note."""
    stacks, blown = {}, {}
    for forward in (True, False):
        try:
            stacks[forward] = period_segments(sys, forward)
        except BlowupError as exc:  # outside the float range: judged against its drift bound below
            blown[forward] = exc
    fce = monodromy_fce(sys, stacks[True]) if True in stacks else None
    shared, notes = {}, []
    if fce is None:
        notes.append(f"exponent strip not checked: {blown[True]}")
    else:
        shared = {"multipliers": _unscaled([[z.real, z.imag] for z in fce.multipliers], fce.scale),
                  "fce_real_parts": list(fce.real_parts), "monodromy_steps": fce.steps,
                  "monodromy_error": _unscaled(fce.error_estimate, fce.scale)}
        if fce.unresolved:
            shared.update(unresolved_exponents=fce.unresolved, multiplier_floor=_unscaled(fce.floor, fce.scale))
            notes.append(f"{fce.unresolved} multiplier(s) below the round-off floor "
                         f"{shared['multiplier_floor']:.3e}, exponent(s) given as upper bounds")
    out = []
    for verdict in verdicts:
        name, stable, unresolved, failures = verdict.kind.tag, verdict.classification in _STABLE, list(notes), []
        strip = verify_strip(verdict.rates, fce) if fce else None
        violation = math.inf if blown else verify_sandwich(sys, verdict.kind, stacks[True], stacks[False])
        if blown:  # pi_plus bounds growth forward and decay backward, pi_minus the other two
            grid = np.linspace(sys.t0, sys.t0 + sys.period, _SEGMENTS + 1)
            rises = np.diff(periodic.pi_integral(sys, verdict.kind, grid)[0], axis=0).max(axis=0)
            if all(rises[int(forward == isinstance(exc, UnderflowError))] >= _LOG_RANGE[type(exc)]
                   for forward, exc in blown.items()):
                violation = None
                unresolved.append(f"transition bound not checked: {next(iter(blown.values()))}")
        passed = None if violation is None else violation <= TOL.sandwich_slack
        decay = verify_decay(sys, verdict, stacks[True]) if stable and fce else None
        if stable and not fce:
            unresolved.append(f"decay envelope not checked: {blown[True]}")
        if decay and not decay.passed:
            failures.append(f"{name}: decay envelope violated by {-decay.worst_margin:.3e}")
        if strip and not strip.passed:
            failures.append(f"{name}: exponent strip violated by {strip.worst_violation:.3e}")
        if passed is False:
            failures.append(f"{name}: transition bound violated by {violation:.3e}")
        doc = {**shared, "strip_check": strip._asdict() if strip else None,
               "sandwich_violation": violation, "sandwich_passed": passed,
               "decay": decay._asdict() if decay else None if stable else "skipped: verdict not stable"}
        if unresolved:
            doc["partially_resolved"] = unresolved
        out.append((doc, failures))
    return out
