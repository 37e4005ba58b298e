"""Forced trajectories x' = A(t) x + d(t) and disturbance diagnostics.

The simulator is fixed-step RK4 with whole-trajectory step doubling: the
transition kernel floquet._rk4_matrix on the augmented field
[[A(t), d(t)], [0, 0]].  By default it audits itself: at a few randomly
chosen sample times the state is recomputed through the
variation-of-constants form

    x(t) = Phi(t, t0) x0 + integral of Phi(t, s) d(s) ds over [t0, t]

by Simpson weights on panels finer than period/128 and than
1 / (8 max |A(t)|_inf).  The panel transitions come from one batched
floquet.integrate_transitions call, so the audit shares the RK4 kernel
with the stepper but not how d enters it.  A disagreement beyond the
tolerance raises, since it means at least one of the two routes cannot be
trusted.

windowed_drift summarizes a disturbance by the windowed supremum of its
running integral, which is the quantity whose decay transfers to the
perturbed state when the unforced system is uniformly exponentially stable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .config import TOL
from .errors import BlowupError, ConvergenceError, InputError, NumericError
from .expr import EvalError, Expression, Num, ParseError, evaluate, parse, to_string
from .floquet import _rk4_matrix, _too_coarse, integrate_transitions
from .linalg import NormKind, _two_norm, mat_norm, vec_norm
from .lognorm import INF, TWO
from .periodic import SystemDef, integrate


@dataclass(frozen=True)
class Disturbance:
    """A vector of time expressions added to the right-hand side."""

    entries: tuple[Expression, ...]

    def __post_init__(self):
        if len(self.entries) == 0:
            raise InputError("disturbance has no entries")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def zero(cls, n: int) -> "Disturbance":
        return cls(tuple(Num(0.0) for _ in range(n)))

    def vector(self, t) -> np.ndarray:
        """d(t) for a float t; for an array of times shape t.shape + (n,)."""
        return evaluate(self.entries, t)

    def as_strings(self) -> tuple[str, ...]:
        return tuple(to_string(e) for e in self.entries)


def disturbance_from_strings(items: Sequence[str]) -> Disturbance:
    parsed = []
    for i, text in enumerate(items):
        try:
            parsed.append(parse(text))
        except ParseError as exc:
            raise InputError(f"disturbance entry {i + 1}: {exc}") from exc
    return Disturbance(tuple(parsed))


@dataclass(frozen=True)
class Trajectory:
    """Sampled forced trajectory with integration and audit metadata.

    error_estimate is the largest sample difference between the last two
    step-doubling passes divided by 15; check_error is the worst relative
    disagreement with the variation-of-constants recomputation (None when
    the audit was skipped).  A state magnitude beyond the overflow cap does
    not raise: the trajectory is truncated at the last finite sample and
    flagged through overflowed / t_overflow, because unbounded growth is a
    legitimate finding about the system, not an integrator failure.
    """

    times: np.ndarray
    states: np.ndarray
    steps_per_interval: int
    error_estimate: float
    check_times: tuple[float, ...]
    check_error: float | None
    overflowed: bool = False
    t_overflow: float | None = None


def _rk4_pass(sys: SystemDef, d: Disturbance, x0: np.ndarray, ts: np.ndarray,
              m: int) -> tuple[np.ndarray, int | None]:
    """One fixed-substep sweep.  Returns (states, blow_index): samples from
    blow_index on are invalid because the state left the overflow cap.

    RK4 on z' = B z with z = (x, 1) and B(t) = [[A(t), d(t)], [0, 0]] is RK4
    on x' = A x + d, so one stacked _rk4_matrix call gives every sample
    interval's map [[M, c], [0, 1]], and x -> M x + c is applied in time
    order.  When A or d cannot be evaluated, the intervals before the failing
    one are still swept, so a state that overflows first is reported as an
    overflow; otherwise the earliest failing stage time raises."""
    def augmented(t):
        A = sys.matrix(t)
        B = np.zeros(A.shape[:-2] + (sys.n + 1, sys.n + 1))
        B[..., :-1, :-1] = A
        B[..., :-1, -1] = d.vector(t)
        return B

    field = SimpleNamespace(n=sys.n + 1, matrix=augmented)
    states = np.empty((len(ts), sys.n))
    states[0] = x0
    stop, error, maps = len(ts) - 1, None, None
    with np.errstate(over="ignore", invalid="ignore"):  # the cap checks below catch inf and NaN
        while stop:
            try:
                maps = _rk4_matrix(field, ts[:stop], ts[1:stop + 1], m)[0]
                break
            except EvalError as exc:  # blocks are chunk-major, so an earlier interval may fail too
                stop, error = min(stop - 1, int(np.searchsorted(ts, exc.t, side="right")) - 1), exc
        for i in range(stop):
            x = maps[i, :-1, :-1] @ states[i] + maps[i, :-1, -1]
            if not np.abs(x).max() <= TOL.overflow:  # a blown interval's map is NaN
                return states, i + 1
            states[i + 1] = x
    if error is not None:
        # the failing interval's stages in a per-substep sweep's order, A before d
        h = (ts[stop + 1] - ts[stop]) / m
        t = ts[stop] + np.arange(m) * h
        entries = tuple(e for row in sys.entries for e in row) + d.entries
        evaluate(entries, np.stack((t + 0.5 * h, t, t + h), axis=-1))
        raise error
    return states, None


def _voc_states(sys: SystemDef, d: Disturbance, x0: np.ndarray, ts: np.ndarray,
                check_idx: Sequence[int]) -> list[np.ndarray]:
    # shared panel grid: every sample interval split into panels finer than
    # period/128 and, for stiff systems, than 1/8 over the largest |A(t)|_inf
    # on the audited samples, since Simpson needs Phi(t, s) smooth across a
    # panel; each panel carries two half-span transitions, all from one
    # batched call, and d comes from one array call
    i_max = max(check_idx)
    a, b = ts[:i_max], ts[1:i_max + 1]
    rate = float(mat_norm(sys.matrix(ts[:i_max + 1]), INF).max())
    q = np.maximum(1, np.ceil(np.maximum(128.0 * (b - a) / sys.period, 8.0 * (b - a) * rate))).astype(int)
    pos = np.arange(q.sum()) - np.repeat(np.cumsum(q) - q, q)  # each panel's index in its interval
    a, span, q = np.repeat(a, q), np.repeat(b - a, q), np.repeat(q, q)
    pa, pb = a + span * pos / q, a + span * (pos + 1) / q
    pm = 0.5 * (pa + pb)
    halves = np.stack((pa, pm, pb), axis=1)
    V = integrate_transitions(sys, halves[:, :2].ravel(), halves[:, 1:].ravel(), tol=1e-9).value
    dv = d.vector(halves)
    out = []
    for idx in check_idx:
        t_c = float(ts[idx])
        last = int(np.searchsorted(pb, t_c - 1e-12, side="left"))
        R = np.eye(sys.n)
        total = np.zeros(sys.n)
        for k in range(last, -1, -1):
            first, second = V[2 * k], V[2 * k + 1]
            h = pb[k] - pa[k]
            phi_mid = R @ second
            phi_a = phi_mid @ first
            total += (h / 6.0) * (phi_a @ dv[k, 0] + 4.0 * (phi_mid @ dv[k, 1]) + R @ dv[k, 2])
            R = phi_a
        out.append(R @ x0 + total)
    return out


def simulate_perturbed(sys: SystemDef, d: Disturbance, x0, t_end: float,
                       samples: int = 256, cross_check: bool = True) -> Trajectory:
    """Integrate x' = A(t) x + d(t) from x(t0) = x0 up to t_end.

    The whole trajectory is recomputed with doubled substep counts until the
    sampled states settle to TOL.ode_tol; with cross_check=True three sample
    times drawn from a fixed seed are then audited against the
    variation-of-constants form, and a relative disagreement above 1e-5
    raises NumericError.  Genuine unbounded
    growth comes back as a truncated trajectory with overflowed=True.
    """
    if d.n != sys.n:
        raise ValueError(f"disturbance dimension {d.n} does not match system dimension {sys.n}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.n,):
        raise ValueError(f"x0 must have shape ({sys.n},), got {x0.shape}")
    if not math.isfinite(t_end) or t_end <= sys.t0:
        raise ValueError(f"t_end must exceed the initial time {sys.t0:g}")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    ts = np.linspace(sys.t0, t_end, samples)
    # capped where the step budget below is exceeded anyway: a huge span gives inf
    m = max(1, math.ceil(min(TOL.ode_start_steps * float(ts[1] - ts[0]) / sys.period, TOL.ode_max_steps + 1)))
    prev = None
    while True:
        if m * (samples - 1) > TOL.ode_max_steps:
            raise ConvergenceError(f"trajectory did not settle within {TOL.ode_max_steps} total steps")
        cur, blow = _rk4_pass(sys, d, x0, ts, m)
        if blow is not None:
            # only believe an overflow once the substep resolves the system
            h = (float(ts[blow]) - float(ts[blow - 1])) / m
            if _too_coarse(sys, h, float(ts[blow])) and 2 * m * (samples - 1) <= TOL.ode_max_steps:
                m *= 2
                prev = None
                continue
            if blow < 2:
                raise BlowupError(f"state exceeded {TOL.overflow:.1e} on the first sample interval",
                                  t_reached=float(ts[blow]))
            t_cut = ts[:blow].copy()
            s_cut = cur[:blow].copy()
            t_cut.flags.writeable = False
            s_cut.flags.writeable = False
            return Trajectory(t_cut, s_cut, m, float("inf"), (), None,
                              overflowed=True, t_overflow=float(ts[blow]))
        if prev is not None:
            diff = float(np.abs(cur - prev).max())
            if diff <= TOL.ode_tol * (1.0 + float(np.abs(cur).max())):
                break
        prev = cur
        m *= 2
    err = diff / 15.0
    check_times: tuple[float, ...] = ()
    check_error = None
    if cross_check:
        idx = sorted(random.Random(1729).sample(range(1, samples), min(3, samples - 1)))
        voc = _voc_states(sys, d, x0, ts, idx)
        check_error = 0.0
        for i, xv in zip(idx, voc):
            rel = float(np.abs(cur[i] - xv).max()) / (1.0 + float(np.abs(xv).max()))
            check_error = max(check_error, rel)
        check_times = tuple(float(ts[i]) for i in idx)
        if check_error > 1e-5:
            raise NumericError(
                f"stepper and variation-of-constants disagree: relative error {check_error:.3e}")
    ts.flags.writeable = False
    cur.flags.writeable = False
    return Trajectory(ts, cur, m, err, check_times, check_error)


@dataclass(frozen=True)
class ConvergenceReport:
    """Tail behaviour of a trajectory in a chosen norm."""

    tail_start: float
    tail_max_norm: float
    decreasing_tail: bool


def convergence_report(traj: Trajectory, kind: NormKind = TWO) -> ConvergenceReport:
    """Maximum norm over the last quarter of the samples, plus a coarse
    monotonicity check: block maxima over the last half must not increase."""
    if len(traj.times) < 16:
        raise ValueError("convergence report needs at least 16 trajectory samples")
    ns = vec_norm(traj.states, kind)
    q = len(ns) // 4
    tail = ns[-q:] if q > 0 else ns
    half = ns[len(ns) // 2:]
    blocks = np.array_split(half, 4)
    maxima = [float(b.max()) for b in blocks if len(b)]
    decreasing = all(maxima[i + 1] <= maxima[i] * (1.0 + 1e-9) for i in range(len(maxima) - 1))
    return ConvergenceReport(float(traj.times[len(ns) - len(tail)]), float(tail.max()), decreasing)


@dataclass(frozen=True)
class DriftReport:
    """Windowed suprema of the running disturbance integral and the log
    slope of their tail."""

    times: np.ndarray
    sups: np.ndarray
    window: float
    tail_log_slope: float


def windowed_drift(d: Disturbance, t_grid, window: float = 1.0,
                   eta_samples: int = 64) -> DriftReport:
    """sup over eta in [0, window] of |integral of d over [t, t + eta]|_2,
    for each grid time t.

    This is weaker than asking |d| itself to vanish: a persistent but ever
    faster oscillating disturbance integrates away to nothing, and it is
    the integral form whose decay transfers to the forced state of a
    uniformly exponentially stable system.  The sup is taken over an eta
    refinement with eta_samples subintervals, each integrated adaptively
    per component; tail_log_slope is the least squares slope of the log of
    the sups over the last third of the grid.
    """
    if window <= 0.0 or eta_samples < 8:
        raise ValueError("window must be positive and eta_samples at least 8")
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 3:
        raise ValueError("t_grid must be a 1-d grid with at least 3 points")
    edges = np.linspace(0.0, window, eta_samples + 1)
    lo = ts[:, None] + edges[None, :-1]
    hi = ts[:, None] + edges[None, 1:]
    # one quadrature call per component over every (t, eta) cell, summed along eta
    cells = np.stack([integrate(partial(evaluate, e), lo, hi)[0] for e in d.entries], axis=-1)
    cum = np.cumsum(cells, axis=1)
    if not np.isfinite(cum).all():
        raise ValueError("running disturbance integral has non-finite entries")
    sups = _two_norm(cum).max(axis=1)
    third = max(2, ts.size // 3)
    logs = np.log(np.maximum(sups[-third:], 1e-300))
    slope = float(np.polyfit(ts[-third:], logs, 1)[0])
    return DriftReport(ts, sups, window, slope)
