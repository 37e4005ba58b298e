"""Forced trajectories x' = A(t) x + d(t) and disturbance diagnostics.

The simulator is fixed-step RK4 with whole-trajectory step doubling, the
transition kernel on an augmented field (_rk4_pass).  By default it audits
itself: at three seeded sample times the state is recomputed through the
variation-of-constants form

    x(t) = Phi(t, t0) x0 + integral of Phi(t, s) d(s) ds over [t0, t]

by Simpson panels (_voc_states) whose transitions come from
transition.integrate_transitions, so the audit shares the RK4 kernel with
the stepper but not how d enters it.  A disagreement beyond the tolerance
raises, since it means at least one of the two routes cannot be trusted.
"""

import math
import random
from functools import cached_property, partial
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from .config import TOL
from .errors import ConvergenceError, InputError, NumericError
from .expr import EvalError, Expression, Num, ParseError, evaluate, parse, plan, to_string
from .linalg import NormKind, _two_norm, vec_norm
from .lognorm import TWO
from .periodic import SystemDef, integrate
from .transition import _node_rates, _per_block, _prefix_products, _rk4_matrix, _too_coarse, integrate_transitions


# n x n matrices an audit panel holds: its two transitions with integrate_transitions'
# working copies of them, its affine map and the prefix scan's
_PANEL_MATRICES = 24
# |x| past which a state counts as overflowed, below the largest float so that a state
# driven by a forcing such as exp(t), which fails to evaluate past t = 709.8, is seen to
# overflow at a sample before the interval where the forcing fails (the
# overflow-before-range-error cases of tests/test_perturb.py's _rk4_pass tests)
_STATE_CAP = 1e300


class _Entries(NamedTuple):
    entries: tuple[Expression, ...]


class Disturbance(_Entries):
    """A vector of time expressions added to the right-hand side, planned
    once as a vector and once per entry."""

    def __new__(cls, entries: tuple[Expression, ...]):
        if len(entries) == 0:
            raise InputError("disturbance has no entries")
        return super().__new__(cls, entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def zero(cls, n: int) -> "Disturbance":
        return cls(tuple(Num(0.0) for _ in range(n)))

    @cached_property
    def _plan(self):
        return plan(self.entries)

    @cached_property
    def _entry_plans(self):
        return tuple(plan((e,)) for e in self.entries)

    def vector(self, t) -> np.ndarray:
        """d(t) for a float t; for an array of times shape t.shape + (n,)."""
        return evaluate(self._plan, t)

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


class Trajectory(NamedTuple):
    """Sampled forced trajectory with integration and audit metadata.

    error_estimate is the largest sample difference between the last two
    step-doubling passes divided by 15; check_error is the worst relative
    disagreement with the variation-of-constants recomputation (None when
    the audit was skipped).  A state past _STATE_CAP with substeps that
    resolve A does not raise: the trajectory is truncated before it (to x0
    alone on the first interval) and flagged through overflowed / t_overflow,
    since unbounded growth is a finding about the system, not a failure.
    """

    times: np.ndarray
    states: np.ndarray
    steps_per_interval: int
    error_estimate: float
    check_error: float | None
    overflowed: bool = False
    t_overflow: float | None = None


def _rk4_pass(sys: SystemDef, d: Disturbance, x0: np.ndarray, ts: np.ndarray,
              m: int) -> tuple[np.ndarray, int | None]:
    """One fixed-substep sweep.  Returns (states, blow_index): samples from
    blow_index on are invalid because the state passed _STATE_CAP.

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
    stop, error, maps = len(ts) - 1, None, np.empty((0, sys.n + 1, sys.n + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # the cap check below catches inf and NaN
        while stop:
            try:
                maps = _rk4_matrix(field, ts[:stop], ts[1:stop + 1], m)
                break
            except EvalError as exc:  # blocks are chunk-major, so an earlier interval may fail too
                stop, error = min(stop - 1, int(np.searchsorted(ts, exc.t, side="right")) - 1), exc
        M, c = maps[:stop, :-1, :-1], maps[:stop, :-1, -1]
        for i in range(stop):
            states[i + 1] = M[i] @ states[i] + c[i]
        # the first state past the cap, inf and NaN from a diverged interval's map included
        blown = ~(np.abs(states[1:stop + 1]).max(axis=1) <= _STATE_CAP)
        if blown.any():
            return states, int(blown.argmax()) + 1
    if error is not None:
        # the failing interval's stages in a per-substep sweep's order, A before d
        h = (ts[stop + 1] - ts[stop]) / m
        t = ts[stop] + np.arange(m) * h
        entries = tuple(e for row in sys.entries for e in row) + d.entries
        evaluate(entries, np.stack((t + 0.5 * h, t, t + h), axis=-1))
        raise error
    return states, None


def _panel_counts(sys: SystemDef, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Panels for each sample interval [a[i], b[i]], and the rate they were
    sized by: finer than period/128 and than 1/8 over the largest
    |A(t)|_inf on the interval's Simpson nodes, the ends and midpoints of
    its panels.  A count grows until the nodes of its own panels confirm
    it, so a stiff stretch inside an interval with mild ends is seen once a
    node of the period/256 grid lands in it."""
    span = b - a
    q = np.maximum(1, np.ceil(128.0 * span / sys.period)).astype(np.int64)
    rate = np.zeros(a.size)
    todo = np.arange(a.size)
    while todo.size:
        rate[todo] = np.maximum(rate[todo], _node_rates(sys, a[todo], b[todo], q[todo]))
        grown = np.maximum(q, np.ceil(8.0 * span * rate)).astype(np.int64)
        todo = np.flatnonzero(grown > q)
        q = grown
    return q, rate


def _voc_states(sys: SystemDef, d: Disturbance, x0: np.ndarray, ts: np.ndarray,
                check_idx: Sequence[int]) -> list[np.ndarray]:
    """x(ts[i]) for each i in check_idx by the variation-of-constants form,
    with Simpson weights on panels.

    Each sample interval is split into panels by _panel_counts, since
    Simpson needs Phi(t, s) smooth across a panel.  Each panel carries the
    transitions over its two halves from integrate_transitions, to 1e-9
    and from a start count set by the panel's h |A|.  Panels go in blocks of
    bounded bytes, in time order.  A panel is the affine map
    x(pa) -> Phi(pb, pa) x(pa) + its Simpson term carried to pb; a block
    composes its maps, as (n + 1) x (n + 1) matrices, by
    transition._prefix_products, whose partial products give x at every panel
    end: the audited samples read it off, and the block's last carries it
    on."""
    n = sys.n
    i_max = max(check_idx)
    a, b = ts[:i_max], ts[1:i_max + 1]
    q, rate = _panel_counts(sys, a, b)
    # a panel has h |A| <= 1/8, so a half starts at 1 or 2 steps of at most 1/32: one step
    # of 1/16 misses the 1e-9 agreement on a mode that decays at the rate |A|
    start = np.maximum(1, np.ceil(16.0 * (b - a) / q * rate)).astype(np.int64)
    ends = np.cumsum(q)  # the panel index that ends each interval
    per_block = _per_block(n, _PANEL_MATRICES)
    reads = np.array([ends[i - 1] - 1 for i in check_idx])  # the last panel before each audited sample
    x, found = np.append(np.asarray(x0, dtype=float), 1.0), np.empty((len(check_idx), n))
    for p0 in range(0, int(ends[-1]), per_block):
        k = np.arange(p0, min(p0 + per_block, int(ends[-1])))
        i = np.searchsorted(ends, k, side="right")  # each panel's interval
        pos, span = k - (ends[i] - q[i]), b[i] - a[i]
        pa, pb = a[i] + span * pos / q[i], a[i] + span * (pos + 1) / q[i]
        pm = 0.5 * (pa + pb)
        halves = integrate_transitions(sys, np.stack((pa, pm), axis=1).ravel(), np.stack((pm, pb), axis=1).ravel(),
                                       tol=1e-9, start_steps=np.repeat(start[i], 2)).value.reshape(-1, 2, n, n)
        second = halves[:, 1]
        dv = d.vector(np.stack((pa, pm, pb), axis=1))[..., None]
        G = np.zeros((1, k.size, n + 1, n + 1))
        G[0, :, :n, :n] = M = second @ halves[:, 0]
        G[0, :, :n, n] = ((pb - pa) / 6.0)[:, None] * (M @ dv[:, 0] + 4.0 * (second @ dv[:, 1]) + dv[:, 2])[..., 0]
        G[0, :, n, n] = 1.0
        _prefix_products(G)
        hit = (reads >= p0) & (reads < p0 + k.size)
        found[hit] = G[0, reads[hit] - p0, :n] @ x
        x = G[0, -1] @ x
    return list(found)


def simulate_perturbed(sys: SystemDef, d: Disturbance, x0, t_end: float,
                       samples: int = 256, cross_check: bool = True) -> Trajectory:
    """Integrate x' = A(t) x + d(t) from x(t0) = x0 up to t_end.

    The whole trajectory is recomputed with doubled substep counts until the
    sampled states settle to TOL.ode_tol; with cross_check=True three sample
    times drawn from a fixed seed are then audited against the
    variation-of-constants form, and a relative disagreement above 1e-5
    raises NumericError.  A pass whose state passes _STATE_CAP doubles its
    substeps while transition._too_coarse finds them too coarse for A on a
    sample interval up to the blown sample (a pass knows which sample blew,
    not which substep), until the step budget raises ConvergenceError, and
    is the system's growth otherwise: a truncated, overflowed trajectory.
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
    over_budget = f"trajectory did not settle within {TOL.ode_max_steps} total steps"
    if samples - 1 > TOL.ode_max_steps:  # one substep a sample is over it: fail before the grid is allocated
        raise ConvergenceError(over_budget)
    ts = np.linspace(sys.t0, t_end, samples)
    # capped where the step budget below is exceeded anyway: a huge span gives inf
    m = max(1, math.ceil(min(TOL.ode_start_steps * float(ts[1] - ts[0]) / sys.period, TOL.ode_max_steps + 1)))
    prev = None
    while True:
        if m * (samples - 1) > TOL.ode_max_steps:
            raise ConvergenceError(over_budget)
        cur, blow = _rk4_pass(sys, d, x0, ts, m)
        if blow is not None:
            # only believe an overflow once the substeps resolve the system on every stage
            # up to it: a stiff stretch may lie inside a sample interval, and RK4 may have
            # been driven off by one before the interval where the state passed the cap
            if _too_coarse(sys, ts[:blow], ts[1:blow + 1], np.full(blow, m)).any():
                m *= 2
                prev = None
                continue
            t_cut = ts[:blow].copy()
            s_cut = cur[:blow].copy()
            t_cut.flags.writeable = False
            s_cut.flags.writeable = False
            return Trajectory(t_cut, s_cut, m, float("inf"), None, True, float(ts[blow]))
        if prev is not None:
            diff = float(np.abs(cur - prev).max())
            if diff <= TOL.ode_tol * (1.0 + float(np.abs(cur).max())):
                break
        prev = cur
        m *= 2
    err = diff / 15.0
    check_error = None
    if cross_check:
        idx = sorted(random.Random(1729).sample(range(1, samples), min(3, samples - 1)))
        voc = _voc_states(sys, d, x0, ts, idx)
        check_error = 0.0
        for i, xv in zip(idx, voc):
            rel = float(np.abs(cur[i] - xv).max()) / (1.0 + float(np.abs(xv).max()))
            check_error = max(check_error, rel)
        if check_error > 1e-5:
            raise NumericError(
                f"stepper and variation-of-constants disagree: relative error {check_error:.3e}")
    ts.flags.writeable = False
    cur.flags.writeable = False
    return Trajectory(ts, cur, m, err, check_error)


class ConvergenceReport(NamedTuple):
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


class DriftReport(NamedTuple):
    """Windowed suprema of the running disturbance integral and the log
    slope of their tail."""

    sups: np.ndarray
    tail_log_slope: float


def windowed_drift(d: Disturbance, t_grid, window: float = 1.0) -> DriftReport:
    """sup over eta in [0, window] of |integral of d over [t, t + eta]|_2,
    for each grid time t.

    This is weaker than asking |d| itself to vanish: a persistent but ever
    faster oscillating disturbance integrates away to nothing, and it is
    the integral form whose decay transfers to the forced state of a
    uniformly exponentially stable system.  The sup is taken over an eta
    refinement with 64 subintervals, each integrated adaptively per
    component; tail_log_slope is the least squares slope of the log of
    the sups over the last third of the grid.
    """
    if window <= 0.0:
        raise ValueError("window must be positive")
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 3:
        raise ValueError("t_grid must be a 1-d grid with at least 3 points")
    edges = np.linspace(0.0, window, 65)
    lo = ts[:, None] + edges[None, :-1]
    hi = ts[:, None] + edges[None, 1:]
    # one quadrature call per component over every (t, eta) cell, summed along eta
    cells = np.concatenate([integrate(partial(evaluate, p), lo, hi)[0] for p in d._entry_plans], axis=-1)
    cum = np.cumsum(cells, axis=1)
    if not np.isfinite(cum).all():
        raise ValueError("running disturbance integral has non-finite entries")
    sups = _two_norm(cum).max(axis=1)
    third = max(2, ts.size // 3)
    logs = np.log(np.maximum(sups[-third:], 1e-300))
    # the least squares slope in closed form; np.polyfit would load LAPACK's solver for it
    dt = ts[-third:] - ts[-third:].mean()
    slope = float(dt @ (logs - logs.mean()) / (dt @ dt))
    return DriftReport(sups, slope)
