"""State transition matrices by fixed-step RK4 with step doubling: the
kernel that the monodromy oracle (floquet) and the forced stepper and its
audit (perturb) share.  On a linear field an RK4 step is a matrix, so
A(t) is read in blocks on the stage grid and each block's step matrices
are composed by log-depth prefix products (Blelloch 1990), never by a
Python loop over the steps.  The kernel only integrates; each pass is
judged once, as a whole, by integrate_transitions, against the previous
pass relative to its own largest entry and against the float range.
Every tolerance is read from this module's TOL.
"""

from typing import NamedTuple

import numpy as np

from . import linalg, lognorm
from .config import TOL
from .errors import BlowupError, ConvergenceError, NumericError
from .periodic import SystemDef


class TransitionMatrix(NamedTuple):
    """State transition matrices over the segments of integrate_transitions
    with integration metadata, each a read-only stack over the segments."""

    value: np.ndarray
    steps: np.ndarray
    error_estimate: np.ndarray


# a block's working set in bytes: its stage stack of A(t) and the temporaries that build
# and compose its step matrices, about _PER_STEP n x n matrices per step.  Large n
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
    Hairer and Wanner, Solving ODEs II), so an overflow with such a step is
    refined, not taken as the system's growth."""
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


def _rk4_matrix(sys: SystemDef, a: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
    """Phi(b[i], a[i]) by `steps` fixed RK4 steps for every segment of the
    1-d arrays a, b at once, as a (P, n, n) stack.

    Each segment's steps are cut into chunks of C = _chunk(n), and the
    (segment, chunk) pairs, chunk-major, into blocks sized by _per_block.  A
    block reads A(t) on its stage grid t_k, t_k + h/2, t_k + h with one
    sys.matrix call and builds all its step matrices M_k as one stack.
    Inside each chunk the prefix products Q_k = M_k ... M_first come from
    _prefix_products, and the chunk's last one carries Phi on, chunk by
    chunk in order.  The product tree depends only on the step count and n,
    so a segment comes out bit-identical whatever stack or block layout it
    is integrated in.

    Nothing is checked here: a pass that diverges comes back inf or NaN,
    and integrate_transitions judges it.  Only sys.n and sys.matrix are
    read, so the forced stepper in perturb can pass an augmented field (see
    perturb._rk4_pass).
    """
    h = (b - a) / steps
    n, segs = sys.n, a.size
    width = min(_chunk(n), steps)
    pairs = segs * -(-steps // width)
    per_block = max(1, _per_block(n, _PER_STEP) // width)
    Phi = np.tile(np.eye(n), (segs, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging pass may pass the largest float
        for p0 in range(0, pairs, per_block):
            chunk, seg = np.divmod(np.arange(p0, min(pairs, p0 + per_block)), segs)
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
            cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), seg.size]
            for lo, hi in zip(cuts, cuts[1:]):  # one run of segments per chunk index
                Phi[seg[lo:hi]] = ends[lo:hi] @ Phi[seg[lo:hi]]
    return Phi


def integrate_transitions(sys: SystemDef, t_from, t_to, tol: float | None = None,
                          start_steps=None) -> TransitionMatrix:
    """Phi(t_to[i], t_from[i]) for every pair of the 1-d sequences t_from and
    t_to, each by RK4 with step doubling, as one TransitionMatrix whose
    fields are read-only stacks over the segments: value (P, n, n) and
    steps, error_estimate (P,).

    Each segment starts from start_steps, an int or a (P,) array, or by
    default from a step count proportional to its span (between 8 and
    TOL.ode_start_steps), and doubles until a pass is accepted: one that
    agrees with the previous pass to tol times its own largest entry
    (Hairer, Norsett and Wanner, Solving ODEs I, II.4), and whose largest
    entry is finite and nonzero.  The returned error_estimate is that
    difference divided by 15, the usual fourth-order extrapolation factor.
    A pass that leaves the float range, inf or NaN, is never accepted: it
    doubles while _too_coarse finds its steps too coarse for A somewhere on
    its stage grid, where RK4 diverges on its own, until the step budget
    ends that as a ConvergenceError, and is the flow's growth, a
    BlowupError, once its steps resolve A.  An accepted pass that
    underflowed to zero everywhere has no spectrum to read and is a
    NumericError.  Backward spans integrate with a negative step and
    zero-length ones give the identity.

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
            spent = steps[live] * 2 > TOL.ode_max_steps
            for i in live[spent]:
                fail[i] = ConvergenceError(f"transition matrix over [{a[i]:g}, {b[i]:g}] did not "
                                           f"settle within {TOL.ode_max_steps} steps")
            live = live[~spent]
            steps[live] *= 2
        cur = np.empty((live.size, n, n))
        for s in set(steps[live].tolist()):  # (np.unique costs 1.5 MB of RSS on first use)
            grp = np.flatnonzero(steps[live] == s)
            cur[grp] = _rk4_matrix(sys, a[live[grp]], b[live[grp]], s)
        top = np.abs(cur).max(axis=(1, 2))
        over = ~np.isfinite(top)
        rest = ~over
        if over.any():
            rest[over] = _too_coarse(sys, a[live[over]], b[live[over]], steps[live[over]])
            for i in live[over & ~rest]:
                fail[i] = BlowupError(f"transition matrix over [{a[i]:g}, {b[i]:g}] passed the largest float")
        if not first:
            with np.errstate(invalid="ignore"):  # inf - inf after two blown passes
                diff = np.abs(cur - value[live]).max(axis=(1, 2))
            done = ~over & (diff <= tol * top)
            for i in live[done & (top == 0.0)]:
                fail[i] = NumericError(f"integrated transition matrix underflowed to zero over [{a[i]:g}, {b[i]:g}]")
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
    for field in (value, steps, err):
        field.flags.writeable = False
    return TransitionMatrix(value, steps, err)
