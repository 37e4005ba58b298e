"""Transition-matrix integrator and monodromy cross-checks.

Closed-form transitions from the catalog serve as the oracle for the RK4
route; the monodromy spectra are compared against exact multipliers where
those exist and against frozen high-accuracy values otherwise.
"""

import math
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import lpstab.floquet as floquet
import lpstab.lognorm as lognorm
from lpstab.catalog import CATALOG, lti_diag, rotating_frame, strong_coupling
from lpstab.config import TOL
from lpstab.errors import BlowupError, ConvergenceError, NumericError
from lpstab.floquet import (
    _rk4_matrix,
    integrate_transition,
    integrate_transitions,
    monodromy_fce,
    verify_decay,
    verify_sandwich,
    verify_strip,
)
from lpstab.linalg import mat_norm, vec_norm
from lpstab.lognorm import INF, ONE, TWO
from lpstab.periodic import classify, fce_strip, pi_integral, rate_summary, system_from_strings

KINDS = [ONE, TWO, INF]

# strong_coupling characteristic exponent real parts, integrated once at
# tol = 1e-11 and frozen; they must sum to the constant trace -26
SC_FCE = (-21.156228460523, -4.843771539477)


@pytest.mark.parametrize("beta", [0.5, 1.5])
@pytest.mark.parametrize("t", [math.pi / 4.0, math.pi / 2.0, 2.0 * math.pi])
def test_transition_matches_closed_form(beta, t):
    entry = rotating_frame(beta)
    got = integrate_transition(entry.system, 0.0, t).value
    ref = entry.transition(t, 0.0)
    assert np.abs(got - ref).max() <= 1e-6


def test_transition_backward_inverts_forward():
    entry = rotating_frame(0.5)
    fwd = integrate_transition(entry.system, 0.0, 1.3).value
    bwd = integrate_transition(entry.system, 1.3, 0.0).value
    assert np.abs(fwd @ bwd - np.eye(2)).max() <= 1e-6


def test_transition_identity_at_zero_span():
    tm = integrate_transition(lti_diag().system, 0.7, 0.7)
    assert np.array_equal(tm.value, np.eye(2))
    assert tm.steps == 0 and tm.error_estimate == 0.0


def test_cocycle_property():
    # Phi(c, a) = Phi(c, b) Phi(b, a), each factor integrated independently
    sysd = strong_coupling().system
    a, b, c = 0.0, 0.21, 0.47
    full = integrate_transition(sysd, a, c).value
    first = integrate_transition(sysd, a, b).value
    second = integrate_transition(sysd, b, c).value
    scale = max(1.0, float(np.abs(full).max()))
    assert np.abs(second @ first - full).max() <= 1e-7 * scale


def test_flow_periodicity():
    # A(t + T) = A(t) forces Phi(t0 + 2T, t0 + T) = Phi(t0 + T, t0)
    sysd = strong_coupling().system
    T = sysd.period
    one = integrate_transition(sysd, sysd.t0, sysd.t0 + T).value
    two = integrate_transition(sysd, sysd.t0 + T, sysd.t0 + 2.0 * T).value
    assert np.abs(one - two).max() <= 1e-7


def test_rk4_is_fourth_order():
    entry = rotating_frame(1.5)
    ref = entry.transition(1.0, 0.0)
    errs = []
    for steps in (32, 64, 128):
        got, _ = _rk4_one(entry.system, 0.0, 1.0, steps)
        errs.append(float(np.abs(got - ref).max()))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_transition_scalar_closed_form():
    entry = CATALOG["scalar_unstable"]()
    got = integrate_transition(entry.system, 0.0, 3.0).value
    assert got[0, 0] == pytest.approx(entry.transition(3.0, 0.0)[0, 0], rel=1e-7)


def test_monodromy_lti_diag():
    est = monodromy_fce(lti_diag().system)
    mags = sorted(abs(z) for z in est.multipliers)
    assert mags == pytest.approx([math.exp(-2.0), math.exp(-1.0)], rel=1e-8)
    assert sorted(est.real_parts) == pytest.approx([-2.0, -1.0], abs=1e-8)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 3.0])
def test_monodromy_rotating_frame(beta):
    # exact multipliers e^{2 pi (beta - 1)} and e^{-2 pi}
    est = monodromy_fce(rotating_frame(beta).system)
    mags = sorted(abs(z) for z in est.multipliers)
    want = sorted((math.exp(2.0 * math.pi * (beta - 1.0)), math.exp(-2.0 * math.pi)))
    assert mags == pytest.approx(want, rel=1e-6)
    assert sorted(est.real_parts) == pytest.approx(sorted((beta - 1.0, -1.0)), abs=1e-7)


def test_monodromy_strong_coupling_frozen():
    est = monodromy_fce(strong_coupling().system, tol=1e-11)
    assert sorted(est.real_parts) == pytest.approx(sorted(SC_FCE), abs=1e-9)
    assert sum(est.real_parts) == pytest.approx(-26.0, abs=1e-8)


def test_strip_reads_an_unresolved_exponent_as_an_upper_bound():
    # exp(-100 T) is far below eigvals' round-off on a monodromy of size exp(-T)
    sysd = system_from_strings([["-100+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
    fce = monodromy_fce(sysd)
    assert fce.unresolved == 1 and fce.floor == TOL.multiplier_floor * np.abs(fce.monodromy.value).max()
    assert fce.real_parts[0] == math.log(fce.floor) / sysd.period
    assert fce.real_parts[1] == pytest.approx(-1.0, abs=1e-9)
    rates = rate_summary(sysd, ONE)
    assert verify_strip(rates, fce).passed
    # above the strip a bound says nothing; below it, it puts the exponent there too
    above = fce._replace(real_parts=(5.0, fce.real_parts[1]))
    assert verify_strip(rates, above).passed
    below = verify_strip(rates, fce._replace(real_parts=(-200.0, fce.real_parts[1])))
    assert not below.passed and below.worst_violation == pytest.approx(100.0, abs=1e-6)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_strip_contains_exponents(name):
    # the drift strip must bracket the monodromy exponents in every norm
    sysd = CATALOG[name]().system
    fce = monodromy_fce(sysd)
    for kind in KINDS:
        chk = verify_strip(rate_summary(sysd, kind), fce)
        assert chk.passed, (name, kind.tag, chk)
        assert chk.worst_violation <= chk.allowance
        lo, hi = fce_strip(sysd, kind)
        assert (chk.lower, chk.upper) == (lo, hi)
        for r in chk.real_parts:
            assert lo - chk.allowance <= r <= hi + chk.allowance


@pytest.mark.parametrize("kind", [ONE, TWO], ids=lambda k: k.tag)  # inf sums rows as one sums columns
def test_sandwich_bounds_products_past_the_float_range(kind):
    # the backward flow of -100 grows like exp(100 (t - s)), past the largest float over
    # 2T; pairs past sqrt(TOL.overflow) are checked by the sum of their segments' log
    # norms, an upper bound on the log norm that power-of-two scaled products give here
    sysd = system_from_strings([["-100+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
    got = verify_sandwich(sysd, kind)
    ts = np.linspace(sysd.t0, sysd.t0 + 2.0 * sysd.period, 16)
    bsegs = _ref_check_segments(sysd, False, 2)
    pm = pi_integral(sysd, kind, -1, ts)[0]
    worst, top = -math.inf, 0.0
    for i in range(15):
        B, log_scale = np.eye(2), 0.0
        for j in range(i + 1, 16):
            B = B @ bsegs[j - 1]
            e = math.frexp(float(np.abs(B).max()))[1]
            B, log_scale = B * 2.0 ** -e, log_scale + e * math.log(2.0)
            top = max(top, log_scale)
            worst = max(worst, math.log(mat_norm(B, kind)) + log_scale - (pm[j] - pm[i]))
    assert top > math.log(TOL.overflow)
    assert math.expm1(worst) <= got + 1e-12 and got <= TOL.sandwich_slack


def test_sandwich_checks_grid_segments_past_the_float_range():
    # the backward flow of -1000 stays below the overflow cap over a T/15 period segment
    # and passes the largest float over a 2T/15 grid segment, whose norm then comes from
    # its period segments scaled by powers of two
    sysd = system_from_strings([["-1000+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(floquet._spans(floquet._period_segments(sysd, False, TOL).value, False, 2)).all()
    for kind in (ONE, TWO):
        assert verify_sandwich(sysd, kind) <= TOL.sandwich_slack


def test_sandwich_blowup_is_unchecked_only_where_the_bound_allows_it(monkeypatch):
    # the backward flow of -3000 passes the cap within a grid segment, as its drift
    # bound allows; against zero drift the same blow-up is a violation
    with pytest.raises(BlowupError):
        verify_sandwich(_STIFF, ONE)
    monkeypatch.setattr(floquet.periodic, "pi_integral", lambda sys, kind, sign, ts: (np.zeros(len(ts)), 0.0))
    assert verify_sandwich(_STIFF, ONE) == math.inf


@pytest.mark.parametrize("kind,norm", [(ONE, 2.0), (TWO, (1.0 + math.sqrt(5.0)) / 2.0)],
                         ids=["one", "two"])
def test_sandwich_checks_a_single_segment_past_the_gram_range(monkeypatch, kind, norm):
    # a stiff peak makes the last backward period segment 1e200 [[1, 1], [0, 1]]: past
    # sqrt(TOL.overflow), so its pairs take the segment sum, and past the range where
    # the two-norm's Gram product of the bare segment is finite.  Over 2T it lies in the
    # grid's segments 7 and 14; the drift bound across the first falls 0.5 short of its
    # log norm and the one across the second does not, so the violation is expm1(0.5)
    big = 1e200 * np.array([[1.0, 1.0], [0.0, 1.0]])
    fsegs = np.stack([np.eye(2)] * 15)
    bsegs = fsegs.copy()
    bsegs[14] = big
    ts = np.linspace(0.0, 2.0, 16)
    step = math.log(1e200 * norm) - 0.5
    monkeypatch.setattr(floquet, "_period_segments", lambda sys, forward, tol:
                        SimpleNamespace(value=fsegs if forward else bsegs))
    monkeypatch.setattr(floquet.periodic, "pi_integral", lambda sys, kind, sign, ts_:
                        (np.zeros(16) if sign == 1 else
                         np.where(ts > ts[7], step, 0.0) + np.where(ts > ts[14], step + 0.5, 0.0), 0.0))
    assert verify_sandwich(lti_diag().system, kind) == pytest.approx(math.expm1(0.5), rel=1e-9)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_sandwich_bounds_flow(name):
    # |Phi(t, s)| <= exp(Pi+(t) - Pi+(s)) and the reversed-field analogue;
    # the returned figure is the largest relative violation over grid pairs
    sysd = CATALOG[name]().system
    for kind in KINDS:
        assert verify_sandwich(sysd, kind) <= 1e-6, (name, kind.tag)


def test_a_backward_blowup_leaves_the_forward_stack(monkeypatch):
    # the backward period stack of -3000 passes the overflow cap; verify_decay reads the
    # forward stack alone, which is cached apart from it
    with pytest.raises(BlowupError):
        verify_sandwich(_STIFF, ONE)
    v = classify(_STIFF, INF)
    assert v.classification == "UES"
    assert verify_decay(_STIFF, v).passed
    # a changed TOL gets fresh stacks
    misses = floquet._period_segments.cache_info().misses
    monkeypatch.setattr(floquet, "TOL", TOL._replace(ode_tol=1e-9))
    verify_decay(_STIFF, v)
    assert floquet._period_segments.cache_info().misses == misses + 1


def test_decay_check_on_stable_entries():
    for name in ("strong_coupling", "lti_diag"):
        sysd = CATALOG[name]().system
        for kind in (ONE, TWO):
            v = classify(sysd, kind)
            chk = verify_decay(sysd, v)
            assert chk.passed, (name, kind.tag, chk)
            assert chk.worst_margin >= -chk.allowance
            assert chk.pairs > 0 and chk.state_checks > 0


def test_decay_check_marginal_case():
    v = classify(rotating_frame(1.0).system, TWO)
    assert v.classification == "US"
    chk = verify_decay(rotating_frame(1.0).system, v)
    assert chk.passed


def test_decay_check_rejects_unstable_verdict():
    sysd = CATALOG["scalar_unstable"]().system
    v = classify(sysd, ONE)
    with pytest.raises(ValueError):
        verify_decay(sysd, v)


def test_decay_check_is_deterministic():
    sysd = strong_coupling().system
    v = classify(sysd, TWO)
    a = verify_decay(sysd, v)
    b = verify_decay(sysd, v)
    assert a == b


# ------------------------------------ batched RK4 kernel against the scalar reference

# _rk4_matrix composes step matrices by prefix products, so its values differ from the
# per-step loop below in the last bits; they are compared at this bound relative to the
# loop's largest entry, while step counts, times, blow-ups and batched-against-single
# results stay exact
_VALUE_BOUND = 1e-13


def _rk4_one(sys, a, b, steps):
    # the kernel on one segment, as (Phi, t_blow)
    Phi, t_blow = _rk4_matrix(sys, np.array([a]), np.array([b]), steps)
    return Phi[0], float(t_blow[0])


def _ref_rk4_matrix(sys, a, b, steps):
    # the sequential one-segment loop, A(t) read from one matrix call on the
    # stage grid (bit-equal to scalar calls, see test_periodic.py)
    Phi = np.eye(sys.n)
    h = (b - a) / steps
    cap = floquet.TOL.overflow
    ts = a + np.arange(steps) * h
    stages = sys.matrix(np.stack((ts, ts + 0.5 * h, ts + h), axis=-1))
    for k in range(steps):
        A1, A2, A4 = stages[k]
        K1 = A1 @ Phi
        K2 = A2 @ (Phi + (0.5 * h) * K1)
        K3 = A2 @ (Phi + (0.5 * h) * K2)
        K4 = A4 @ (Phi + h * K3)
        Phi = Phi + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        t = a + (k + 1) * h
        if not np.isfinite(Phi).all() or float(np.abs(Phi).max()) > cap:
            raise BlowupError(f"transition matrix exceeded {cap:.1e} at t={t:.6g}", t_reached=t)
    return Phi


def _ref_pass(sys, t_from, t_to, steps):
    # one pass, or None for a blow-up after a step too coarse for A (|h| |A|_inf >= 1/2 on
    # the blown step's three stage nodes) while the step count may still double
    try:
        return _ref_rk4_matrix(sys, t_from, t_to, steps)
    except BlowupError as exc:
        t = exc.t_reached
        a = t - (t_to - t_from) / steps
        rate = float(mat_norm(sys.matrix(a + (t - a) * np.array([0.0, 0.5, 1.0])), INF).max())
        if abs(t - a) * rate < 0.5 or steps * 2 > floquet.TOL.ode_max_steps:
            raise
        return None


def _ref_integrate_transition(sys, t_from, t_to, tol=None, start_steps=None):
    # one segment at a time with step doubling, as (value, steps, error_estimate)
    tol = floquet.TOL.ode_tol if tol is None else tol
    start, cap = floquet.TOL.ode_start_steps, floquet.TOL.ode_max_steps
    if t_to == t_from:
        return np.eye(sys.n), 0, 0.0
    steps = start_steps or max(8, min(start, int(math.ceil(start * abs(t_to - t_from) / sys.period))))
    prev = _ref_pass(sys, t_from, t_to, steps)
    while steps * 2 <= cap:
        steps *= 2
        cur = _ref_pass(sys, t_from, t_to, steps)
        if prev is None or cur is None:
            prev = cur
            continue
        diff = float(np.abs(cur - prev).max())
        if diff <= tol * (1.0 + float(np.abs(cur).max())):
            if not cur.any():
                raise NumericError(f"integrated transition matrix underflowed to zero over [{t_from:g}, {t_to:g}]")
            # a sign below LU's round-off, about n eps times Hadamard's bound, is no sign
            det = np.linalg.det(cur)
            if det <= 0.0 and -det > sys.n * np.finfo(float).eps * np.prod(np.linalg.norm(cur, axis=1)):
                raise NumericError(
                    f"integrated transition matrix has non-positive determinant over [{t_from:g}, {t_to:g}]")
            return cur, steps, diff / 15.0
        prev = cur
    raise ConvergenceError(f"transition matrix over [{t_from:g}, {t_to:g}] did not settle within {cap} steps")


def _first_failure(sys, t_from, t_to):
    # the error a segment-by-segment loop raises first
    for a, b in zip(t_from, t_to):
        try:
            _ref_integrate_transition(sys, a, b)
        except NumericError as exc:
            return exc
    return None


_STIFF = system_from_strings([["-3000+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
# grows like exp(250 t), past the overflow cap after t = 2.77 however fine the step
_GROWING = system_from_strings([["250+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
_SYSTEMS = [strong_coupling().system, rotating_frame(1.5).system, lti_diag().system,
            CATALOG["scalar_unstable"]().system,
            system_from_strings([["-1+sin(t)", "1", "0"], ["0", "-2", "cos(2*t)"],
                                 ["0.5", "0", "-1.5+0.5*sin(t)"]], 2.0 * math.pi, t0=0.4)]


_PEAKED = system_from_strings([["-1-3000*sin(t)^200", "1"], ["0", "-1"]], 2.0 * math.pi)


@pytest.mark.parametrize("sysd", [CATALOG[name]().system for name in sorted(CATALOG)] + [_SYSTEMS[-1], _PEAKED],
                         ids=sorted(CATALOG) + ["3x3", "peaked"])
def test_check_segments_match_direct_integration(sysd):
    # the sandwich's 2T/15 segments both ways and the decay check's 3T/15 ones, built
    # from one period's segments, against integrating each over its own span
    for forward, span in ((True, 2), (False, 2), (True, 3)):
        ts = np.linspace(sysd.t0, sysd.t0 + span * sysd.period, 16)
        want = (integrate_transitions(sysd, ts[:-1], ts[1:]) if forward
                else integrate_transitions(sysd, ts[1:], ts[:-1])).value
        got = floquet._spans(floquet._period_segments(sysd, forward, TOL).value, forward, span)
        scale = 1.0 + np.abs(want).max(axis=(1, 2))
        assert (np.abs(got - want).max(axis=(1, 2)) <= TOL.ode_tol * scale).all(), (forward, span)


@pytest.mark.parametrize("tol", [None, 1e-9], ids=["default-tol", "tol-1e-9"])
@pytest.mark.parametrize("sysd", _SYSTEMS,
                         ids=["strong_coupling", "rotating_frame", "constant", "scalar", "3x3"])
def test_integrate_transitions_matches_scalar_reference(sysd, tol):
    rng = np.random.default_rng(9090)
    T = sysd.period
    a = sysd.t0 + rng.uniform(0.0, 2.0 * T, 18)
    # spans from 1/1000 of a period to a whole one, so start counts differ
    b = np.maximum(a + rng.choice([-1.0, 1.0], 18) * T * rng.choice([1e-3, 0.05, 0.3, 1.0], 18), sysd.t0)
    b[::5] = a[::5]  # zero-length segments
    got = integrate_transitions(sysd, a, b, tol)
    assert got.value.shape == (18, sysd.n, sysd.n)
    for stack in got:
        assert len(stack) == 18 and not stack.flags.writeable
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        value, steps, err = _ref_integrate_transition(sysd, x, y, tol)
        scale = float(np.abs(value).max())
        assert np.abs(got.value[i] - value).max() <= _VALUE_BOUND * scale
        assert abs(got.error_estimate[i] - err) <= 2.0 * _VALUE_BOUND * scale
        assert (got.steps[i], got.t_start[i], got.t_end[i]) == (steps, x, y)
    assert len(set(got.steps.tolist())) > 3
    # the caller's times are copied, not frozen
    assert a.flags.writeable and b.flags.writeable
    one = integrate_transition(sysd, float(a[1]), float(b[1]), tol)
    assert one.value.tobytes() == got.value[1].tobytes() and not one.value.flags.writeable
    assert (one.t_start, one.t_end, one.steps, one.error_estimate) == (
        float(a[1]), float(b[1]), int(got.steps[1]), float(got.error_estimate[1]))
    assert [type(v) for v in one[1:]] == [float, float, int, float]


@pytest.mark.parametrize("sysd", _SYSTEMS,
                         ids=["strong_coupling", "rotating_frame", "constant", "scalar", "3x3"])
def test_integrate_transitions_from_given_start_steps(sysd):
    # short segments started below the default floor of 8 steps, each from its own count
    rng = np.random.default_rng(4242)
    a = sysd.t0 + rng.uniform(0.0, sysd.period, 12)
    b = a + sysd.period * rng.choice([1e-3, 0.01, 0.05], 12)
    start = rng.choice([1, 2, 3], 12)
    got = integrate_transitions(sysd, a, b, 1e-9, start_steps=start)
    for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        value, steps, err = _ref_integrate_transition(sysd, x, y, 1e-9, start_steps=int(start[i]))
        scale = float(np.abs(value).max())
        assert np.abs(got.value[i] - value).max() <= _VALUE_BOUND * scale
        assert abs(got.error_estimate[i] - err) <= 2.0 * _VALUE_BOUND * scale
        assert got.steps[i] == steps
    assert (got.steps < 8).any()


def test_rk4_stack_matches_per_segment_loop():
    sysd = _STIFF
    a = np.array([0.0, 0.3, 0.0, 2.0])
    b = np.array([1e-3, 0.25, math.pi, 2.0 + 2.0 * math.pi])
    stack, t_blow = _rk4_matrix(sysd, a, b, 64)
    for i in range(4):
        one, blow = _rk4_one(sysd, float(a[i]), float(b[i]), 64)
        try:
            ref = _ref_rk4_matrix(sysd, float(a[i]), float(b[i]), 64)
        except BlowupError as exc:
            assert t_blow[i] == exc.t_reached and np.isnan(stack[i]).all()
            assert blow == exc.t_reached and np.isnan(one).all()
        else:
            assert np.isnan(t_blow[i]) and np.abs(stack[i] - ref).max() <= _VALUE_BOUND * np.abs(ref).max()
            assert math.isnan(blow) and one.tobytes() == stack[i].tobytes()
    assert np.isnan(t_blow).sum() == 2


class _CountingField:
    # A(t) = A0 + t A1, free of transcendental calls; records the shape of each matrix call
    def __init__(self, n):
        rng = np.random.default_rng(4040)
        self.n = n
        self.A0 = rng.standard_normal((n, n)) / n - np.eye(n)
        self.A1 = rng.standard_normal((n, n)) / n
        self.calls = []

    def matrix(self, t):
        self.calls.append(np.shape(t))
        return self.A0 + np.asarray(t)[..., None, None] * self.A1


def test_rk4_one_field_call_per_block(monkeypatch):
    # at n = 40 a chunk is 2 steps; with room for 4 (segment, chunk) pairs per block, the
    # 3 chunks of each of 7 segments (2 + 2 + 1 steps) take 6 blocks, some spanning two
    # chunk indices, and each block reads all of its stage times in one matrix call
    field = _CountingField(40)
    width = floquet._chunk(40)
    assert width == 2
    a = np.linspace(0.0, 1.0, 7)
    b = a + 0.5
    monkeypatch.setattr(floquet, "_BLOCK_BYTES", 4 * floquet._PER_STEP * width * 40 * 40 * 8)
    stack = _rk4_matrix(field, a, b, 5)[0]
    assert field.calls == [(8, 3), (8, 3), (8, 3), (6, 3), (4, 3), (1, 3)]
    for i in range(a.size):
        assert _rk4_one(field, float(a[i]), float(b[i]), 5)[0].tobytes() == stack[i].tobytes()
    monkeypatch.undo()
    assert _rk4_matrix(field, a, b, 5)[0].tobytes() == stack.tobytes()


_KERNEL_SYSTEMS = {1: CATALOG["scalar_unstable"]().system, 3: _SYSTEMS[-1], 40: _CountingField(40)}


@pytest.mark.parametrize("n", sorted(_KERNEL_SYSTEMS))
@pytest.mark.parametrize("count", ["1", "2", "3", "C-1", "C", "C+1", "2C+1"])
def test_rk4_kernel_at_chunk_boundaries(monkeypatch, n, count):
    # step counts around the chunk length, forward, backward and zero-length spans,
    # integrated in one stack, in blocks of one pair, and one segment at a time
    sysd = _KERNEL_SYSTEMS[n]
    C = floquet._chunk(n)
    steps = {"C-1": C - 1, "C": C, "C+1": C + 1, "2C+1": 2 * C + 1}.get(count) or int(count)
    rng = np.random.default_rng(steps)
    a = rng.uniform(0.0, 3.0, 12)
    b = a + rng.uniform(-1.5, 1.5, 12)
    b[::4] = a[::4]
    stack, t_blow = _rk4_matrix(sysd, a, b, steps)
    assert np.isnan(t_blow).all()
    monkeypatch.setattr(floquet, "_BLOCK_BYTES", 1)
    assert _rk4_matrix(sysd, a, b, steps)[0].tobytes() == stack.tobytes()
    monkeypatch.undo()
    for i in range(a.size):
        ref = _ref_rk4_matrix(sysd, float(a[i]), float(b[i]), steps)
        assert np.abs(stack[i] - ref).max() <= _VALUE_BOUND * np.abs(ref).max()
        assert _rk4_one(sysd, float(a[i]), float(b[i]), steps)[0].tobytes() == stack[i].tobytes()
    assert (stack[::4] == np.eye(sysd.n)).all()


@pytest.mark.parametrize("span,steps,place", [(1.06, 96, 0), (1.1, 96, -1), (2.0 * math.pi, 64, 3)],
                         ids=["chunk-start", "chunk-end", "mid-chunk"])
def test_rk4_blowup_step_matches_loop(span, steps, place):
    # the first step over the cap, on a chunk boundary too, is the sequential loop's
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference loop overflows
        with pytest.raises(BlowupError) as info:
            _ref_rk4_matrix(_STIFF, 0.0, span, steps)
    want = info.value.t_reached
    assert (round(want / (span / steps)) - 1) % floquet._chunk(2) == place % floquet._chunk(2)
    a = np.array([0.0, 0.0, 0.5])
    b = np.array([1e-3, span, 0.5])
    stack, t_blow = _rk4_matrix(_STIFF, a, b, steps)
    assert t_blow[1] == want and np.isnan(stack[1]).all()
    assert np.isnan(t_blow[[0, 2]]).all() and np.isfinite(stack[[0, 2]]).all()
    assert _rk4_one(_STIFF, 0.0, span, steps)[1] == want


@pytest.mark.parametrize("count", ["C", "C+1", "2C"])
def test_rk4_overflow_check_at_the_cap(monkeypatch, count):
    # x' = 2x grows monotonically, so the last step holds the largest entry.  With the
    # cap at that entry the check passes; one ulp lower the last step, a chunk's end or
    # the first step of a chunk, blows up
    sysd = system_from_strings([["2"]], 1.0)
    C = floquet._chunk(1)
    steps = {"C": C, "C+1": C + 1, "2C": 2 * C}[count]
    a, b = np.array([0.0, 0.5]), np.array([1.0, 1.0])
    free = _rk4_matrix(sysd, a, b, steps)[0]
    top = float(free[0, 0, 0])
    for cap, blown in ((top, False), (float(np.nextafter(top, 0.0)), True)):
        monkeypatch.setattr(floquet, "TOL", TOL._replace(overflow=cap))
        got, t_blow = _rk4_matrix(sysd, a, b, steps)
        assert got[1].tobytes() == free[1].tobytes() and np.isnan(t_blow[1])
        if blown:
            assert t_blow[0] == 0.0 + steps * (1.0 / steps) and np.isnan(got[0]).all()
        else:
            assert got[0].tobytes() == free[0].tobytes() and np.isnan(t_blow[0])


@pytest.mark.parametrize("sysd,segments,max_steps,kind", [
    (_GROWING, [(0.0, 1e-3), (0.0, math.pi), (0.0, 2.0 * math.pi)], None, BlowupError),
    (_GROWING, [(0.0, 2.0 * math.pi), (0.0, math.pi)], None, BlowupError),
    # the second segment exhausts the step budget after the third has blown up at a
    # step too coarse to refine within that budget
    (_STIFF, [(0.0, 1e-3), (0.2, 0.1), (0.0, math.pi)], 256, ConvergenceError),
], ids=["blowup-second", "blowup-first", "convergence-before-blowup"])
def test_integrate_transitions_raises_first_failure(monkeypatch, sysd, segments, max_steps, kind):
    if max_steps is not None:
        monkeypatch.setattr(floquet, "TOL", TOL._replace(ode_max_steps=max_steps))
    t_from, t_to = zip(*segments)
    want = _first_failure(sysd, t_from, t_to)
    assert type(want) is kind
    with pytest.raises(kind) as info:
        integrate_transitions(sysd, t_from, t_to)
    assert str(info.value) == str(want)
    assert getattr(info.value, "t_reached", None) == getattr(want, "t_reached", None)


def test_stiff_transition_blowup_without_warnings(monkeypatch):
    # RK4 at 64 steps per period is unstable for -3000: each such pass blows up before
    # any arithmetic overflows, and the step count doubles until it resolves the system;
    # with no room to double, the 64-step blow-up is final
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t_blow = _rk4_one(_STIFF, 0.0, 2.0 * math.pi, 64)[1]
        with monkeypatch.context() as m:
            m.setattr(floquet, "TOL", TOL._replace(ode_max_steps=64))
            with pytest.raises(BlowupError) as info:
                integrate_transition(_STIFF, 0.0, 2.0 * math.pi)
        assert str(info.value) == "transition matrix exceeded 1.0e+300 at t=3.53429"
        assert info.value.t_reached == t_blow
        tm = integrate_transition(_STIFF, 0.0, 2.0 * math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference loop overflows
        value, steps, err = _ref_integrate_transition(_STIFF, 0.0, 2.0 * math.pi)
    assert tm.steps == steps == 16384
    assert np.abs(tm.value - value).max() <= _VALUE_BOUND * np.abs(value).max()
    assert abs(tm.error_estimate - err) <= 2.0 * _VALUE_BOUND * np.abs(value).max()


def test_blowup_retry_reads_the_blown_steps_stage_grid(monkeypatch):
    # a spike of -2000 about 0.002 wide inside the blown step, which A(t) at the step's
    # end cannot see: the step is too coarse there, so the pass doubles and converges
    monkeypatch.setattr(floquet, "TOL", TOL._replace(overflow=50.0))
    spike = system_from_strings([["-1 - 2000*exp(-((t - 0.5390625)/0.002)^2)"]], 1.0)
    tm = integrate_transition(spike, 0.0, 1.0)
    assert abs(tm.value[0, 0] - math.exp(-1.0 - 4.0 * math.sqrt(math.pi))) <= 1e-7


def _ref_check_segments(sys, forward, span):
    # one transition call per one-period segment; by Phi(t + T, s + T) = Phi(t, s) the
    # grid t0 + k span T/15 has products of `span` of them, taken modulo 15, as segments
    ts = np.linspace(sys.t0, sys.t0 + sys.period, 16)
    ends = [(float(ts[m]), float(ts[m + 1])) for m in range(15)]
    period = [integrate_transition(sys, *(e if forward else e[::-1])).value for e in ends]
    segs = []
    for k in range(15):
        S = period[span * k % 15]
        for d in range(1, span):
            S = period[(span * k + d) % 15] @ S if forward else S @ period[(span * k + d) % 15]
        segs.append(S)
    return segs


def _ref_sandwich(sys, kind):
    # one norm call per grid pair
    ts = np.linspace(sys.t0, sys.t0 + 2.0 * sys.period, 16)
    fsegs, bsegs = _ref_check_segments(sys, True, 2), _ref_check_segments(sys, False, 2)
    pp, pm = pi_integral(sys, kind, 1, ts)[0], pi_integral(sys, kind, -1, ts)[0]
    worst = -math.inf
    for i in range(15):
        F = B = np.eye(sys.n)
        for j in range(i + 1, 16):
            F = fsegs[j - 1] @ F
            B = B @ bsegs[j - 1]
            worst = max(worst, float(np.expm1(np.log(mat_norm(F, kind)) - (pp[j] - pp[i]))),
                        float(np.expm1(np.log(mat_norm(B, kind)) - (pm[j] - pm[i]))))
    return worst


def _ref_decay_margin(sys, verdict):
    # the pair and state margins of verify_decay, one norm call per pair
    ts = np.linspace(sys.t0, sys.t0 + 3.0 * sys.period, 16)
    segs = _ref_check_segments(sys, True, 3)
    worst = math.inf
    from_start = [np.eye(sys.n)]
    for i in range(15):
        P = np.eye(sys.n)
        for j in range(i + 1, 16):
            P = segs[j - 1] @ P
            if i == 0:
                from_start.append(P)
            worst = min(worst, math.log(verdict.K) - verdict.alpha_tilde * float(ts[j] - ts[i])
                        - float(np.log(mat_norm(P, verdict.kind))))
    r = verdict.rates
    rng = random.Random(20260814)
    for _ in range(8):
        x0 = np.array([rng.gauss(0.0, 1.0) for _ in range(sys.n)])
        nx0 = vec_norm(x0, verdict.kind)
        if nx0 < 1e-6:
            continue
        for j in range(1, 16):
            dt = float(ts[j] - sys.t0)
            log_x = float(np.log(vec_norm(from_start[j] @ x0, verdict.kind)))
            log_x0 = float(np.log(nx0))
            worst = min(worst, log_x0 + r.lambda_plus * dt + r.delta_upper_plus - log_x,
                        log_x - (log_x0 - r.lambda_minus * dt - r.delta_upper_minus))
    return worst


@pytest.mark.parametrize("name", ["strong_coupling", "rotating_frame", "lti_diag", "scalar_unstable",
                                  "rotating_frame_marginal", "3x3"])
def test_stacked_oracle_checks_match_per_pair_loops(name):
    sysd = _SYSTEMS[-1] if name == "3x3" else CATALOG[name]().system
    A0 = sysd.matrix(sysd.t0)
    hurwitz = np.linalg.eigvals(A0).real.max() < 0.0
    kinds = KINDS + ([lognorm.lyapunov_weighted(A0)] if hurwitz else [])
    for kind in kinds:
        assert verify_sandwich(sysd, kind) == _ref_sandwich(sysd, kind)
        v = classify(sysd, kind)
        if v.classification in ("UES", "US"):
            assert verify_decay(sysd, v).worst_margin == _ref_decay_margin(sysd, v)
