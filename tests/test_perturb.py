"""Forced-trajectory simulator and disturbance diagnostics.

Closed-form transitions give exact homogeneous solutions; linearity gives
the forced ones via superposition.  Disturbance summaries are checked
against hand-integrable cases.
"""

import math
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest

from lpstab import perturb
from lpstab.catalog import CATALOG, lti_diag, rotating_frame, strong_coupling
from lpstab.config import TOL
from lpstab.errors import BlowupError, ConvergenceError, NumericError
from lpstab.expr import EvalError, evaluate
from lpstab.linalg import mat_norm, vec_norm
from lpstab.lognorm import INF, TWO
from lpstab.periodic import integrate, system_from_strings
from lpstab.perturb import (
    Disturbance,
    _rk4_pass,
    _voc_states,
    convergence_report,
    disturbance_from_strings,
    simulate_perturbed,
    windowed_drift,
)


def test_disturbance_parsing():
    d = disturbance_from_strings(["exp(-t)", "0"])
    assert d.n == 2
    assert d.vector(0.0) == pytest.approx([1.0, 0.0])
    assert d.as_strings() == ("exp(-t)", "0")
    with pytest.raises(Exception):
        disturbance_from_strings(["exp(-t", "0"])
    z = Disturbance.zero(3)
    assert np.array_equal(z.vector(5.0), np.zeros(3))


def test_vector_stack_matches_scalar_calls():
    d = disturbance_from_strings(["exp(-t)", "sin(3*t)*t", "2"])
    ts = np.linspace(0.0, 4.0, 23)
    V = d.vector(ts)
    assert V.shape == (23, 3)
    assert V.tobytes() == np.array([d.vector(float(t)) for t in ts]).tobytes()


def test_unforced_matches_closed_transition():
    entry = rotating_frame(0.5)
    x0 = np.array([1.0, -2.0])
    traj = simulate_perturbed(entry.system, Disturbance.zero(2), x0, 6.0, samples=64)
    for i, t in enumerate(traj.times):
        ref = entry.transition(float(t), 0.0) @ x0
        assert np.abs(traj.states[i] - ref).max() <= 1e-7 * (1.0 + np.abs(ref).max())
    assert not traj.overflowed
    assert traj.check_error is not None and traj.check_error <= 1e-5


def test_superposition():
    # x(d1 + d2) = x(d1) + x(d2) - x_hom, sample by sample
    sysd = strong_coupling().system
    x0 = np.array([0.5, 1.5])
    t_end = 2.0
    d1 = disturbance_from_strings(["sin(3*t)", "0"])
    d2 = disturbance_from_strings(["exp(-t)", "cos(t)"])
    dsum = disturbance_from_strings(["sin(3*t) + exp(-t)", "cos(t)"])
    kw = dict(samples=48, cross_check=False)
    a = simulate_perturbed(sysd, d1, x0, t_end, **kw)
    b = simulate_perturbed(sysd, d2, x0, t_end, **kw)
    h = simulate_perturbed(sysd, Disturbance.zero(2), x0, t_end, **kw)
    s = simulate_perturbed(sysd, dsum, x0, t_end, **kw)
    combo = a.states + b.states - h.states
    assert np.abs(s.states - combo).max() <= 1e-6 * (1.0 + np.abs(s.states).max())


def test_forced_constant_system_settles():
    # x' = -x + 1 from 0 tends to 1
    sysd = lti_diag(-1.0, -1.0).system
    d = disturbance_from_strings(["1", "1"])
    traj = simulate_perturbed(sysd, d, np.zeros(2), 20.0, samples=128)
    assert traj.states[-1] == pytest.approx([1.0, 1.0], abs=1e-6)


def test_forced_system_at_dimension_cap():
    # the augmented field is one larger than TOL.max_dim; x' = -x + 1 in every row
    n = TOL.max_dim
    sysd = system_from_strings([["-1" if i == j else "0" for j in range(n)] for i in range(n)], 1.0)
    d = disturbance_from_strings(["1"] * n)
    traj = simulate_perturbed(sysd, d, np.zeros(n), 2.0, samples=16, cross_check=False)
    assert traj.states.shape == (16, n) and not traj.overflowed
    exact = -np.expm1(-traj.times)
    assert np.abs(traj.states - exact[:, None]).max() <= 1e-9


def test_simulator_validation():
    sysd = lti_diag().system
    with pytest.raises(ValueError):
        simulate_perturbed(sysd, Disturbance.zero(3), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        simulate_perturbed(sysd, Disturbance.zero(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        simulate_perturbed(sysd, Disturbance.zero(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        simulate_perturbed(sysd, Disturbance.zero(2), np.zeros(2), 1.0, samples=1)


def test_step_budget_checked_before_the_first_pass(monkeypatch):
    # 255 sample intervals of 2 substeps each are over a budget of 256 substeps
    sysd = lti_diag().system
    calls = []
    monkeypatch.setattr(perturb, "TOL", TOL._replace(ode_max_steps=256))
    monkeypatch.setattr(perturb, "_rk4_pass", lambda *a: calls.append(a) or _rk4_pass(*a))
    with pytest.raises(ConvergenceError, match="did not settle within 256 total steps"):
        simulate_perturbed(sysd, Disturbance.zero(2), np.ones(2), sysd.t0 + 5.0 * sysd.period)
    assert calls == []


def test_overflow_is_flagged_not_raised():
    # x' = (0.3 + sin t) x passes 1e300 near t = ln(1e300)/0.3; the result
    # must come back truncated and flagged, with every kept sample finite
    entry = CATALOG["scalar_unstable"]()
    traj = simulate_perturbed(entry.system, Disturbance.zero(1), np.array([1.0]),
                              2600.0, samples=256)
    assert traj.overflowed
    assert traj.t_overflow is not None
    assert traj.t_overflow == pytest.approx(math.log(1e300) / 0.3, rel=0.02)
    assert np.isfinite(traj.states).all()
    assert traj.times[-1] < 2600.0


def test_no_false_overflow_on_stiff_stable_system():
    # large |A| with a coarse initial substep must not masquerade as blowup
    sysd = lti_diag(-80.0, -120.0).system
    traj = simulate_perturbed(sysd, Disturbance.zero(2), np.array([1.0, 1.0]),
                              40.0, samples=32, cross_check=False)
    assert not traj.overflowed
    assert np.abs(traj.states[-1]).max() <= 1e-10


@pytest.mark.parametrize("t_end", [80.0, 100.0])
def test_no_false_overflow_from_a_stiff_stretch_between_samples(t_end):
    # |A|_inf is 3001 near t = pi/2 + k pi and about 1 elsewhere.  At 4 substeps a sample
    # RK4 blows up inside a peak, and the state passes the cap in a later interval whose
    # end sees |A| near 1; the retry must still be taken from the substeps that were too
    # coarse for the peak, not read as the system's growth
    sysd = system_from_strings([["-1-3000*sin(t)^200", "1"], ["0", "-1"]], 2.0 * math.pi)
    d = disturbance_from_strings(["exp(-t)", "1"])
    traj = simulate_perturbed(sysd, d, np.ones(2), t_end, cross_check=False)
    assert not traj.overflowed and traj.times[-1] == t_end
    assert np.abs(traj.states).max() < 10.0


def test_convergence_report():
    sysd = strong_coupling().system
    d = disturbance_from_strings(["exp(-t)", "0"])
    traj = simulate_perturbed(sysd, d, np.array([-4.0, 3.0]), 10.0, samples=256)
    rep = convergence_report(traj)
    assert rep.tail_max_norm < 1e-3
    assert rep.decreasing_tail
    assert rep.tail_start == pytest.approx(7.5, abs=0.2)


def test_convergence_report_needs_enough_samples():
    sysd = lti_diag().system
    traj = simulate_perturbed(sysd, Disturbance.zero(2), np.ones(2), 1.0, samples=8,
                              cross_check=False)
    with pytest.raises(ValueError):
        convergence_report(traj)


def test_windowed_drift_constant():
    # d = (1, 0): the running integral over [t, t+eta] has norm eta, sup = window
    d = disturbance_from_strings(["1", "0"])
    rep = windowed_drift(d, np.linspace(0.0, 20.0, 21), window=1.0)
    assert np.abs(rep.sups - 1.0).max() <= 1e-12
    assert abs(rep.tail_log_slope) <= 1e-9


def test_windowed_drift_zero():
    rep = windowed_drift(Disturbance.zero(2), np.linspace(0.0, 10.0, 11))
    assert rep.sups.max() == 0.0


def test_windowed_drift_decaying():
    # d = (e^{-t}, 0): sup attained at eta = window, equals e^{-t}(1 - e^{-w});
    # the tail log slope recovers the rate -1
    d = disturbance_from_strings(["exp(-t)", "0"])
    ts = np.linspace(0.0, 12.0, 25)
    rep = windowed_drift(d, ts, window=1.0)
    want = np.exp(-ts) * (1.0 - math.exp(-1.0))
    assert np.abs(rep.sups - want).max() <= 1e-9
    assert rep.tail_log_slope == pytest.approx(-1.0, abs=1e-6)


def test_windowed_drift_oscillation_averages_out():
    # d = (sin(t^2), 0) never decays pointwise, but its windowed integral
    # does; the sups must fall by an order of magnitude across the grid
    d = disturbance_from_strings(["sin(t^2)", "0"])
    rep = windowed_drift(d, np.array([10.0, 50.0, 100.0, 200.0]), window=1.0)
    s = rep.sups
    assert s[0] > 0.05
    assert np.diff(s).max() < 0.0
    assert s[-1] < s[0] / 10.0


def test_windowed_drift_matches_per_cell_loop():
    # reference: one quadrature per (t, eta) cell and component, norms taken one at a time
    d = disturbance_from_strings(["exp(-t)*sin(4*t)", "abs(cos(t)) - 0.5"])
    ts = np.array([0.0, 0.8, 2.5])
    rep = windowed_drift(d, ts, window=1.5, eta_samples=8)
    edges = np.linspace(0.0, 1.5, 9)
    fns = [partial(evaluate, e) for e in d.entries]
    for i, t in enumerate(ts):
        cum = np.zeros(2)
        sup = 0.0
        for j in range(1, 9):
            for c, fn in enumerate(fns):
                cum[c] += integrate(fn, t + edges[j - 1], t + edges[j])[0]
            sup = max(sup, vec_norm(cum, TWO))
        assert rep.sups[i] == sup


@pytest.mark.parametrize("entries", [["exp(-t)*sin(4*t)", "cos(t)"], ["exp(-0.5*t)", "0"],
                                     ["sin(t)", "2"], ["1", "0"]],
                         ids=["oscillating", "decaying", "persistent", "constant"])
def test_windowed_drift_tail_slope_is_the_least_squares_slope(entries):
    ts = np.linspace(0.0, 9.0, 40)
    rep = windowed_drift(disturbance_from_strings(entries), ts)
    tail = slice(-(40 // 3), None)
    want = np.polyfit(ts[tail], np.log(rep.sups[tail]), 1)[0]
    assert abs(rep.tail_log_slope - want) <= 1e-12 * abs(want)


def test_windowed_drift_constant_sups_have_zero_slope():
    # exactly constant sups give a slope of exactly 0 (np.polyfit gives 6.9e-14 here)
    rep = windowed_drift(Disturbance.zero(2), np.linspace(0.0, 9.0, 40))
    assert rep.tail_log_slope == 0.0


def test_windowed_drift_validation():
    d = Disturbance.zero(1)
    with pytest.raises(ValueError):
        windowed_drift(d, np.linspace(0.0, 1.0, 10), window=0.0)
    with pytest.raises(ValueError):
        windowed_drift(d, np.linspace(0.0, 1.0, 10), eta_samples=4)
    with pytest.raises(ValueError):
        windowed_drift(d, np.array([0.0, 1.0]))


def test_trajectory_is_deterministic():
    sysd = strong_coupling().system
    d = disturbance_from_strings(["sin(t)", "0"])
    a = simulate_perturbed(sysd, d, np.ones(2), 3.0, samples=64)
    b = simulate_perturbed(sysd, d, np.ones(2), 3.0, samples=64)
    assert np.array_equal(a.states, b.states)
    assert a.check_times == b.check_times


# ------------------------- pre-evaluated stage grids against per-call references

def _ref_rk4_pass(sys, d, x0, ts, m):
    # the sweep with three A(t) and three d(t) calls per substep
    states = np.empty((len(ts), sys.n))
    states[0] = x0
    x = np.array(x0, dtype=float)
    for i in range(1, len(ts)):
        a = float(ts[i - 1])
        h = (float(ts[i]) - a) / m
        for k in range(m):
            t = a + k * h
            tm = t + 0.5 * h
            te = t + h
            A2 = sys.matrix(tm)
            d2 = d.vector(tm)
            k1 = sys.matrix(t) @ x + d.vector(t)
            k2 = A2 @ (x + (0.5 * h) * k1) + d2
            k3 = A2 @ (x + (0.5 * h) * k2) + d2
            k4 = sys.matrix(te) @ (x + h * k3) + d.vector(te)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all() or float(np.abs(x).max()) > 1e300:
            return states, i
        states[i] = x
    return states, None


def _ref_audit_rk4(sys, a, b, steps):
    # Phi(b, a) by `steps` RK4 steps in a loop, A(t) read from one matrix call on the stage grid
    h = (b - a) / steps
    ts = a + np.arange(steps) * h
    Phi = np.eye(sys.n)
    for A1, A2, A4 in sys.matrix(np.stack((ts, ts + 0.5 * h, ts + h), axis=-1)):
        K1 = A1 @ Phi
        K2 = A2 @ (Phi + (0.5 * h) * K1)
        K3 = A2 @ (Phi + (0.5 * h) * K2)
        K4 = A4 @ (Phi + h * K3)
        Phi = Phi + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return Phi


def _ref_audit_transition(sys, a, b, steps):
    # step doubling from `steps` until two passes agree to 1e-9 of the result's magnitude
    prev = _ref_audit_rk4(sys, a, b, steps)
    while True:
        steps *= 2
        cur = _ref_audit_rk4(sys, a, b, steps)
        if np.abs(cur - prev).max() <= 1e-9 * (1.0 + np.abs(cur).max()):
            return cur
        prev = cur


def _ref_panel_count(sys, a, b):
    # panels of [a, b] finer than period/128 and than 1/8 over |A|_inf at every end and
    # midpoint of its panels, read one node at a time, raised until the count holds
    q, rate = max(1, math.ceil(128.0 * (b - a) / sys.period)), 0.0
    while True:
        for j in range(2 * q + 1):
            rate = max(rate, mat_norm(sys.matrix(a + (b - a) * j / (2 * q)), INF))
        if math.ceil(8.0 * (b - a) * rate) <= q:
            return q, rate
        q = math.ceil(8.0 * (b - a) * rate)


def _ref_voc_states(sys, d, x0, ts, check_idx):
    # one panel at a time: each sample interval in panels by _ref_panel_count, two
    # half-panel transitions each; then, for every audited sample t, the
    # variation-of-constants sum walked back from t with Phi(t, s) carried node by node
    panels = []
    for i in range(max(check_idx)):
        a, b = float(ts[i]), float(ts[i + 1])
        q, rate = _ref_panel_count(sys, a, b)
        steps = max(1, math.ceil(16.0 * (b - a) / q * rate))
        for k in range(q):
            pa = a + (b - a) * k / q
            pb = a + (b - a) * (k + 1) / q
            pm = 0.5 * (pa + pb)
            panels.append((pa, pm, pb, _ref_audit_transition(sys, pa, pm, steps),
                           _ref_audit_transition(sys, pm, pb, steps)))
    ends = np.array([p[2] for p in panels])
    out = []
    for idx in check_idx:
        last = int(np.searchsorted(ends, float(ts[idx]) - 1e-12, side="left"))
        R = np.eye(sys.n)
        total = np.zeros(sys.n)
        for k in range(last, -1, -1):
            pa, pm, pb, first, second = panels[k]
            phi_mid = R @ second
            phi_a = phi_mid @ first
            total += ((pb - pa) / 6.0) * (phi_a @ d.vector(pa) + 4.0 * (phi_mid @ d.vector(pm))
                                          + R @ d.vector(pb))
            R = phi_a
        out.append(R @ x0 + total)
    return out


_ONE_D = system_from_strings([["1"]], 1.0)
_STIFF_100 = system_from_strings([["-100+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
_STIFF_3000 = system_from_strings([["-3000+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)


@pytest.mark.parametrize("sysd,d,t_end,m,overflows", [
    (strong_coupling().system, ["sin(3*t)", "exp(-t)"], 2.0, 4, False),
    (lti_diag().system, ["1", "cos(t)"], 6.0, 2, False),              # constant A
    (rotating_frame(1.5).system, ["0", "t"], 9.0, 40, False),         # blocks end inside an interval
    (CATALOG["scalar_unstable"]().system, ["1"], 2600.0, 3, True),
    (_ONE_D, ["exp(t)"], 800.0, 8, True),                             # before d fails at t > 709.8
], ids=["strong_coupling", "constant", "long-intervals", "overflow", "overflow-before-range-error"])
def test_rk4_pass_matches_per_call_loop(sysd, d, t_end, m, overflows):
    dist = disturbance_from_strings(d)
    x0 = np.linspace(1.0, -0.5, sysd.n)
    ts = np.linspace(sysd.t0, t_end, 65)
    states, blow = _rk4_pass(sysd, dist, x0, ts, m)
    ref, ref_blow = _ref_rk4_pass(sysd, dist, x0, ts, m)
    assert blow == ref_blow and (blow is not None) == overflows
    stop = len(ts) if blow is None else blow
    # states are products of per-interval maps, so they move in the last bits
    err = np.abs(states[:stop] - ref[:stop]).max(axis=1)
    assert (err <= 1e-13 * np.abs(ref[:stop]).max(axis=1)).all()


@pytest.mark.parametrize("sysd,t_end,samples,m", [
    (lti_diag().system, 4.0, 17, 5),
    # the first block to fail is not the earliest: blocks are step-major
    (lti_diag().system, 4.1, 65, 40),
    # A fails later than d in the same interval, and A is evaluated first
    (system_from_strings([["-1", "sqrt(3.1 - t)"], ["0", "-2"]], 1.0), 4.0, 17, 5),
], ids=["one-block", "split-blocks", "matrix-fails-later"])
def test_rk4_pass_eval_error_matches_per_call_loop(sysd, t_end, samples, m):
    # d fails beyond t = 3 on a stable system: the same substep raises
    dist = disturbance_from_strings(["sqrt(3 - t)", "0"])
    ts = np.linspace(0.0, t_end, samples)
    with pytest.raises(EvalError) as ref:
        _ref_rk4_pass(sysd, dist, np.ones(2), ts, m)
    with pytest.raises(EvalError) as got:
        _rk4_pass(sysd, dist, np.ones(2), ts, m)
    assert str(got.value) == str(ref.value) and got.value.t == ref.value.t


_THREE = system_from_strings([["-1+sin(t)", "1", "0"], ["0", "-2", "cos(2*t)"],
                              ["0.5", "0", "-1.5+0.5*sin(t)"]], 2.0 * math.pi, t0=0.4)
# a coefficient far faster than the period: its half panels double past their start count
_FAST = system_from_strings([["-1 + 0.01*cos(400*t)", "1"], ["0", "-0.5"]], 2.0 * math.pi)
# a coefficient that peaks at pi/2, inside a sample interval whose ends see |A| below 1/20
# of the peak's
_PEAKED = system_from_strings([["-1-300*sin(t)^200", "1"], ["0", "-1"]], 2.0 * math.pi)
# the stacked audit composes its RK4 steps, panel maps and Simpson sums in other orders
# than the per-panel loop.  Relative to the loop's largest entry the gaps measured on the
# systems below were 4 to 7 ulps, 56 on the fast one, and 146 and 240 (2.2e-14 and 4.2e-14)
# on the peaked and stiff ones, with the most panels; the bound leaves a factor of 10
_VOC_BOUND = 4e-13


@pytest.mark.parametrize("sysd,periods,d", [
    (strong_coupling().system, 1.7, ["sin(3*t) + exp(-t)", "cos(t)"]),
    (rotating_frame(0.5).system, 1.7, ["sin(3*t) + exp(-t)", "cos(t)"]),
    (_THREE, 1.3, ["exp(-t)", "sin(2*t)", "1"]),
    (_STIFF_100, 0.08, ["sin(3*t) + exp(-t)", "cos(t)"]),
    (_FAST, 0.2 / (2.0 * math.pi), ["sin(3*t) + exp(-t)", "cos(t)"]),
    (_PEAKED, 11.0 / 18.0, ["sin(3*t) + exp(-t)", "cos(t)"]),  # the peak midway in [ts[4], ts[5]]
], ids=["strong_coupling", "rotating_frame", "3x3", "stiff", "fast-coefficient", "peaked-coefficient"])
def test_voc_states_match_per_panel_loop(sysd, periods, d):
    # on the stiff and peaked systems |A|_inf, not the period, sets the panel count
    dist = disturbance_from_strings(d)
    x0 = np.linspace(0.5, -1.5, sysd.n)
    ts = np.linspace(sysd.t0, sysd.t0 + periods * sysd.period, 12)
    idx = [2, 7, 11]
    got = np.array(_voc_states(sysd, dist, x0, ts, idx))
    ref = np.array(_ref_voc_states(sysd, dist, x0, ts, idx))
    assert np.abs(got - ref).max() <= _VOC_BOUND * np.abs(ref).max()


def test_audit_sees_a_stiff_stretch_between_samples():
    # |A|_inf is 3001 at pi/2 but below 5 at the ends of the sample interval around it:
    # panels sized from those ends left Simpson off by 9e-5 here
    sysd = system_from_strings([["-1-3000*sin(t)^200", "1"], ["0", "-1"]], 2.0 * math.pi)
    dist = disturbance_from_strings(["1", "cos(t)"])
    ts = np.array([0.0, 0.5 * math.pi - 0.4, 0.5 * math.pi + 0.3])
    assert mat_norm(sysd.matrix(ts), INF).max() < 5.0
    traj = simulate_perturbed(sysd, dist, np.array([1.0, -0.5]), ts[-1], samples=2000, cross_check=False)
    got = _voc_states(sysd, dist, np.array([1.0, -0.5]), ts, [1, 2])[1]
    assert np.abs(got - traj.states[-1]).max() <= 1e-8 * (1.0 + np.abs(traj.states[-1]).max())


def test_audit_disagreement_raises(monkeypatch):
    # the audit raises, not reports, once the two routes part by more than 1e-5
    voc = perturb._voc_states
    monkeypatch.setattr(perturb, "_voc_states", lambda *args: [x + 1e-3 for x in voc(*args)])
    dist = disturbance_from_strings(["exp(-t)", "0"])
    with pytest.raises(NumericError, match=r"^stepper and variation-of-constants disagree: "
                                           r"relative error \d\.\d{3}e-0[34]$"):
        simulate_perturbed(strong_coupling().system, dist, np.ones(2), 3.0, samples=32)


def test_voc_states_step_budget(monkeypatch):
    # the fast system's half panels need 16 steps, past a budget of 8
    monkeypatch.setattr("lpstab.floquet.TOL", TOL._replace(ode_max_steps=8))
    dist = disturbance_from_strings(["1", "0"])
    with pytest.raises(ConvergenceError, match="did not settle within 8 steps"):
        _voc_states(_FAST, dist, np.ones(2), np.linspace(0.0, 0.2, 12), [2, 7, 11])


def test_voc_states_memory_does_not_grow_with_the_span():
    # panels stream in blocks of bounded bytes: a span four times as long, with four
    # times the panels, peaks within a fixed budget of the shorter one
    dist = disturbance_from_strings(["exp(-t)", "1"])
    idx = sorted(random.Random(1729).sample(range(1, 256), 3))
    peaks = []
    for t_end in (5.0, 20.0):
        ts = np.linspace(0.0, t_end, 256)
        tracemalloc.start()
        _voc_states(_STIFF_100, dist, np.ones(2), ts, idx)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + (256 << 10)


def test_audit_resolves_stiff_systems():
    # panels of period/128 leave exp(-100 (t - s)) unresolved for Simpson: the audit
    # was off by 1.9e-5 here, against 1.3e-14 for the stepper (Radau reference)
    traj = simulate_perturbed(_STIFF_100, disturbance_from_strings(["exp(-t)", "1"]), np.ones(2), 5.0)
    assert traj.check_error < 1e-9


def _recording_passes(monkeypatch):
    # (substeps, blow index) of every pass simulate_perturbed makes
    passes = []

    def record(sys, d, x0, ts, m):
        states, blow = _rk4_pass(sys, d, x0, ts, m)
        passes.append((m, blow))
        return states, blow

    monkeypatch.setattr(perturb, "_rk4_pass", record)
    return passes


def test_coarse_step_overflow_is_refined(monkeypatch):
    # RK4 at one substep per interval is unstable for -3000: five passes blow up after
    # too coarse a step and double without a previous answer; the two after them settle
    passes = _recording_passes(monkeypatch)
    d = disturbance_from_strings(["exp(-t)", "1"])
    traj = simulate_perturbed(_STIFF_3000, d, np.ones(2), 5.0, cross_check=False)
    assert [m for m, _ in passes] == [1, 2, 4, 8, 16, 32, 64]
    assert all(blow is not None for _, blow in passes[:5]) and passes[5:] == [(32, None), (64, None)]
    assert not traj.overflowed and traj.steps_per_interval == 64
    assert traj.states.tobytes() == _rk4_pass(_STIFF_3000, d, np.ones(2), traj.times, 64)[0].tobytes()


def test_first_interval_overflow_raises(monkeypatch):
    # x' = 800 x passes the cap inside the first sample interval once the substep
    # resolves it; coarser passes blow up too, and are refined first
    passes = _recording_passes(monkeypatch)
    with pytest.raises(BlowupError) as info:
        simulate_perturbed(system_from_strings([["800"]], 1.0), Disturbance.zero(1), np.ones(1), 14.0,
                           samples=16)
    assert str(info.value) == "state exceeded 1.0e+300 on the first sample interval"
    assert info.value.t_reached == 14.0 / 15.0
    assert passes == [(60, 2), (120, 2), (240, 1), (480, 1), (960, 1), (1920, 1)]
