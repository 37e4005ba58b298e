"""Forced-trajectory simulator and disturbance diagnostics.

Closed-form transitions give exact homogeneous solutions; linearity gives
the forced ones via superposition.  Disturbance summaries are checked
against hand-integrable cases.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from lpstab import perturb
from lpstab.catalog import CATALOG, lti_diag, rotating_frame, strong_coupling
from lpstab.config import TOL
from lpstab.errors import BlowupError, ConvergenceError
from lpstab.expr import EvalError, evaluate
from lpstab.floquet import integrate_transition
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
    monkeypatch.setattr(perturb, "TOL", dataclasses.replace(TOL, ode_max_steps=256))
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


def _ref_voc_states(sys, d, x0, ts, check_idx):
    # two transitions per panel and d at its nodes, one call each
    rate = max(mat_norm(sys.matrix(float(t)), INF) for t in ts[:max(check_idx) + 1])
    panels = []
    for i in range(max(check_idx)):
        a, b = float(ts[i]), float(ts[i + 1])
        q = max(1, math.ceil(128.0 * (b - a) / sys.period), math.ceil(8.0 * (b - a) * rate))
        for k in range(q):
            pa = a + (b - a) * k / q
            pb = a + (b - a) * (k + 1) / q
            pm = 0.5 * (pa + pb)
            panels.append((pa, pm, pb, integrate_transition(sys, pa, pm, tol=1e-9).value,
                           integrate_transition(sys, pm, pb, tol=1e-9).value))
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


@pytest.mark.parametrize("sysd,periods", [(strong_coupling().system, 1.7), (rotating_frame(0.5).system, 1.7),
                                          (_STIFF_100, 0.08)],
                         ids=["strong_coupling", "rotating_frame", "stiff"])
def test_voc_states_match_per_panel_loop(sysd, periods):
    # on the stiff system |A|_inf, not the period, sets the panel count
    dist = disturbance_from_strings(["sin(3*t) + exp(-t)", "cos(t)"])
    x0 = np.array([0.5, -1.5])
    ts = np.linspace(sysd.t0, sysd.t0 + periods * sysd.period, 12)
    idx = [2, 7, 11]
    got = _voc_states(sysd, dist, x0, ts, idx)
    ref = _ref_voc_states(sysd, dist, x0, ts, idx)
    assert np.array(got).tobytes() == np.array(ref).tobytes()


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
