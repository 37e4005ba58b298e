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
import lpstab.transition as transition
from lpstab.catalog import CATALOG, lti_diag, rotating_frame, strong_coupling
from lpstab.config import TOL
from lpstab.errors import BlowupError, ConvergenceError, NumericError
from lpstab.floquet import monodromy_fce, verify_decay, verify_sandwich, verify_strip
from lpstab.linalg import mat_norm, vec_norm
from lpstab.lognorm import INF, ONE, TWO
from lpstab.periodic import classify, pi_integral, rate_summary, system_from_strings
from lpstab.transition import _rk4_matrix, integrate_transitions

KINDS = [ONE, TWO, INF]

# strong_coupling characteristic exponent real parts, integrated once at
# tol = 1e-11 and frozen; they must sum to the constant trace -26
SC_FCE = (-21.156228460523, -4.843771539477)


@pytest.mark.parametrize("beta", [0.5, 1.5])
@pytest.mark.parametrize("t", [math.pi / 4.0, math.pi / 2.0, 2.0 * math.pi])
def test_transition_matches_closed_form(beta, t):
    entry = rotating_frame(beta)
    got = integrate_transitions(entry.system, [0.0], [t]).value[0]
    ref = entry.transition(t, 0.0)
    assert np.abs(got - ref).max() <= 1e-6


def test_transition_backward_inverts_forward():
    entry = rotating_frame(0.5)
    fwd = integrate_transitions(entry.system, [0.0], [1.3]).value[0]
    bwd = integrate_transitions(entry.system, [1.3], [0.0]).value[0]
    assert np.abs(fwd @ bwd - np.eye(2)).max() <= 1e-6


def test_transition_identity_at_zero_span():
    tm = integrate_transitions(lti_diag().system, [0.7], [0.7])
    assert np.array_equal(tm.value[0], np.eye(2))
    assert tm.steps[0] == 0 and tm.error_estimate[0] == 0.0


def test_cocycle_property():
    # Phi(c, a) = Phi(c, b) Phi(b, a), each factor integrated independently
    sysd = strong_coupling().system
    a, b, c = 0.0, 0.21, 0.47
    full = integrate_transitions(sysd, [a], [c]).value[0]
    first = integrate_transitions(sysd, [a], [b]).value[0]
    second = integrate_transitions(sysd, [b], [c]).value[0]
    scale = max(1.0, float(np.abs(full).max()))
    assert np.abs(second @ first - full).max() <= 1e-7 * scale


def test_flow_periodicity():
    # A(t + T) = A(t) forces Phi(t0 + 2T, t0 + T) = Phi(t0 + T, t0)
    sysd = strong_coupling().system
    T = sysd.period
    one = integrate_transitions(sysd, [sysd.t0], [sysd.t0 + T]).value[0]
    two = integrate_transitions(sysd, [sysd.t0 + T], [sysd.t0 + 2.0 * T]).value[0]
    assert np.abs(one - two).max() <= 1e-7


def test_rk4_is_fourth_order():
    entry = rotating_frame(1.5)
    ref = entry.transition(1.0, 0.0)
    errs = []
    for steps in (32, 64, 128):
        got = _rk4_one(entry.system, 0.0, 1.0, steps)
        errs.append(float(np.abs(got - ref).max()))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_transition_scalar_closed_form():
    entry = CATALOG["scalar_unstable"]()
    got = integrate_transitions(entry.system, [0.0], [3.0]).value[0]
    assert got[0, 0] == pytest.approx(entry.transition(3.0, 0.0)[0, 0], rel=1e-7)


def test_monodromy_lti_diag():
    est = monodromy_fce(lti_diag().system)
    mags = sorted(abs(z) * 2.0 ** est.scale for z in est.multipliers)
    assert mags == pytest.approx([math.exp(-2.0), math.exp(-1.0)], rel=1e-8)
    assert sorted(est.real_parts) == pytest.approx([-2.0, -1.0], abs=1e-8)


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 3.0])
def test_monodromy_rotating_frame(beta):
    # exact multipliers e^{2 pi (beta - 1)} and e^{-2 pi}; est's are those of the
    # monodromy divided by 2**scale
    est = monodromy_fce(rotating_frame(beta).system)
    mags = sorted(abs(z) * 2.0 ** est.scale for z in est.multipliers)
    want = sorted((math.exp(2.0 * math.pi * (beta - 1.0)), math.exp(-2.0 * math.pi)))
    assert mags == pytest.approx(want, rel=1e-6)
    assert sorted(est.real_parts) == pytest.approx(sorted((beta - 1.0, -1.0)), abs=1e-7)


def test_monodromy_strong_coupling_frozen(monkeypatch):
    monkeypatch.setattr(transition, "TOL", TOL._replace(ode_tol=1e-11))
    est = monodromy_fce(strong_coupling().system)
    assert sorted(est.real_parts) == pytest.approx(sorted(SC_FCE), abs=1e-9)
    assert sum(est.real_parts) == pytest.approx(-26.0, abs=1e-8)


def test_strip_reads_an_unresolved_exponent_as_an_upper_bound():
    # exp(-100 T) is far below eigvals' round-off on a monodromy of size exp(-T); the
    # floor is read on the scaled product, and its bound carries the product's power of two
    sysd = system_from_strings([["-100+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
    fce = monodromy_fce(sysd)
    assert fce.unresolved == 1 and fce.floor == TOL.multiplier_floor * np.abs(fce.monodromy).max()
    assert fce.real_parts[0] == (math.log(fce.floor) + fce.scale * math.log(2.0)) / sysd.period
    assert fce.real_parts[1] == pytest.approx(-1.0, abs=1e-9)
    rates = rate_summary(sysd, ONE)
    assert verify_strip(rates, fce).passed
    # above the strip a bound says nothing; below it, it puts the exponent there too
    above = fce._replace(real_parts=(5.0, fce.real_parts[1]))
    assert verify_strip(rates, above).passed
    below = verify_strip(rates, fce._replace(real_parts=(-200.0, fce.real_parts[1])))
    assert not below.passed and below.worst_violation == pytest.approx(100.0, abs=1e-6)


_NON_NORMAL = system_from_strings([["-100", "1e60"], ["0", "-100"]], 6.0)


@pytest.mark.parametrize("sysd", [strong_coupling().system, _NON_NORMAL], ids=["strong_coupling", "non-normal"])
def test_monodromy_is_the_scaled_product_of_the_forward_period_segments(sysd):
    # the 15 forward segments, each divided by the power of two of its largest entry,
    # multiplied later ones on the left, and the product divided by its own after each;
    # the steps and exponents add up.  Unscaled after each segment, the non-normal
    # product, whose segments' largest entries are 1e42, would underflow to zero
    period = floquet._period_segments(sysd, True, TOL)
    fce = monodromy_fce(sysd)
    M, scale = np.eye(sysd.n), 0
    for seg in period.value:
        e = math.frexp(float(np.abs(seg).max()))[1]
        M = np.ldexp(seg, -e) @ M
        k = math.frexp(float(np.abs(M).max()))[1]
        M, scale = np.ldexp(M, -k), scale + e + k
    assert np.array_equal(fce.monodromy, M) and fce.scale == scale
    assert fce.steps == period.steps.sum()


def test_non_normal_monodromy_gives_upper_bounds():
    # the double multiplier exp(-600) is 1e-61 of the largest entry 6e-201 of M: both
    # exponents are unresolved, and their bounds lie above the exact -100
    fce = monodromy_fce(_NON_NORMAL)
    assert fce.unresolved == 2 and fce.real_parts[0] == fce.real_parts[1]
    assert -100.0 < fce.real_parts[0] == pytest.approx(-82.048, abs=1e-3)


_EXACT_EXPONENTS = {"lti_diag": (-2.0, -1.0), "scalar_unstable": (0.3,), "rotating_frame": (-1.0, 0.5),
                    **{f"rotating_frame({b})": tuple(sorted((b - 1.0, -1.0))) for b in (0.5, 1.0, 1.5, 3.0)}}


@pytest.mark.parametrize("name", sorted(CATALOG) + ["stiff100"]
                         + [f"rotating_frame({b})" for b in (0.5, 1.0, 1.5, 3.0)])
def test_monodromy_exponents_agree_with_the_whole_period_reference(name):
    # each resolved exponent against one integrate_transitions segment [t0, t0 + T], within
    # the two routes' error estimates read as in verify_strip, and within 1e-8 of exact
    if name == "stiff100":
        sysd = system_from_strings([["-100+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
    elif name.startswith("rotating_frame("):
        sysd = rotating_frame(float(name[15:-1])).system
    else:
        sysd = CATALOG[name]().system
    T, n = sysd.period, sysd.n
    fce = monodromy_fce(sysd)
    ref = integrate_transitions(sysd, [sysd.t0], [sysd.t0 + T])
    ref_mods = np.abs(np.linalg.eigvals(ref.value[0]))
    ref_mods = np.sort(ref_mods[ref_mods >= TOL.multiplier_floor * np.abs(ref.value[0]).max()])
    got = fce.real_parts[fce.unresolved:]
    assert len(got) == len(ref_mods) >= 1
    mods = sorted(abs(z) for z in fce.multipliers if abs(z) >= fce.floor)
    allowance = (math.log1p(n * fce.error_estimate / mods[0])
                 + math.log1p(n * ref.error_estimate[0] / ref_mods[0])) / T
    for g, m in zip(got, ref_mods):
        assert abs(g - math.log(m) / T) <= allowance, (name, g, math.log(m) / T, allowance)
    if name in _EXACT_EXPONENTS:
        assert got == pytest.approx(_EXACT_EXPONENTS[name], abs=1e-8)


def test_monodromy_past_the_float_range_is_resolved():
    # exp(250 T) is far above the largest float, each segment's exp(250 T/15) is not: the
    # product carries the difference as its power of two.  The multiplier exp(-T) is
    # round-off beside it, so its exponent is an upper bound
    fce = monodromy_fce(_GROWING)
    assert fce.unresolved == 1 and fce.scale > 1024
    assert fce.real_parts[0] == (math.log(fce.floor) + fce.scale * math.log(2.0)) / _GROWING.period
    assert fce.real_parts[1] == pytest.approx(250.0, abs=1e-8)


def test_monodromy_of_a_flow_below_the_float_range_is_resolved():
    # exp(-800) is below the smallest float, each segment's exp(-800/15) is not: the
    # product carries the difference as its power of two.  The exponent is off the exact
    # -800 by 0.8% under the kernel's absolute ODE test
    fce = monodromy_fce(system_from_strings([["-800"]], 1.0))
    assert fce.unresolved == 0 and fce.scale < -1074
    assert fce.real_parts[0] == pytest.approx(-800.0, rel=0.05)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_strip_contains_exponents(name):
    # the drift strip must bracket the monodromy exponents in every norm
    sysd = CATALOG[name]().system
    fce = monodromy_fce(sysd)
    for kind in KINDS:
        chk = verify_strip(rate_summary(sysd, kind), fce)
        assert chk.passed, (name, kind.tag, chk)
        assert chk.worst_violation <= chk.allowance
        lo, hi = classify(sysd, kind).strip
        for r in fce.real_parts:
            assert lo - chk.allowance <= r <= hi + chk.allowance


@pytest.mark.parametrize("kind", [ONE, TWO], ids=lambda k: k.tag)  # inf sums rows as one sums columns
def test_sandwich_bounds_products_past_the_float_range(kind):
    # the backward flow of -100 grows like exp(100 (t - s)), past the largest float over
    # 2T; the backward pairs alone, as products scaled by a power of two after every
    # step in a per-pair loop over the unscaled grid segments, violate no more
    sysd = system_from_strings([["-100+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
    got = verify_sandwich(sysd, kind)
    ts = np.linspace(sysd.t0, sysd.t0 + 2.0 * sysd.period, 16)
    bsegs = [np.ldexp(S, e) for S, e in _ref_check_segments(sysd, False, 2)]
    pm = pi_integral(sysd, kind, ts)[0][:, 1]
    worst, top = -math.inf, 0.0
    for i in range(15):
        B, log_scale = np.eye(2), 0.0
        for j in range(i + 1, 16):
            B = B @ bsegs[j - 1]
            e = math.frexp(float(np.abs(B).max()))[1]
            B, log_scale = B * 2.0 ** -e, log_scale + e * math.log(2.0)
            top = max(top, log_scale)
            worst = max(worst, math.log(mat_norm(B, kind)) + log_scale - (pm[j] - pm[i]))
    assert top > math.log(np.finfo(float).max)
    assert math.expm1(worst) <= got + 1e-12 and got <= TOL.sandwich_slack


def test_sandwich_checks_grid_segments_past_the_float_range():
    # the backward flow of -1000 stays in the float range over a T/15 period segment
    # and passes the largest float over a 2T/15 grid segment, which its power of two
    # scales back into the float range
    sysd = system_from_strings([["-1000+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
    segs, exps = floquet._grid_segments(floquet._period_segments(sysd, False, TOL).value, False, 2)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.ldexp(segs, exps[:, None, None])).all()
    for kind in (ONE, TWO):
        assert verify_sandwich(sysd, kind) <= TOL.sandwich_slack


def test_sandwich_blowup_is_unchecked_only_where_the_bound_allows_it(monkeypatch):
    # the backward flow of -3000 passes the cap within a grid segment, as its drift
    # bound allows; against zero drift the same blow-up is a violation
    with pytest.raises(BlowupError):
        verify_sandwich(_STIFF, ONE)
    monkeypatch.setattr(floquet.periodic, "pi_integral", lambda sys, kind, ts: (np.zeros((len(ts), 2)), 0.0))
    assert verify_sandwich(_STIFF, ONE) == math.inf


def test_sandwich_blowup_is_judged_by_its_own_period_segments(monkeypatch):
    # 1 x 1, so the drift bound is exact: the backward period segment [1/15, 0] grows by
    # e^719.6, past the largest float, while no 2T/15 grid segment's bound reaches e^673.5
    # either way, since each spans a contracting half too.  The forward bounds reach
    # e^67.5 at most.  Faked blown stacks leave only the drift route to run: a backward
    # blow-up is allowed by its own bound and propagates, a forward one is a violation
    lopsided = system_from_strings([["-8750*sin(14*pi*t)-7250*abs(sin(14*pi*t))"]], 1.0)
    blown = BlowupError("transition matrix over [0.0666667, 0] passed the largest float")
    monkeypatch.setattr(floquet, "_period_segments", lambda sys, forward, tol: None if forward else blown)
    with pytest.raises(BlowupError) as info:
        verify_sandwich(lopsided, ONE)
    assert info.value is blown
    monkeypatch.setattr(floquet, "_period_segments", lambda sys, forward, tol: blown if forward else None)
    assert verify_sandwich(lopsided, ONE) == math.inf


@pytest.mark.parametrize("kind,norm", [(ONE, 2.0), (TWO, (1.0 + math.sqrt(5.0)) / 2.0)],
                         ids=["one", "two"])
def test_sandwich_checks_a_single_segment_past_the_gram_range(monkeypatch, kind, norm):
    # a stiff peak makes the last backward period segment 1e200 [[1, 1], [0, 1]]: its
    # bare Gram product and its square pass the largest float.  Over 2T it lies in the
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
    monkeypatch.setattr(floquet.periodic, "pi_integral", lambda sys, kind, ts_:
                        (np.column_stack((np.zeros(16), np.where(ts > ts[7], step, 0.0)
                                          + np.where(ts > ts[14], step + 0.5, 0.0))), 0.0))
    assert verify_sandwich(lti_diag().system, kind) == pytest.approx(math.expm1(0.5), rel=1e-9)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_sandwich_bounds_flow(name):
    # |Phi(t, s)| <= exp(Pi+(t) - Pi+(s)) and the reversed-field analogue;
    # the returned figure is the largest relative violation over grid pairs
    sysd = CATALOG[name]().system
    for kind in KINDS:
        assert verify_sandwich(sysd, kind) <= 1e-6, (name, kind.tag)


def test_a_backward_blowup_leaves_the_forward_stack(monkeypatch):
    # the backward period stack of -3000 passes the largest float; verify_decay reads the
    # forward stack alone, which is cached apart from it
    with pytest.raises(BlowupError):
        verify_sandwich(_STIFF, ONE)
    v = classify(_STIFF, INF)
    assert v.classification == "UES"
    assert verify_decay(_STIFF, v).passed
    # a changed TOL gets fresh stacks
    misses = floquet._period_segments.cache_info().misses
    monkeypatch.setattr(transition, "TOL", TOL._replace(ode_tol=1e-9))
    verify_decay(_STIFF, v)
    assert floquet._period_segments.cache_info().misses == misses + 1


def test_decay_check_reraises_a_forward_blowup(monkeypatch):
    # the forward period stack feeds every decay product: a stack past the largest float,
    # faked here, leaves the check nothing to read, and its cached error propagates
    sysd = strong_coupling().system
    v = classify(sysd, TWO)
    blown = BlowupError("transition matrix over [0, 0.0666667] passed the largest float")
    monkeypatch.setattr(floquet, "_period_segments", lambda sys, forward, tol: blown if forward else None)
    with pytest.raises(BlowupError) as info:
        verify_decay(sysd, v)
    assert info.value is blown


def test_cross_checks_read_one_monodromy_for_every_verdict(monkeypatch):
    # three norms, one monodromy; each record is the one verify_* gives on its own
    sysd = strong_coupling().system
    verdicts = [classify(sysd, kind) for kind in KINDS]
    calls = []
    fce = monodromy_fce
    monkeypatch.setattr(floquet, "monodromy_fce", lambda sys: calls.append(sys) or fce(sys))
    records = floquet.cross_checks(sysd, verdicts)
    assert calls == [sysd]
    for (doc, failures), v in zip(records, verdicts):
        assert failures == []
        assert doc["strip_check"] == verify_strip(v.rates, fce(sysd))._asdict()
        assert doc["sandwich_violation"] == verify_sandwich(sysd, v.kind) and doc["sandwich_passed"] is True
        assert doc["decay"] == verify_decay(sysd, v)._asdict()
        assert "partially_resolved" not in doc


def test_cross_checks_without_a_monodromy(monkeypatch):
    # a forward period segment past the largest float, faked at the monodromy: its keys
    # are left out, and a stable verdict's strip and decay checks read null, each with a
    # note; the sandwich keeps its own rule, on the real stacks here
    sysd = strong_coupling().system
    verdicts = [classify(sysd, kind) for kind in (ONE, TWO)]
    blown = BlowupError("transition matrix over [0, 0.0666667] passed the largest float")

    def fake(sys):
        raise blown

    monkeypatch.setattr(floquet, "monodromy_fce", fake)
    for (doc, failures), v in zip(floquet.cross_checks(sysd, verdicts), verdicts):
        assert v.classification == "UES" and failures == []
        assert doc == {"strip_check": None, "sandwich_violation": verify_sandwich(sysd, v.kind),
                       "sandwich_passed": True, "decay": None,
                       "partially_resolved": [f"exponent strip not checked: {blown}",
                                              f"decay envelope not checked: {blown}"]}


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


def test_decay_allowance_is_sized_on_the_kernels_relative_scale():
    # each forward period segment of [["-300"]], exp(-20), is accepted to ode_tol relative
    # to its own largest entry.  Summed on that scale, the segments' error share of the
    # decay allowance alone covers the check's worst margin, without the 1e-6 slack; on
    # the scale 1 + max|Phi_j| it read 1.8e-17
    sysd = system_from_strings([["-300"]], 1.0)
    check = verify_decay(sysd, classify(sysd, ONE))
    share = check.allowance - TOL.decay_slack
    assert check.passed and check.worst_margin == pytest.approx(-4.29e-9, rel=1e-2)
    assert share == pytest.approx(8.6e-9, rel=1e-2) and -check.worst_margin < share
    # one relative figure for the decay allowance and the monodromy's error bound
    rel = floquet._relative_error(floquet._period_segments(sysd, True, transition.TOL))
    assert check.allowance == TOL.decay_slack + math.log1p(3.0 * rel) + 3.0 * rel
    fce = monodromy_fce(sysd)
    assert fce.error_estimate == pytest.approx(rel * abs(fce.monodromy[0, 0]), rel=1e-12)


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
# loop's largest entry, while step counts, passes past the cap and batched-against-single
# results stay exact
_VALUE_BOUND = 1e-13


def _rk4_one(sys, a, b, steps):
    # the kernel on one segment
    return _rk4_matrix(sys, np.array([a]), np.array([b]), steps)[0]


def _ref_rk4_matrix(sys, a, b, steps, tops=None):
    # the sequential one-segment loop, A(t) read from one matrix call on the stage
    # grid (bit-equal to scalar calls, see test_periodic.py); tops, a list, gets each
    # step's largest entry.  A diverging loop passes the largest float quietly, as the
    # kernel does
    Phi = np.eye(sys.n)
    h = (b - a) / steps
    ts = a + np.arange(steps) * h
    stages = sys.matrix(np.stack((ts, ts + 0.5 * h, ts + h), axis=-1))
    with np.errstate(over="ignore", invalid="ignore"):
        for A1, A2, A4 in stages:
            K1 = A1 @ Phi
            K2 = A2 @ (Phi + (0.5 * h) * K1)
            K3 = A2 @ (Phi + (0.5 * h) * K2)
            K4 = A4 @ (Phi + h * K3)
            Phi = Phi + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
            if tops is not None:
                tops.append(float(np.abs(Phi).max()))
    return Phi


def _ref_integrate_transition(sys, t_from, t_to, tol=None, start_steps=None):
    # one segment at a time with step doubling, as (value, steps, error_estimate): a pass
    # is accepted when it agrees with the previous one to tol times its largest entry and
    # that entry is finite and nonzero.  A pass with an inf or NaN entry doubles while
    # |h| |A|_inf >= 1/2 on some node of its stage grid, and blows up otherwise
    tol = transition.TOL.ode_tol if tol is None else tol
    start, budget = transition.TOL.ode_start_steps, transition.TOL.ode_max_steps
    if t_to == t_from:
        return np.eye(sys.n), 0, 0.0
    steps = start_steps or max(8, min(start, int(math.ceil(start * abs(t_to - t_from) / sys.period))))
    prev = None
    while True:
        cur = _ref_rk4_matrix(sys, t_from, t_to, steps)
        top = float(np.abs(cur).max())
        if not np.isfinite(cur).all():
            nodes = t_from + (t_to - t_from) * np.arange(2 * steps + 1) / (2 * steps)
            if abs(t_to - t_from) / steps * float(mat_norm(sys.matrix(nodes), INF).max()) < 0.5:
                raise BlowupError(f"transition matrix over [{t_from:g}, {t_to:g}] passed the largest float")
        elif prev is not None:
            diff = float(np.abs(cur - prev).max())
            if diff <= tol * top:
                if top == 0.0:
                    raise NumericError(f"integrated transition matrix underflowed to zero over [{t_from:g}, {t_to:g}]")
                return cur, steps, diff / 15.0
        if steps * 2 > budget:
            raise ConvergenceError(f"transition matrix over [{t_from:g}, {t_to:g}] did not settle within {budget} steps")
        prev = cur
        steps *= 2


def _first_failure(sys, t_from, t_to):
    # the error a segment-by-segment loop raises first
    for a, b in zip(t_from, t_to):
        try:
            _ref_integrate_transition(sys, a, b)
        except NumericError as exc:
            return exc
    return None


_STIFF = system_from_strings([["-3000+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)
# grows like exp(250 t), past the largest float after t = 2.84 however fine the step
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
        segs, exps = floquet._grid_segments(floquet._period_segments(sysd, forward, TOL).value, forward, span)
        got = np.ldexp(segs, exps[:, None, None])
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
        assert got.steps[i] == steps
    assert len(set(got.steps.tolist())) > 3
    # the caller's times are copied, not frozen
    assert a.flags.writeable and b.flags.writeable
    # a segment integrated alone gives the bits of its row in the stack
    one = integrate_transitions(sysd, a[1:2], b[1:2], tol)
    assert [field.tobytes() for field in one] == [field[1:2].tobytes() for field in got]


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
    # at 64 steps RK4 diverges on -3000 over the two long segments: their passes end inf
    # or NaN as the loop's do, and each segment has the bits it has alone
    sysd = _STIFF
    a = np.array([0.0, 0.3, 0.0, 2.0])
    b = np.array([1e-3, 0.25, math.pi, 2.0 + 2.0 * math.pi])
    stack = _rk4_matrix(sysd, a, b, 64)
    past = []
    for i in range(4):
        assert _rk4_one(sysd, float(a[i]), float(b[i]), 64).tobytes() == stack[i].tobytes()
        ref = _ref_rk4_matrix(sysd, float(a[i]), float(b[i]), 64)
        if np.isfinite(ref).all():
            assert np.abs(stack[i] - ref).max() <= _VALUE_BOUND * np.abs(ref).max()
        else:
            past.append(i)
            assert not np.isfinite(stack[i]).all()
    assert past == [2, 3]


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
    width = transition._chunk(40)
    assert width == 2
    a = np.linspace(0.0, 1.0, 7)
    b = a + 0.5
    monkeypatch.setattr(transition, "_BLOCK_BYTES", 4 * transition._PER_STEP * width * 40 * 40 * 8)
    stack = _rk4_matrix(field, a, b, 5)
    assert field.calls == [(8, 3), (8, 3), (8, 3), (6, 3), (4, 3), (1, 3)]
    for i in range(a.size):
        assert _rk4_one(field, float(a[i]), float(b[i]), 5).tobytes() == stack[i].tobytes()
    monkeypatch.undo()
    assert _rk4_matrix(field, a, b, 5).tobytes() == stack.tobytes()


_KERNEL_SYSTEMS = {1: CATALOG["scalar_unstable"]().system, 3: _SYSTEMS[-1], 40: _CountingField(40)}


@pytest.mark.parametrize("n", sorted(_KERNEL_SYSTEMS))
@pytest.mark.parametrize("count", ["1", "2", "3", "C-1", "C", "C+1", "2C+1"])
def test_rk4_kernel_at_chunk_boundaries(monkeypatch, n, count):
    # step counts around the chunk length, forward, backward and zero-length spans,
    # integrated in one stack, in blocks of one pair, and one segment at a time
    sysd = _KERNEL_SYSTEMS[n]
    C = transition._chunk(n)
    steps = {"C-1": C - 1, "C": C, "C+1": C + 1, "2C+1": 2 * C + 1}.get(count) or int(count)
    rng = np.random.default_rng(steps)
    a = rng.uniform(0.0, 3.0, 12)
    b = a + rng.uniform(-1.5, 1.5, 12)
    b[::4] = a[::4]
    stack = _rk4_matrix(sysd, a, b, steps)
    monkeypatch.setattr(transition, "_BLOCK_BYTES", 1)
    assert _rk4_matrix(sysd, a, b, steps).tobytes() == stack.tobytes()
    monkeypatch.undo()
    for i in range(a.size):
        ref = _ref_rk4_matrix(sysd, float(a[i]), float(b[i]), steps)
        assert np.abs(stack[i] - ref).max() <= _VALUE_BOUND * np.abs(ref).max()
        assert _rk4_one(sysd, float(a[i]), float(b[i]), steps).tobytes() == stack[i].tobytes()
    assert (stack[::4] == np.eye(sysd.n)).all()


@pytest.mark.parametrize("span,steps,place", [(1.12, 96, 0), (1.16, 96, -1), (2.0 * math.pi, 64, 4)],
                         ids=["chunk-start", "chunk-end", "mid-chunk"])
def test_rk4_blowup_step_matches_loop(span, steps, place):
    # the sequential loop first passes the largest float at a chunk's start, at its end or
    # inside it.  The kernel checks no step: its pass ends inf or NaN as the loop's does, the
    # segments stacked with it keep their bits, and integrate_transitions refines the pass
    # (far too coarse for -3000) rather than reading it as growth
    tops = []
    _ref_rk4_matrix(_STIFF, 0.0, span, steps, tops)
    first = next(k for k, top in enumerate(tops) if not np.isfinite(top))
    assert first % transition._chunk(2) == place % transition._chunk(2)
    assert not np.isfinite(tops[-1])
    a = np.array([0.0, 0.0, 0.5])
    b = np.array([1e-3, span, 0.5])
    stack = _rk4_matrix(_STIFF, a, b, steps)
    assert not np.isfinite(stack[1]).all()
    assert np.isfinite(stack[[0, 2]]).all() and (stack[2] == np.eye(2)).all()
    for i in range(3):
        assert _rk4_one(_STIFF, float(a[i]), float(b[i]), steps).tobytes() == stack[i].tobytes()
    assert transition._too_coarse(_STIFF, a[1:2], b[1:2], np.array([steps]))[0]
    assert integrate_transitions(_STIFF, a[1:2], b[1:2], start_steps=steps).steps[0] > steps


@pytest.mark.parametrize("count", ["C", "C+1", "2C"])
def test_rk4_overflow_check_at_the_cap(count):
    # the cap is the largest float, about e^709.78.  RK4 approaches e^(rate) from below as
    # the steps double from a start around the chunk length: for x' = 700 x every pass is
    # finite and one is accepted near e^700 = 1.0e304 at a loose tol; x' = 710 x passes
    # the largest float once its steps resolve A, a BlowupError naming its segment
    C = transition._chunk(1)
    steps = {"C": C, "C+1": C + 1, "2C": 2 * C}[count]
    a, b = [0.0, 0.5], [1.0, 1.0]
    got = integrate_transitions(system_from_strings([["700"]], 1.0), a, b, tol=1e-2, start_steps=steps)
    assert abs(got.value[:, 0, 0] / np.exp([700.0, 350.0]) - 1.0).max() <= 1e-2
    with pytest.raises(BlowupError, match=r"^transition matrix over \[0, 1\] passed the largest float$"):
        integrate_transitions(system_from_strings([["710"]], 1.0), a, b, tol=1e-2, start_steps=steps)


@pytest.mark.parametrize("sysd,segments,max_steps,kind", [
    (_GROWING, [(0.0, 1e-3), (0.0, math.pi), (0.0, 2.0 * math.pi)], None, BlowupError),
    (_GROWING, [(0.0, 2.0 * math.pi), (0.0, math.pi)], None, BlowupError),
    # the second segment exhausts the step budget, and so does the third, whose passes end
    # past the cap with steps too coarse for A
    (_STIFF, [(0.0, 1e-3), (0.2, 0.1), (0.0, math.pi)], 256, ConvergenceError),
], ids=["blowup-second", "blowup-first", "convergence-before-blowup"])
def test_integrate_transitions_raises_first_failure(monkeypatch, sysd, segments, max_steps, kind):
    if max_steps is not None:
        monkeypatch.setattr(transition, "TOL", TOL._replace(ode_max_steps=max_steps))
    t_from, t_to = zip(*segments)
    want = _first_failure(sysd, t_from, t_to)
    assert type(want) is kind
    with pytest.raises(kind) as info:
        integrate_transitions(sysd, t_from, t_to)
    assert str(info.value) == str(want)


def test_stiff_transition_blowup_without_warnings(monkeypatch):
    # RK4 at 64 steps per period is unstable for -3000: each such pass ends past the cap
    # and, too coarse for A on its stage grid, doubles until it resolves the system; with
    # no room to double, the 64-step pass did not settle.  Nothing warns on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(_rk4_one(_STIFF, 0.0, 2.0 * math.pi, 64)).all()
        with monkeypatch.context() as m:
            m.setattr(transition, "TOL", TOL._replace(ode_max_steps=64))
            with pytest.raises(ConvergenceError) as info:
                integrate_transitions(_STIFF, [0.0], [2.0 * math.pi])
        assert str(info.value) == "transition matrix over [0, 6.28319] did not settle within 64 steps"
        tm = integrate_transitions(_STIFF, [0.0], [2.0 * math.pi])
    value, steps, err = _ref_integrate_transition(_STIFF, 0.0, 2.0 * math.pi)
    assert tm.steps[0] == steps == 16384
    assert np.abs(tm.value[0] - value).max() <= _VALUE_BOUND * np.abs(value).max()
    assert abs(tm.error_estimate[0] - err) <= 2.0 * _VALUE_BOUND * np.abs(value).max()


def test_blowup_retry_reads_the_blown_steps_stage_grid():
    # a pulse of -30000 about 0.1 wide, which A(t) at the segment's ends cannot see: the
    # 256-step pass passes the largest float, reads |A| on its whole stage grid, finds its
    # steps too coarse there, doubles and converges to diag(exp(-1 - 3000 sqrt(pi)),
    # exp(-1)), whose first entry is below the smallest float
    pulse = system_from_strings([["-1 - 30000*exp(-((t - 0.5390625)/0.1)^2)", "0"], ["0", "-1"]], 1.0)
    assert mat_norm(pulse.matrix(np.array([0.0, 1.0])), INF).max() < 1.0 + 1e-4
    assert not np.isfinite(_rk4_one(pulse, 0.0, 1.0, 256)).all()
    tm = integrate_transitions(pulse, [0.0], [1.0])
    assert np.abs(tm.value[0] - np.diag([0.0, math.exp(-1.0)])).max() <= 1e-9


def _ref_check_segments(sys, forward, span):
    # one transition call per one-period segment, divided by the power of two of its
    # largest entry; by Phi(t + T, s + T) = Phi(t, s) the grid t0 + k span T/15 has
    # products of `span` of them, taken modulo 15, as segments, each as (product, exponent
    # sum), the segment being the product times 2 to the exponent sum
    ts = np.linspace(sys.t0, sys.t0 + sys.period, 16)
    ends = [(float(ts[m]), float(ts[m + 1])) for m in range(15)]
    period = []
    for a, b in ends:
        value = integrate_transitions(sys, [a if forward else b], [b if forward else a]).value[0]
        k = math.frexp(float(np.abs(value).max()))[1]
        period.append((np.ldexp(value, -k), k))
    segs = []
    for k in range(15):
        S, e = period[span * k % 15]
        for d in range(1, span):
            R, f = period[(span * k + d) % 15]
            S, e = (R @ S if forward else S @ R), e + f
        segs.append((S, e))
    return segs


def _ref_sandwich(sys, kind):
    # one norm call per grid pair
    ts = np.linspace(sys.t0, sys.t0 + 2.0 * sys.period, 16)
    fsegs, bsegs = _ref_check_segments(sys, True, 2), _ref_check_segments(sys, False, 2)
    pp, pm = pi_integral(sys, kind, ts)[0].T
    worst = -math.inf
    for i in range(15):
        F = B = np.eye(sys.n)
        fe = be = 0
        for j in range(i + 1, 16):
            F, fe = fsegs[j - 1][0] @ F, fe + fsegs[j - 1][1]
            B, be = B @ bsegs[j - 1][0], be + bsegs[j - 1][1]
            worst = max(worst, float(np.expm1(np.log(mat_norm(F, kind)) + fe * math.log(2.0) - (pp[j] - pp[i]))),
                        float(np.expm1(np.log(mat_norm(B, kind)) + be * math.log(2.0) - (pm[j] - pm[i]))))
    return worst


def _ref_decay_margin(sys, verdict):
    # the pair and state margins of verify_decay, one norm call per pair
    ts = np.linspace(sys.t0, sys.t0 + 3.0 * sys.period, 16)
    segs = _ref_check_segments(sys, True, 3)
    worst = math.inf
    from_start = [(np.eye(sys.n), 0)]
    for i in range(15):
        P, e = np.eye(sys.n), 0
        for j in range(i + 1, 16):
            P, e = segs[j - 1][0] @ P, e + segs[j - 1][1]
            if i == 0:
                from_start.append((P, e))
            log_k = verdict.rates.delta_upper_plus - verdict.rates.delta_lower_plus  # K may be inf
            worst = min(worst, log_k - verdict.alpha_tilde * float(ts[j] - ts[i])
                        - (float(np.log(mat_norm(P, verdict.kind))) + e * math.log(2.0)))
    r = verdict.rates
    rng = random.Random(20260814)
    for _ in range(8):
        x0 = np.array([rng.gauss(0.0, 1.0) for _ in range(sys.n)])
        nx0 = vec_norm(x0, verdict.kind)
        if nx0 < 1e-6:
            continue
        for j in range(1, 16):
            dt = float(ts[j] - sys.t0)
            P, e = from_start[j]
            log_x = float(np.log(vec_norm(P @ x0, verdict.kind))) + e * math.log(2.0)
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


def test_one_by_one_checks_agree_in_every_norm():
    # every norm of a 1 x 1 system is |x|, so the checks give the same figures in each,
    # also where exp(-300 t) passes the smallest float within the decay check's 3 periods
    sysd = system_from_strings([["-300"]], 1.0)
    got = {(verify_sandwich(sysd, kind), verify_decay(sysd, classify(sysd, kind)).worst_margin) for kind in KINDS}
    assert len(got) == 1


_STIFF100 = system_from_strings([["-100+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi)


@pytest.mark.parametrize("sysd", [CATALOG[name]().system for name in sorted(CATALOG)] + [_STIFF100, _PEAKED],
                         ids=sorted(CATALOG) + ["stiff100", "peaked"])
def test_scaled_log_norms_match_unscaled_products(sysd):
    # each pair's log norm, the scaled product's plus its power of two, against the log
    # norm of its product of unscaled period segments, wherever that is a normal float
    tiny = np.finfo(float).tiny
    for forward, span in ((True, 2), (False, 2), (True, 3)):
        period = floquet._period_segments(sysd, forward, TOL).value
        P, shift, i, j = floquet._pair_products(*floquet._grid_segments(period, forward, span), forward)
        want = []
        with np.errstate(over="ignore", invalid="ignore"):  # past the largest float
            for a, b in zip(i.tolist(), j.tolist()):
                U = np.eye(sysd.n)
                for m in range(span * a, span * b):
                    U = period[m % 15] @ U if forward else U @ period[m % 15]
                want.append(U)
        normal = np.array([np.isfinite(U).all() and np.abs(U).max() >= tiny for U in want])
        assert normal.sum() >= 15
        for kind in KINDS:
            ref = np.log(mat_norm(np.array(want)[normal], kind))
            assert np.abs(np.log(mat_norm(P, kind))[normal] + shift[normal] - ref).max() <= 1e-12


def test_transition_limits_must_be_one_dimensional_and_of_one_length():
    sysd = lti_diag().system
    for t_from, t_to in (([0.0, 1.0], [1.0]), ([[0.0]], [[1.0]])):
        with pytest.raises(ValueError, match="t_from and t_to must be 1-d of one length"):
            integrate_transitions(sysd, t_from, t_to)


def test_transition_underflowing_to_zero_is_a_numeric_error():
    # exp(-45000) is far below the smallest float: the converged matrix has no spectrum
    sysd = system_from_strings([["-3000"]], 15.0)
    with pytest.raises(NumericError, match=r"^integrated transition matrix underflowed to zero over \[0, 15\]$"):
        integrate_transitions(sysd, [0.0], [15.0])


def test_monodromy_raises_the_cached_forward_blowup_again():
    # exp(800 t) passes the cap over the first segment; _period_segments caches the error,
    # so a second call raises the same one without integrating again
    sysd = system_from_strings([["800"]], 15.0)
    floquet._period_segments.cache_clear()
    raised = []
    for _ in range(2):
        with pytest.raises(BlowupError, match=r"^transition matrix over \[0, 1\] passed the largest float$") as info:
            monodromy_fce(sysd)
        raised.append(info.value)
    assert raised[0] is raised[1]
    assert floquet._period_segments.cache_info()[:2] == (1, 1)
