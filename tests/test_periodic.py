"""Drift-integral machinery: frozen closed-form values and invariants.

The strong_coupling rates admit exact expressions (the extremum abscissas
solve sin u - cos u = 2/pi resp. sin u = 8/pi^2 - 1 with u = 12 t), frozen
below to full double precision.  Everything else is a structural property
that must hold for any valid system.
"""

import copy
import json
import math
import pickle

import numpy as np
import pytest

from lpstab import linalg
from lpstab.catalog import CATALOG, get, lti_diag, rotating_frame, strong_coupling
from lpstab.cli import _load_file
from lpstab.config import TOL
from lpstab.errors import InputError
from lpstab.expr import EvalError
from lpstab.lognorm import INF, ONE, TWO, mu
import lpstab.periodic as periodic
from lpstab.periodic import (
    SystemDef,
    _scan,
    barrier_series,
    classify,
    fce_strip,
    frozen_time_check,
    integrate,
    pi_integral,
    rate_summary,
    system_from_strings,
    validate_periodicity,
)

KINDS = [ONE, TWO, INF]

# strong_coupling, one-norm: lambda+ = 15/pi - 11/2, Pi+(T) = 5/2 - 11 pi/12,
# extrema of the drift deviation at sin u - cos u = 2/pi
SC_ONE = dict(
    lambda_plus=15.0 / math.pi - 5.5,
    lambda_minus=15.0 / math.pi + 20.5,
    delta_upper=1.287553223582326,
    delta_lower=-0.037553223582326,
    pi_plus_period=2.5 - 11.0 * math.pi / 12.0,
)

# strong_coupling, two-norm: lambda+ = 30/pi - 13, Pi+(T) = 5 - 13 pi/6,
# extrema at sin u = 8/pi^2 - 1
SC_TWO = dict(
    lambda_plus=30.0 / math.pi - 13.0,
    lambda_minus=30.0 / math.pi + 13.0,
    delta_upper=1.044051108848917,
    delta_lower=-0.008517202916176,
    pi_plus_period=5.0 - 13.0 * math.pi / 6.0,
)


@pytest.mark.parametrize("kind,frozen", [(ONE, SC_ONE), (TWO, SC_TWO)],
                         ids=["one", "two"])
def test_strong_coupling_frozen_rates(kind, frozen):
    r = rate_summary(strong_coupling().system, kind)
    assert r.lambda_plus == pytest.approx(frozen["lambda_plus"], abs=1e-9)
    assert r.lambda_minus == pytest.approx(frozen["lambda_minus"], abs=1e-9)
    assert r.delta_upper_plus == pytest.approx(frozen["delta_upper"], abs=1e-9)
    assert r.delta_lower_plus == pytest.approx(frozen["delta_lower"], abs=1e-9)
    assert r.pi_plus_period == pytest.approx(frozen["pi_plus_period"], abs=1e-9)
    # the matrix is symmetric with constant trace -26, so mu[-A] - mu[A] = 26
    # pointwise and the two deviation profiles coincide exactly
    assert r.delta_upper_minus == pytest.approx(r.delta_upper_plus, abs=1e-9)
    assert r.delta_lower_minus == pytest.approx(r.delta_lower_plus, abs=1e-9)
    assert r.lambda_minus - r.lambda_plus == pytest.approx(26.0, abs=1e-9)


def test_strong_coupling_one_norm_delta_sum():
    # closed form: delta_up + delta_low = 5/4 exactly in the one-norm
    r = rate_summary(strong_coupling().system, ONE)
    assert r.delta_upper_plus + r.delta_lower_plus == pytest.approx(1.25, abs=1e-9)


def test_strong_coupling_symmetric_inf_equals_one():
    # A(t) = A(t)^T makes row and column sums agree, so mu_inf == mu_1
    sysd = strong_coupling().system
    a = rate_summary(sysd, ONE)
    b = rate_summary(sysd, INF)
    assert b.lambda_plus == pytest.approx(a.lambda_plus, abs=1e-10)
    assert b.delta_upper_plus == pytest.approx(a.delta_upper_plus, abs=1e-10)
    assert b.delta_lower_plus == pytest.approx(a.delta_lower_plus, abs=1e-10)


def test_strong_coupling_verdicts():
    sysd = strong_coupling().system
    for kind, frozen in ((ONE, SC_ONE), (TWO, SC_TWO)):
        v = classify(sysd, kind)
        assert v.classification == "UES"
        K = math.exp(frozen["delta_upper"] - frozen["delta_lower"])
        assert v.K == pytest.approx(K, abs=1e-8)
        alpha = -frozen["pi_plus_period"] / (math.pi / 6.0)
        assert v.alpha_tilde == pytest.approx(alpha, abs=1e-9)
        assert v.strip == pytest.approx((-frozen["lambda_minus"], frozen["lambda_plus"]), abs=1e-9)
        assert v.strip == pytest.approx(fce_strip(sysd, kind), abs=1e-12)


def test_rotating_frame_two_norm_is_flat():
    # mu_2[A_beta(t)] = max(beta - 1, -1) and mu_2[-A_beta(t)] = 1, both constant
    for beta in (0.25, 1.0, 1.5, 3.0):
        sysd = rotating_frame(beta).system
        for t in (0.0, 0.7, 2.0, 5.1):
            assert mu(sysd.matrix(t), TWO) == pytest.approx(max(beta - 1.0, -1.0), abs=1e-12)
            assert mu(-sysd.matrix(t), TWO) == pytest.approx(1.0, abs=1e-12)
        r = rate_summary(sysd, TWO)
        assert r.lambda_plus == pytest.approx(max(beta - 1.0, -1.0), abs=1e-10)
        assert r.lambda_minus == pytest.approx(1.0, abs=1e-10)
        for d in (r.delta_upper_plus, r.delta_lower_plus,
                  r.delta_upper_minus, r.delta_lower_minus):
            assert d == pytest.approx(0.0, abs=1e-9)
        got, _ = pi_integral(sysd, TWO, 1, sysd.t0 + 2.0 * math.pi)
        assert got == pytest.approx(2.0 * math.pi * max(beta - 1.0, -1.0), abs=1e-9)


@pytest.mark.parametrize("beta,expected", [
    (0.25, "UES"), (0.5, "UES"), (0.9, "UES"),
    (1.0, "US"),
    (1.5, "inconclusive"), (3.0, "inconclusive"),
])
def test_rotating_frame_two_norm_verdicts(beta, expected):
    v = classify(rotating_frame(beta).system, TWO)
    assert v.classification == expected
    if expected == "UES":
        assert v.alpha_tilde == pytest.approx(1.0 - beta, abs=1e-9)
    if expected == "US":
        assert v.K == pytest.approx(1.0, abs=1e-8)
        assert v.alpha_tilde == 0.0


def test_scalar_unstable_exact_rates():
    # x' = (0.3 + sin t) x: Pi+(t) = 0.3 t + 1 - cos t from t0 = 0
    sysd = CATALOG["scalar_unstable"]().system
    for kind in KINDS:
        r = rate_summary(sysd, kind)
        assert r.lambda_plus == pytest.approx(0.3, abs=1e-9)
        assert r.lambda_minus == pytest.approx(-0.3, abs=1e-9)
        assert r.delta_upper_plus == pytest.approx(2.0, abs=1e-9)
        assert r.delta_lower_plus == pytest.approx(0.0, abs=1e-9)
        assert r.delta_upper_minus == pytest.approx(0.0, abs=1e-9)
        assert r.delta_lower_minus == pytest.approx(-2.0, abs=1e-9)
        v = classify(sysd, kind)
        assert v.classification == "unstable"
        assert v.K is None and v.alpha_tilde is None


def test_lti_diag_exact():
    sysd = lti_diag().system
    assert sysd.is_constant
    for kind in KINDS:
        r = rate_summary(sysd, kind)
        assert r.lambda_plus == -1.0
        assert r.lambda_minus == 2.0
        assert r.quadrature_error == 0.0
        for d in (r.delta_upper_plus, r.delta_lower_plus,
                  r.delta_upper_minus, r.delta_lower_minus):
            assert d == 0.0
        v = classify(sysd, kind)
        assert v.classification == "UES"
        assert v.K == 1.0
        assert v.alpha_tilde == pytest.approx(1.0, abs=1e-15)
        # for a diagonal matrix the strip is exactly the eigenvalue hull
        assert v.strip == (-2.0, -1.0)


def test_jordan_block_norm_dependent_strip():
    sysd = CATALOG["lti_jordan_marginal"]().system
    assert fce_strip(sysd, ONE) == pytest.approx((-1.0, 1.0), abs=1e-12)
    assert fce_strip(sysd, INF) == pytest.approx((-1.0, 1.0), abs=1e-12)
    # the two-norm strip is strictly sharper
    assert fce_strip(sysd, TWO) == pytest.approx((-0.5, 0.5), abs=1e-12)
    for kind in KINDS:
        assert classify(sysd, kind).classification == "inconclusive"


def test_no_contradiction_across_norms():
    # different norms may disagree in sharpness, never in direction
    for factory in CATALOG.values():
        sysd = factory().system
        got = {classify(sysd, kind).classification for kind in KINDS}
        assert not (got & {"UES", "US"} and "unstable" in got)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_delta_signs(name):
    # the deviation from the mean line is >= 0 at its max, <= 0 at its min
    sysd = CATALOG[name]().system
    for kind in KINDS:
        r = rate_summary(sysd, kind)
        assert r.delta_upper_plus >= -1e-9
        assert r.delta_lower_plus <= 1e-9
        assert r.delta_upper_minus >= -1e-9
        assert r.delta_lower_minus <= 1e-9


@pytest.mark.parametrize("name", ["strong_coupling", "rotating_frame", "scalar_unstable"])
def test_drift_sum_nonnegative_and_monotone(name):
    # mu[A] + mu[-A] >= 0 pointwise, so the summed running integrals are
    # nonnegative and nondecreasing
    sysd = CATALOG[name]().system
    T = sysd.period
    for kind in (ONE, TWO):
        series = barrier_series(sysd, kind, sysd.t0 + 3.0 * T, samples=256)
        total = series[:, 1] + series[:, 2]
        assert total.min() >= -1e-9
        assert np.diff(total).min() >= -1e-8


@pytest.mark.parametrize("name", ["strong_coupling", "rotating_frame", "scalar_unstable"])
def test_sandwich_envelopes(name):
    # lambda (t - t0) + delta_low <= Pi(t) <= lambda (t - t0) + delta_up
    sysd = CATALOG[name]().system
    for kind in (ONE, TWO):
        s = barrier_series(sysd, kind, sysd.t0 + 3.0 * sysd.period, samples=256)
        assert (s[:, 1] - s[:, 3]).min() >= -1e-8   # pi_plus above lower line
        assert (s[:, 4] - s[:, 1]).min() >= -1e-8   # and below upper line
        assert (s[:, 2] - s[:, 5]).min() >= -1e-8
        assert (s[:, 6] - s[:, 2]).min() >= -1e-8


def test_pi_integral_period_reduction():
    # values far out must match a direct quadrature from t0
    sysd = strong_coupling().system
    T = sysd.period
    for kind in (ONE, TWO):
        for t in (sysd.t0 + 2.3 * T, sysd.t0 + 7.04 * T):
            def f(s, k=kind):
                return mu(sysd.matrix(s), k)
            direct, _ = integrate(f, sysd.t0, t)
            got, err = pi_integral(sysd, kind, 1, t)
            assert got == pytest.approx(direct, abs=1e-7)
            assert err >= 0.0


def test_pi_integral_at_t0_is_zero():
    sysd = strong_coupling().system
    got, err = pi_integral(sysd, ONE, 1, sysd.t0)
    assert got == 0.0 and err == 0.0


def test_validate_periodicity_catalog():
    for factory in CATALOG.values():
        assert validate_periodicity(factory().system) <= 1e-9


def test_validate_periodicity_rejects():
    bad = system_from_strings([["t"]], 1.0)
    with pytest.raises(InputError, match="periodic"):
        validate_periodicity(bad)


def test_declared_subperiod_passes():
    # declaring 2 pi for a pi-periodic entry is allowed
    sysd = system_from_strings([["sin(2*t)"]], 2.0 * math.pi)
    assert validate_periodicity(sysd) <= 1e-12


def test_classify_zero_tol_override():
    sysd = strong_coupling().system
    assert classify(sysd, ONE, zero_tol=0.0).classification == "UES"
    # a band wider than |Pi+(T)| downgrades the verdict to plain stability
    assert classify(sysd, ONE, zero_tol=1.0).classification == "US"
    with pytest.raises(InputError):
        classify(sysd, ONE, zero_tol=-1.0)
    with pytest.raises(InputError):
        classify(sysd, ONE, zero_tol=math.inf)


def test_frozen_time_strong_coupling_not_applicable():
    # frozen eigenvalues -13 +/- 7.5 sqrt(2 + 2 sin 12t) reach +2
    rep = frozen_time_check(strong_coupling().system)
    assert not rep.applicable
    assert rep.alpha == pytest.approx(-2.0, abs=1e-9)
    assert not rep.c1_satisfied and not rep.c2_satisfied


def test_frozen_time_rotating_frame():
    # frozen spectra sit at real part (beta - 2)/2 = -1/4, uniformly Hurwitz,
    # yet the slow-variation bounds cannot come close: the route stays silent
    # exactly where the flow is unstable
    rep = frozen_time_check(rotating_frame(1.5).system)
    assert rep.applicable
    assert rep.alpha == pytest.approx(0.25, abs=1e-9)
    assert rep.sup_adot == pytest.approx(1.5, abs=1e-5)
    assert not rep.c1_satisfied
    assert not rep.c2_satisfied
    assert rep.c2_bound_alt <= rep.c2_bound


def test_frozen_time_constant_system():
    rep = frozen_time_check(lti_diag().system)
    assert rep.applicable
    assert rep.alpha == pytest.approx(1.0, abs=1e-12)
    assert rep.sup_adot == 0.0
    assert rep.c2_satisfied  # a constant matrix moves slower than any bound


def _ref_frozen_time_check(sys, grid_points=64):
    # the per-point loop that frozen_time_check batches: three scalar A(t) calls per point
    n = sys.n
    T = sys.period
    h = TOL.fd_step * T
    m_bound = 0.0
    worst = -math.inf
    sup_adot = 0.0
    for j in range(grid_points):
        t = sys.t0 + T * j / grid_points
        A = sys.matrix(t)
        m_bound = max(m_bound, linalg.mat_norm(A, TWO))
        worst = max(worst, max(z.real for z in linalg.gen_eigs(A)))
        if not sys.is_constant:
            dA = (sys.matrix(t + h) - sys.matrix(t - h)) / (2.0 * h)
            sup_adot = max(sup_adot, linalg.mat_norm(dA, TWO))
    m_margin = 1.05 * m_bound
    alpha = -worst
    applicable = worst < 0.0
    c1 = applicable and alpha > 4.0 * m_margin
    if applicable and m_margin > 0.0:
        c2_bound = (2.0 / (2 * n - 1)) * alpha ** (4 * n - 2) / (2.0 * m_margin ** (4 * n - 4))
        c2_bound_alt = (2.0 / (2 * n - 1)) * alpha ** (4 * n - 2) / ((2.0 * m_margin) ** (4 * n - 4))
        c2 = sup_adot < c2_bound
    else:
        c2_bound = 0.0
        c2_bound_alt = 0.0
        c2 = False
    return periodic.FrozenTimeReport(applicable, grid_points, m_bound, m_margin, worst,
                                     alpha, sup_adot, c1, c2, c2_bound, c2_bound_alt)


@pytest.mark.parametrize("name", sorted(CATALOG) + ["3x3-file"])
def test_frozen_time_check_matches_per_point_loop(name, tmp_path):
    if name == "3x3-file":
        path = tmp_path / "sys3.json"
        path.write_text(json.dumps({"entries": [["-1+sin(t)", "1", "0"], ["0", "-2", "cos(2*t)"],
                                                ["0.5", "0", "-1.5+0.5*sin(t)"]],
                                    "period": 2.0 * math.pi, "t0": 0.4}))
        sysd = _load_file(str(path))
    else:
        sysd = CATALOG[name]().system
    # repr tells -0.0 from 0.0 and round-trips every float
    assert repr(tuple(frozen_time_check(sysd))) == repr(tuple(_ref_frozen_time_check(sysd)))


def test_system_validation():
    with pytest.raises(InputError):
        system_from_strings([["1", "0"]], 1.0)          # not square
    with pytest.raises(InputError):
        system_from_strings([["1"]], 0.0)               # bad period
    with pytest.raises(InputError):
        system_from_strings([["1"]], -2.0)
    with pytest.raises(InputError):
        system_from_strings([["1"]], math.nan)
    with pytest.raises(InputError):
        system_from_strings([["1"]], 1.0, t0=-0.5)      # negative start
    with pytest.raises(InputError):
        SystemDef(entries=(), period=1.0)
    n = 65
    with pytest.raises(InputError):
        system_from_strings([["0"] * n for _ in range(n)], 1.0)


def test_system_hash_is_cached(monkeypatch):
    # lru_cache lookups hash the system; the n^2 expression trees are walked once, at construction
    import lpstab.expr as expr
    rows = [["-1+sin(t)", "2*cos(t)"], ["0.5", "-3+t/10"]]
    a = system_from_strings(rows, 2.0 * math.pi)
    b = system_from_strings(rows, 2.0 * math.pi)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) != hash(system_from_strings(rows, math.pi))
    calls = []
    for cls in (expr.Num, expr.TimeVar, expr.Const, expr.Neg, expr.BinOp, expr.Call):
        monkeypatch.setattr(cls, "__hash__", lambda self, f=cls.__hash__: calls.append(self) or f(self))
    assert hash(a) == hash(b)
    assert calls == []
    assert hash(system_from_strings(rows, 2.0 * math.pi)) == hash(a) and calls


def test_system_and_norm_kind_are_immutable_and_copyable():
    sysd = strong_coupling().system
    for obj, attr in ((sysd, "period"), (ONE, "tag")):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(obj, attr, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(obj, attr)
    again = pickle.loads(pickle.dumps(sysd))
    assert again == sysd and hash(again) == hash(sysd) and again.is_constant == sysd.is_constant
    twin = copy.copy(TWO)
    assert twin.tag == "two" and twin != TWO  # norm kinds compare by identity


def test_barrier_series_validation():
    sysd = lti_diag().system
    with pytest.raises(ValueError):
        barrier_series(sysd, ONE, sysd.t0)
    with pytest.raises(ValueError):
        barrier_series(sysd, ONE, sysd.t0 + 1.0, samples=1)
    s = barrier_series(sysd, ONE, sysd.t0 + 2.0, samples=3)
    assert s.shape == (3, 7)
    assert s[0, 0] == sysd.t0 and s[-1, 0] == pytest.approx(sysd.t0 + 2.0)


def test_catalog_get():
    assert get("example2").system is not None
    assert get("example1", {"beta": 0.5}).notes["mu_two"] == pytest.approx(-0.5)
    with pytest.raises(InputError):
        get("no_such_system")
    with pytest.raises(InputError):
        get("strong_coupling", {"beta": 1.0})
    with pytest.raises(InputError):
        get("rotating_frame", {"gamma": 1.0})


# ------------------------------------------- array routes against scalar references

def _ref_adapt(f, a, b, fa, fm, fb, whole, tol, depth):
    # the one-panel-at-a-time recursion that integrate() batches by level
    m = 0.5 * (a + b)
    flm = f(0.5 * (a + m))
    frm = f(0.5 * (m + b))
    h12 = (b - a) / 12.0
    left = h12 * (fa + 4.0 * flm + fm)
    right = h12 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0
    lv, le = _ref_adapt(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
    rv, re = _ref_adapt(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    return lv + rv, le + re


def _ref_integrate(f, a, b):
    # scalar adaptive Simpson over [a, b], f mapping a float to a float
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    value, err = _ref_adapt(f, a, b, fa, fm, fb, whole, TOL.quad_abs, TOL.quad_max_depth)
    return sign * value, err


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


_SC = strong_coupling().system


@pytest.mark.parametrize("f", [
    lambda s: np.abs(s - 0.3) * (s * s - 1.0) + 2.0,     # a kink at 0.3
    lambda s: mu(_SC.matrix(s), TWO),                     # kinks where eigenvalues cross
    lambda s: mu(-_SC.matrix(s), ONE),
], ids=["kinked-poly", "mu-two", "mu-one-reversed"])
def test_integrate_matches_scalar_reference(f):
    rng = np.random.default_rng(4242)
    a = rng.uniform(-1.0, 2.0, 24)
    b = a + rng.uniform(-0.4, 0.4, 24)      # about half the intervals reversed
    b[::7] = a[::7]                          # and some of zero length
    value, err = integrate(f, a, b)
    scalar = lambda s: float(f(np.array([s]))[0])  # noqa: E731
    ref = [_ref_integrate(scalar, float(x), float(y)) for x, y in zip(a, b)]
    assert _bits(value) == _bits([v for v, _ in ref])
    assert _bits(err) == _bits([e for _, e in ref])
    # scalar limits give floats; a 2-d grid of limits keeps its shape
    one = integrate(f, float(a[1]), float(b[1]))
    assert type(one[0]) is float and _bits(one) == _bits(ref[1])
    grid, _ = integrate(f, a.reshape(4, 6), b.reshape(4, 6))
    assert _bits(grid) == _bits(value)


def test_integrate_stops_on_non_finite_values(run_limited):
    # refining a NaN panel used to split it down to the depth cap, doubling the
    # panel arrays per level; in a subprocess, so a regression hits its memory limit
    script = """
from lpstab import lognorm, periodic
from lpstab.errors import NumericError
big = periodic.system_from_strings([["1e308*cos(t)", "1e308"], ["1e308", "1e308*sin(t)"]], 6.283185307179586)
for call in (lambda: periodic.rate_summary(big, lognorm.ONE),
             lambda: periodic.integrate(lambda t: 0.0 * t + 1e308, 0.5, 1.0)):
    try:
        call()
    except NumericError as exc:
        print(exc)
"""
    proc = run_limited(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("integrand or its Simpson estimate is not finite from t=0\n"
                           "integrand or its Simpson estimate is not finite from t=0.5\n")


def test_integrate_rejects_infinite_limits():
    with pytest.raises(ValueError):
        integrate(lambda s: s, np.array([0.0, 1.0]), np.array([1.0, math.inf]))


@pytest.mark.parametrize("sysd", [_SC, rotating_frame(1.5).system, lti_diag().system,
                                  system_from_strings([["sin(t)", "1", "exp(cos(t))"],
                                                       ["0", "-t^0", "abs(sin(2*t))"],
                                                       ["cos(t)^2", "2", "-3"]], 2 * math.pi)],
                         ids=["strong_coupling", "rotating_frame", "constant", "3x3"])
def test_matrix_stack_matches_scalar_calls(sysd):
    ts = np.linspace(sysd.t0, sysd.t0 + 2.5 * sysd.period, 31)
    stack = sysd.matrix(ts)
    assert stack.shape == (31, sysd.n, sysd.n)
    assert _bits(stack) == _bits([sysd.matrix(float(t)) for t in ts])
    assert _bits(sysd.matrix(ts.reshape(31, 1))) == _bits(stack)


def test_pi_integral_array_matches_scalar_calls():
    T = _SC.period
    ts = np.concatenate(([_SC.t0, _SC.t0 - 1e-14, _SC.t0 + T, _SC.t0 + 3 * T],
                         np.linspace(_SC.t0, _SC.t0 + 4.2 * T, 57)))
    for kind in (ONE, TWO):
        for sign in (1, -1):
            value, err = pi_integral(_SC, kind, sign, ts)
            ref = [pi_integral(_SC, kind, sign, float(t)) for t in ts]
            assert _bits(value) == _bits([v for v, _ in ref])
            assert _bits(err) == _bits([e for _, e in ref])
    # whole periods of a UES system keep the sign of zero at t0
    assert math.copysign(1.0, pi_integral(_SC, ONE, 1, ts)[0][0]) == -1.0
    with pytest.raises(ValueError, match="precedes"):
        pi_integral(_SC, ONE, 1, np.array([_SC.t0, _SC.t0 - 0.1]))


def test_validate_periodicity_names_first_failing_time():
    # A(0) is finite; exp overflows first at t0 + T = 2, ahead of the grid times after it
    sysd = system_from_strings([["exp(exp(20*sin(t)))"]], 2.0)
    with pytest.raises(EvalError) as info:
        validate_periodicity(sysd)
    assert info.value.t == 2.0


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _ref_golden_max(fn, a, b, tol):
    # a derivative-free golden-section search over scalar calls, the reference for the bisection
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fn(c)
    fd = fn(d)
    best = max(fc, fd)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        best = max(best, fc, fd)
    return best


def _ref_deltas(sysd, kind):
    # delta_upper/delta_lower per sign, each polished by its own search over scalar pi_integral calls
    out = []
    for sign in (1, -1):
        ts, cum, _ = _scan(sysd, kind, sign)
        lam = float(cum[-1]) / sysd.period
        g = cum - lam * (ts - sysd.t0)
        tol = TOL.refine_width * (float(ts[-1]) - float(ts[0]))

        def phi(t, sign=sign, lam=lam):
            return periodic.pi_integral(sysd, kind, sign, t)[0] - lam * (t - sysd.t0)

        for j, want_max in ((int(np.argmax(g)), True), (int(np.argmin(g)), False)):
            a, b = float(ts[max(j - 1, 0)]), float(ts[min(j + 1, len(ts) - 1)])
            if want_max:
                out.append(max(float(g[j]), _ref_golden_max(phi, a, b, tol)))
            else:
                out.append(min(float(g[j]), -_ref_golden_max(lambda t: -phi(t), a, b, tol)))
    return out


_VARYING = sorted(n for n in CATALOG if not CATALOG[n]().system.is_constant)


@pytest.mark.parametrize("name", _VARYING)
def test_bisection_polish_matches_golden_section_reference(monkeypatch, name):
    sysd = CATALOG[name]().system
    calls = []
    counted = periodic.pi_integral
    monkeypatch.setattr(periodic, "pi_integral", lambda *a: calls.append(a) or counted(*a))
    for kind in KINDS:
        calls.clear()
        r = rate_summary(sysd, kind)
        # one call per sign, at every converged abscissa of that sign at once
        assert [c[2] for c in calls] == [1, -1]
        got = (r.delta_upper_plus, r.delta_lower_plus, r.delta_upper_minus, r.delta_lower_minus)
        # the two searches stop at different points of the same extremum: last-bit differences
        assert np.abs(np.subtract(got, _ref_deltas(sysd, kind))).max() <= 1e-13, (name, kind.tag)


@pytest.mark.parametrize("name", _VARYING)
def test_offsets_bound_dense_samples(name):
    # independent of any search: phi at 8 points per scan cell stays inside [delta_lower, delta_upper]
    sysd = CATALOG[name]().system
    ts = sysd.t0 + sysd.period * np.arange(8 * TOL.scan_points + 1) / (8 * TOL.scan_points)
    for kind in KINDS:
        r = rate_summary(sysd, kind)
        for sign, lam, upper, lower in ((1, r.lambda_plus, r.delta_upper_plus, r.delta_lower_plus),
                                        (-1, r.lambda_minus, r.delta_upper_minus, r.delta_lower_minus)):
            phi = pi_integral(sysd, kind, sign, ts)[0] - lam * (ts - sysd.t0)
            assert upper >= phi.max() - 1e-12, (name, kind.tag, sign)
            assert lower <= phi.min() + 1e-12, (name, kind.tag, sign)


def test_polish_finds_the_higher_of_two_close_peaks():
    # phi = 2 (1 - cos 20t) + 2e-4 (cos t - 1): ten peaks near 4, the highest at pi/20 and
    # 2 pi - pi/20; the grid's highest sample is on a lower one
    sysd = system_from_strings([["-1 + 40*sin(20*t) - 0.0002*sin(t)"]], 2.0 * math.pi)
    r = rate_summary(sysd, ONE)
    assert r.delta_upper_plus == pytest.approx(4.0 + 2e-4 * (math.cos(math.pi / 20.0) - 1.0), abs=1e-9)
