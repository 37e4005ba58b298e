"""Acceptance gate: one criterion per numbered marker, exact tolerances.

Every quoted constant is asserted at its stated tolerance against what the
package actually computes; where a quoted figure cannot be reproduced the
assertion is kept faithful and allowed to fail, with the discrepancy
spelled out in the failure message.  Known-irreproducible figures are
asserted last in their test so the sound ones still execute.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lpstab import cli
from lpstab.catalog import CATALOG, rotating_frame, strong_coupling
from lpstab.floquet import monodromy_fce, verify_decay
from lpstab.linalg import gen_eigs, mat_norm, solve_lyapunov
from lpstab.lognorm import INF, ONE, TWO, lyapunov_weighted, mu, weighted
from lpstab.periodic import (
    barrier_series,
    classify,
    frozen_time_check,
    pi_integral,
    rate_summary,
    system_from_strings,
)
from lpstab.transition import integrate_transitions

KINDS = [ONE, TWO, INF]


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def quote(name, got, want, tol=1e-3):
    return (f"{name}: computed {got:.10f}, quoted {want}, "
            f"|diff| {abs(got - want):.3e} vs tolerance {tol:g}")


@pytest.mark.criterion(1, "example2 one-norm table constants via the CLI, under 2 s")
def test_criterion_1_one_norm_constants():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lpstab.cli", "analyze", "--system", "example2",
         "--norm", "one", "--json"],
        capture_output=True, text=True, timeout=30)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.0, f"analyze took {elapsed:.2f} s, budget 2 s"
    doc = json.loads(proc.stdout)
    rates = doc["analyses"][0]["rates"]
    assert rates["lambda_plus"] == pytest.approx(-0.7253, abs=1e-3), \
        quote("lambda_plus", rates["lambda_plus"], -0.7253)
    assert rates["lambda_minus"] == pytest.approx(25.2747, abs=1e-3), \
        quote("lambda_minus", rates["lambda_minus"], 25.2747)
    assert rates["delta_upper_plus"] == pytest.approx(1.2872, abs=1e-3), \
        quote("delta_upper_plus", rates["delta_upper_plus"], 1.2872)
    assert rates["delta_upper_minus"] == pytest.approx(1.2871, abs=1e-3), \
        quote("delta_upper_minus", rates["delta_upper_minus"], 1.2871)
    # not reproducible: the true offset is -0.0375532 (closed form), so the
    # quoted -0.0364 sits 1.16e-3 outside the stated 1e-3 window
    assert rates["delta_lower_plus"] == pytest.approx(-0.0364, abs=1e-3), \
        quote("delta_lower_plus", rates["delta_lower_plus"], -0.0364)


@pytest.mark.criterion(2, "example2 two-norm constants; two-norm strip nested in one-norm strip")
def test_criterion_2_two_norm_constants():
    sysd = strong_coupling().system
    r = rate_summary(sysd, TWO)
    assert r.lambda_plus == pytest.approx(-3.4507, abs=1e-3), \
        quote("lambda_plus", r.lambda_plus, -3.4507)
    assert r.lambda_minus == pytest.approx(22.5493, abs=1e-3), \
        quote("lambda_minus", r.lambda_minus, 22.5493)
    assert r.delta_upper_minus == pytest.approx(1.0441, abs=1e-3), \
        quote("delta_upper_minus", r.delta_upper_minus, 1.0441)
    two = classify(sysd, TWO).strip
    one = classify(sysd, ONE).strip
    assert one[0] < two[0] and two[1] < one[1], \
        f"two-norm strip {two} not strictly inside one-norm strip {one}"
    # not reproducible: by symmetry of the matrix the forward and reversed
    # offsets coincide at 1.0440511, so 0.9337 is off by 0.11
    assert r.delta_upper_plus == pytest.approx(0.9337, abs=1e-3), \
        quote("delta_upper_plus", r.delta_upper_plus, 0.9337)


@pytest.mark.criterion(3, "one-norm average rate equals 15/pi - 11/2 to 1e-9")
def test_criterion_3_closed_form_rate():
    r = rate_summary(strong_coupling().system, ONE)
    want = 15.0 / math.pi - 5.5
    assert r.lambda_plus == pytest.approx(want, abs=1e-9), \
        quote("lambda_plus", r.lambda_plus, want, 1e-9)


@pytest.mark.criterion(4, "example1 two-norm verdict sweep with oracle confirmation")
@pytest.mark.parametrize("beta,expected", [
    (0.25, "UES"), (0.5, "UES"), (0.9, "UES"),
    (1.0, "US"),
    (1.5, "inconclusive"), (3.0, "inconclusive"),
])
def test_criterion_4_sweep(beta, expected):
    sysd = rotating_frame(beta).system
    v = classify(sysd, TWO)
    assert v.classification == expected, f"beta={beta}: got {v.classification}"
    drift = float(pi_integral(sysd, TWO, sysd.t0 + 2.0 * math.pi)[0][0])
    want = 2.0 * math.pi * max(-1.0, beta - 1.0)
    assert drift == pytest.approx(want, abs=1e-6), quote("pi_plus(2pi)", drift, want, 1e-6)
    if expected == "inconclusive":
        est = monodromy_fce(sysd)
        top = max(est.real_parts)
        assert top == pytest.approx(beta - 1.0, abs=1e-6), \
            quote("max FCE real part", top, beta - 1.0, 1e-6)
        assert top > 0.0


@pytest.mark.criterion(5, "monodromy exponents {-1, 0.5} and transition oracle agreement")
def test_criterion_5_oracle_agreement():
    entry = rotating_frame(1.5)
    est = monodromy_fce(entry.system)
    assert sorted(est.real_parts) == pytest.approx([-1.0, 0.5], abs=1e-6)
    for t in (math.pi / 4.0, math.pi / 2.0, 2.0 * math.pi):
        got = integrate_transitions(entry.system, [0.0], [t]).value[0]
        ref = entry.transition(t, 0.0)
        worst = float(np.abs(got - ref).max())
        assert worst <= 1e-6, f"transition at t={t:.6g} off by {worst:.3e}"


@pytest.mark.criterion(6, "decay envelope holds for every UES catalog verdict")
def test_criterion_6_decay_soundness():
    checked = 0
    for name in sorted(CATALOG):
        sysd = CATALOG[name]().system
        for kind in KINDS:
            v = classify(sysd, kind)
            if v.classification != "UES":
                continue
            chk = verify_decay(sysd, v)
            assert chk.passed, (name, kind.tag, chk)
            checked += 1
    assert checked >= 6  # both LTI norms and the coupled example must appear


@pytest.mark.criterion(7, "log-norm inequality suite: random matrices and catalog grids")
def test_criterion_7_random_matrix_inequalities():
    rng = np.random.default_rng(7117)
    for kind in KINDS:
        for _ in range(500):
            n = rng.integers(1, 7)
            A = rng.standard_normal((n, n)) * rng.uniform(0.1, 5.0)
            B = rng.standard_normal((n, n))
            c = float(rng.uniform(0.0, 3.0))
            m = mu(A, kind)
            assert -mat_norm(A, kind) - 1e-8 <= m <= mat_norm(A, kind) + 1e-8
            assert -mu(-A, kind) <= m + 1e-8
            assert mu(c * A, kind) == pytest.approx(c * m, abs=1e-8)
            assert mu(A + B, kind) <= m + mu(B, kind) + 1e-8


@pytest.mark.criterion(7, "log-norm inequality suite: random matrices and catalog grids")
def test_criterion_7_catalog_grid_inequalities():
    for name in sorted(CATALOG):
        sysd = CATALOG[name]().system
        for kind in KINDS:
            r = rate_summary(sysd, kind)
            # sign conditions on the offsets
            assert r.delta_upper_plus >= -1e-8, (name, kind.tag)
            assert r.delta_lower_plus <= 1e-8, (name, kind.tag)
            assert r.delta_upper_minus >= -1e-8, (name, kind.tag)
            assert r.delta_lower_minus <= 1e-8, (name, kind.tag)
            s = barrier_series(sysd, kind, sysd.t0 + 3.0 * sysd.period, samples=128)
            # forward and reversed running integrals sum to >= 0
            assert (s[:, 1] + s[:, 2]).min() >= -1e-8, (name, kind.tag)
            # and each stays between its linear envelopes
            for lo, mid, hi in ((3, 1, 4), (5, 2, 6)):
                assert (s[:, mid] - s[:, lo]).min() >= -1e-8, (name, kind.tag)
                assert (s[:, hi] - s[:, mid]).min() >= -1e-8, (name, kind.tag)


@pytest.mark.criterion(8, "weighted norm equals -1/eigmax(H) and certifies constant systems")
def test_criterion_8_weighted_norm():
    rng = np.random.default_rng(8118)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        shift = max(z.real for z in gen_eigs(A))
        A = A - (shift + 0.5 + 0.1 * abs(shift)) * np.eye(n)
        kind = lyapunov_weighted(A)
        H = solve_lyapunov(A)
        want = -1.0 / float(np.linalg.eigvalsh(H)[-1])
        got = mu(A, weighted(kind.transform))
        assert got == pytest.approx(want, abs=1e-6), quote("mu_weighted", got, want, 1e-6)
        assert got < 0.0
        rows = [[f"{float(v)!r}" for v in row] for row in A]
        sysd = system_from_strings(rows, 1.0)
        assert classify(sysd, kind).classification == "UES"


@pytest.mark.criterion(9, "frozen-time report at beta=1.5: norms, spectrum, conditions")
def test_criterion_9_frozen_time_values():
    entry = rotating_frame(1.5)
    sysd = entry.system
    t = math.pi / 2.0
    A = sysd.matrix(t)
    assert mat_norm(A, TWO) == pytest.approx(1.7808, abs=1e-3), \
        quote("|A(pi/2)|_2", mat_norm(A, TWO), 1.7808)
    eigs = sorted(gen_eigs(A), key=lambda z: z.imag)
    assert eigs[1].real == pytest.approx(-0.25, abs=1e-3)
    assert eigs[1].imag == pytest.approx(0.6614, abs=1e-3), \
        quote("Im eig", eigs[1].imag, 0.6614)
    rep = frozen_time_check(sysd)
    assert not rep.c1_satisfied and not rep.c2_satisfied
    h = 1e-6
    dA = (sysd.matrix(t + h) - sysd.matrix(t - h)) / (2.0 * h)
    rate = mat_norm(dA, TWO)
    # not reproducible: |A'(t)|_2 is identically beta = 1.5 (the entries are
    # beta-scaled unit-speed trig), so the quoted 0.5000 is off by 1.0
    assert rate == pytest.approx(0.5000, abs=1e-3), quote("|A'(pi/2)|_2", rate, 0.5)


@pytest.mark.criterion(10, "forced response: decaying vs persistent disturbance; suite under 60 s")
def test_criterion_10_decaying_disturbance():
    code, out, err = run_cli("perturb", "-s", "example2", "--d", "exp(-t);0",
                             "--x0", "-4,3", "--t-end", "10", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["tail_max_norm"] < 1e-3, f"tail max {doc['tail_max_norm']:.3e}"
    assert doc["convergence_claimed"] is True


@pytest.mark.criterion(10, "forced response: decaying vs persistent disturbance; suite under 60 s")
def test_criterion_10_persistent_disturbance():
    code, out, err = run_cli("perturb", "-s", "example2", "--d", "1;0",
                             "--t-end", "10", "--json")
    assert code == 0, err
    doc = json.loads(out)
    sups = np.array(doc["drift_sups"])
    assert np.abs(sups - 1.0).max() <= 1e-9, "windowed sups must all sit at 1"
    assert doc["drift_vanishes"] is False
    assert doc["convergence_claimed"] is False
