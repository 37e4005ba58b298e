"""Agreement of both routes with exact Floquet exponents on seeded systems.

Two families have exponents known in closed form (period 2 pi, integer
frequencies, so every sine and cosine term has mean zero over a period):

- scalar a(t) = a0 + a1 sin(w t) + a2 cos(w t): the exponent is a0;
- upper-triangular 2 x 2 systems with such entries: the monodromy is
  triangular with diagonal exp(2 pi a0_ii), so the exponents are the
  diagonal a0s.

Coefficients are Gaussian times the system's scale 10^U(-1, 1.2), rounded
to 3 decimals, with w from {1, 2, 3}; each diagonal a0 is shifted by
U(-2, 1) times the scale, as in tools/fuzz.py, so that about half the
systems are stable.  Seeds and counts are fixed: 20 systems of each family
from random.Random(29).  A third family, similar-k, is triangular-k
conjugated by the fixed P = [[2, 1], [1, 1]]: P^-1 A(t) P, with P^-1 =
[[1, -1], [-1, 2]], has entries that are integer combinations of A's, is
no longer triangular and has the same exponents.  Five stable scalar
systems drawn by `tools/fuzz.py 1 150 -1 2.5` (fuzz-k for its draw k)
join the scalar family.  A fourth family of 8, rotating-k, is the catalog's
rotating_frame(beta) with beta from U(0.25, 3), rounded to 3 decimals and
drawn from the same generator after the others: its exponents are -1 and
beta - 1.  Each system runs in process as `analyze -f FILE
--norm one,two,inf --json`, and:

- a system that some norm certifies UES never exits 2;
- each resolved monodromy exponent lies within EXACT_TOL of the exact one,
  and within each norm's strip_check.allowance of it;
- an unresolved exponent's upper bound lies at or above the exact one;
- no Python warning is raised or printed.

A system that fails today is a strict xfail, listed under its failure
message; none is dropped.
"""

import contextlib
import io
import json
import math
import random
import re
import warnings

import pytest

from lpstab import cli
from lpstab.catalog import rotating_frame

SEED, COUNT, LO, HI = 29, 20, -1.0, 1.2
ROTATING = 8
EXACT_TOL = 1e-6
# the similar family's conjugation P^-1 A P
P, P_INV = ((2, 1), (1, 1)), ((1, -1), (-1, 2))
# (draw, a0, the entry) of scalar tools/fuzz.py draws that once exited 2 although UES
FUZZ = [
    (42, -42.184, "(-42.184) + (-52.157)*sin(3*t) + (119.389)*cos(3*t)"),
    (44, -7.732, "(-7.732) + (104.494)*sin(1*t) + (38.411)*cos(1*t)"),
    (55, -27.783, "(-27.783) + (3.788)*sin(3*t) + (18.43)*cos(3*t)"),
    (59, -19.645, "(-19.645) + (-8.365)*sin(2*t) + (50.626)*cos(2*t)"),
    (117, -10.112, "(-10.112) + (-3.168)*sin(3*t) + (11.974)*cos(3*t)"),
]


def _entry(rng, scale, shift):
    w = rng.choice((1, 2, 3))
    a0, a1, a2 = (round(rng.gauss(0.0, 1.0) * scale, 3) for _ in range(3))
    a0 = round(a0 + shift, 3)
    return f"({a0!r}) + ({a1!r})*sin({w}*t) + ({a2!r})*cos({w}*t)", a0


def _draw(rng, n):
    # an n x n upper-triangular system and its exact exponents, ascending
    scale = 10.0 ** rng.uniform(LO, HI)
    rows, exact = [], []
    for i in range(n):
        row = ["0"] * i
        for j in range(i, n):
            text, a0 = _entry(rng, scale, rng.uniform(-2.0, 1.0) * scale if i == j else 0.0)
            row.append(text)
            if i == j:
                exact.append(a0)
        rows.append(row)
    return rows, sorted(exact)


def _similar(rows):
    # P^-1 A P of a 2 x 2 system, each entry written as an integer combination of A's
    return [[" + ".join(f"({P_INV[i][k] * P[l][j]})*({rows[k][l]})" for k in range(2) for l in range(2)
                        if rows[k][l] != "0")
             for j in range(2)] for i in range(2)]


def _systems():
    rng = random.Random(SEED)
    systems = {f"{family}-{k:02d}": _draw(rng, n) for family, n in (("scalar", 1), ("triangular", 2))
               for k in range(COUNT)}
    for k in range(COUNT):
        rows, exact = systems[f"triangular-{k:02d}"]
        systems[f"similar-{k:02d}"] = _similar(rows), exact
    for k, a0, entry in FUZZ:
        systems[f"fuzz-{k:03d}"] = [[entry]], [a0]
    for k in range(ROTATING):
        beta = round(rng.uniform(0.25, 3.0), 3)
        systems[f"rotating-{k:02d}"] = [list(row) for row in rotating_frame(beta).system.as_strings()], \
            sorted((-1.0, beta - 1.0))
    return systems


# strict xfails by failure message, numbers written as #
XFAIL = {
    # strongly non-normal monodromies (multipliers near 3e-30 on similar-06, an
    # off-diagonal entry of 5e9 on similar-07) whose eigenvalues are read as resolved:
    # every exponent is far off, yet within an allowance of 5.07 and 2.32
    "exponent # # off the exact # by more than #": ("similar-06", "similar-07"),
}
_REASON = {name: message for message, names in XFAIL.items() for name in names}
SYSTEMS = _systems()
NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _run(argv):
    # exit code, stdout, stderr and the warnings raised, of cli.main(argv) in process
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught]


def _problems(rows, exact, path):
    # what fails on one system, each as one line
    path.write_text(json.dumps({"entries": rows, "period": 2.0 * math.pi}))
    argv = ["analyze", "-f", str(path), "--norm", "one,two,inf", "--json"]
    code, out, err, caught = _run(argv)
    problems = [f"Python warning: {text}" for text in caught]
    if "Warning" in err:
        problems.append(f"warning text on stderr: {err.strip()}")
    if code == 2:
        _, drift, _, _ = _run(argv + ["--no-oracle"])
        if any(a["classification"] == "UES" for a in json.loads(drift)["analyses"]):
            problems.append(f"UES system exits 2: {NUMBER.sub('#', err.split(';')[0].strip())}")
    elif code != 0:
        problems.append(f"exit {code}: {err.strip()}")
    else:
        analyses = json.loads(out)["analyses"]
        oracle = analyses[0]["oracle"]  # one monodromy, so the same exponents in every norm
        unresolved = oracle.get("unresolved_exponents", 0)
        for k, (got, want) in enumerate(zip(oracle["fce_real_parts"], exact)):
            if k < unresolved:
                if got < want:
                    problems.append(f"exponent {k} bound {got!r} below the exact {want!r}")
                continue
            if abs(got - want) > EXACT_TOL:
                problems.append(f"exponent {k} {got!r} off the exact {want!r} by more than {EXACT_TOL!r}")
            for analysis in analyses:
                allowance = analysis["oracle"]["strip_check"]["allowance"]
                if abs(got - want) > allowance:
                    problems.append(f"{analysis['norm']}: exponent {k} {got!r} off the exact {want!r} "
                                    f"by more than its allowance {allowance!r}")
    return problems


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=_REASON[name]))
    if name in _REASON else name for name in SYSTEMS])
def test_exponents_agree_with_the_exact_ones(tmp_path, name):
    problems = _problems(*SYSTEMS[name], tmp_path / "system.json")
    if name in _REASON and {NUMBER.sub("#", p) for p in problems} != {NUMBER.sub("#", _REASON[name])}:
        pytest.fail(f"fails otherwise than listed: {problems}")
    assert problems == []
