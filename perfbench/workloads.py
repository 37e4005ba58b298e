"""Seeded workloads: the lpstab invocations of one pass and their output checks.

A workload is a list of Invocation records.  Each carries the argv given
to the lpstab CLI and a check that turns the invocation's stdout into a
list of problems (empty when the output is right).  Every random choice
is drawn from the benchmark seed; lpstab itself only sees the generated
system files and CLI arguments.  References come from reference.py.

run.py keeps numpy and scipy out of the process that spawns lpstab (a
child's peak RSS would otherwise start from its parent's), so it calls
this file as a script, once before and once after the timed region:

    python3 perfbench/workloads.py prepare WORKLOAD SEED DIR
        writes the system files into DIR and prints the invocations as
        JSON [{"label": ..., "argv": [...]}, ...]
    python3 perfbench/workloads.py check WORKLOAD SEED DIR
        checks DIR/stdout-<i> for every invocation i and prints the
        problems as JSON [[...], ...]; null where no stdout was saved
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    check: Callable[[bytes], list[str]]


# ------------------------------------------------------------------ checks

_LAMBDA_TOL = 1e-8     # closed-form averages; lpstab's quadrature budget is 1e-9 per period
_DENSE_TOL = 1e-6      # grid-Simpson reference over kinked mu, relative to 1 + |lambda|
_EXPONENT_TOL = 1e-6   # RK4 oracle against exact multipliers
_STATE_TOL = 1e-6      # RK4 stepper against DOP853, relative to 1 + |x|


def _close(got, want, tol) -> bool:
    return abs(got - want) <= tol * (1.0 + abs(want))


def _analyze_check(expect: dict, exponents: list[float] | None = None,
                   exponent_sum: float | None = None, oracle: bool = True):
    """expect maps norm -> (lambda_plus, lambda_minus, classification); a
    None entry is not checked.  exponents are the exact exponent real parts."""
    def check(stdout: bytes) -> list[str]:
        doc = json.loads(stdout)
        by_norm = {a["norm"]: a for a in doc["analyses"]}
        bad = []
        if sorted(by_norm) != sorted(expect):
            return [f"norms {sorted(by_norm)} != {sorted(expect)}"]
        for norm, (lp, lm, cls) in expect.items():
            a = by_norm[norm]
            rates = a["rates"]
            if lp is not None and not _close(rates["lambda_plus"], lp, _LAMBDA_TOL):
                bad.append(f"{norm}: lambda+ {rates['lambda_plus']!r} != {lp!r}")
            if lm is not None and not _close(rates["lambda_minus"], lm, _LAMBDA_TOL):
                bad.append(f"{norm}: lambda- {rates['lambda_minus']!r} != {lm!r}")
            if cls is not None and a["classification"] != cls:
                bad.append(f"{norm}: verdict {a['classification']} != {cls}")
            if not oracle:
                if a["oracle"] != "skipped: oracle disabled":
                    bad.append(f"{norm}: oracle ran under --no-oracle")
                continue
            o = a["oracle"]
            if not (o["strip_check"]["passed"] and o["sandwich_passed"]):
                bad.append(f"{norm}: lpstab's own cross-check failed")
            parts = sorted(o["fce_real_parts"])
            if exponents is not None and (
                    len(parts) != len(exponents)
                    or any(abs(g - w) > _EXPONENT_TOL for g, w in zip(parts, exponents))):
                bad.append(f"{norm}: oracle exponents {parts} != exact {exponents}")
            if exponent_sum is not None and abs(sum(parts) - exponent_sum) > _EXPONENT_TOL:
                bad.append(f"{norm}: exponent sum {sum(parts)!r} != trace {exponent_sum!r}")
        return bad
    return check


def _dense_check(A0, A1, A2, norms: list[str]):
    """--no-oracle analyze of A0 + A1 sin 2t + A2 cos 2t: averages against a
    grid quadrature, strip against the scipy monodromy exponents."""
    base = _analyze_check({norm: (None, None, None) for norm in norms}, oracle=False)

    def check(stdout: bytes) -> list[str]:
        bad = base(stdout)
        exps = ref.exponent_real_parts(
            ref.transition(ref.trig_matrix(A0, A1, A2), 0.0, math.pi), math.pi)
        rates = {norm: ref.trig_rates(A0, A1, A2, norm) for norm in norms}
        for a in json.loads(stdout)["analyses"]:
            lp, lm = rates[a["norm"]]
            got = a["rates"]
            if not (_close(got["lambda_plus"], lp, _DENSE_TOL)
                    and _close(got["lambda_minus"], lm, _DENSE_TOL)):
                bad.append(f"{a['norm']}: rates ({got['lambda_plus']!r}, {got['lambda_minus']!r}) "
                           f"!= reference ({lp!r}, {lm!r})")
            lo, hi = a["strip"]
            if any(e < lo - _EXPONENT_TOL or e > hi + _EXPONENT_TOL for e in exps):
                bad.append(f"{a['norm']}: strip [{lo!r}, {hi!r}] misses exponents {exps}")
        return bad
    return check


def _perturb_check(A, d, x0, t_end):
    def check(stdout: bytes) -> list[str]:
        want = ref.forced_state(A, d, x0, 0.0, t_end)
        doc = json.loads(stdout)
        got = np.array(doc["final_state"])
        if doc["overflowed"] or got.shape != want.shape:
            return [f"final state {doc['final_state']} (overflowed={doc['overflowed']})"]
        if float(np.abs(got - want).max()) > _STATE_TOL * (1.0 + float(np.abs(want).max())):
            return [f"final state {got.tolist()} != reference {want.tolist()}"]
        return []
    return check


def _csv(stdout: bytes, header: str) -> np.ndarray | None:
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != header:
        return None
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _drift_series_check(samples: int):
    header = "t,pi_plus,pi_minus,low_plus,up_plus,low_minus,up_minus"

    def check(stdout: bytes) -> list[str]:
        rows = _csv(stdout, header)
        if rows is None or rows.shape != (samples, 7):
            return ["drift CSV has the wrong header or shape"]
        bad = []
        for t, pp, pm, lo_p, up_p, lo_m, up_m in rows:
            want_p, want_m = ref.example2_pi_one(t)
            if not (_close(pp, want_p, _LAMBDA_TOL) and _close(pm, want_m, _LAMBDA_TOL)):
                bad.append(f"t={t!r}: pi ({pp!r}, {pm!r}) != exact ({want_p!r}, {want_m!r})")
            if not (lo_p - _LAMBDA_TOL <= pp <= up_p + _LAMBDA_TOL
                    and lo_m - _LAMBDA_TOL <= pm <= up_m + _LAMBDA_TOL):
                bad.append(f"t={t!r}: running integral outside its envelope")
        return bad[:3]
    return check


def _trajectory_check(beta, x0, samples):
    def check(stdout: bytes) -> list[str]:
        rows = _csv(stdout, "t,x1,x2,norm")
        if rows is None or rows.shape != (samples, 4):
            return ["trajectory CSV has the wrong header or shape"]
        for t, x1, x2, nrm in rows:
            want = ref.example1_transition(beta, t, 0.0) @ x0
            scale = 1.0 + float(np.abs(want).max())
            if (max(abs(x1 - want[0]), abs(x2 - want[1])) > _STATE_TOL * scale
                    or abs(nrm - (abs(x1) + abs(x2))) > 1e-12 * scale):
                return [f"t={t!r}: state ({x1!r}, {x2!r}, |x|={nrm!r}) != exact {want.tolist()}"]
        return []
    return check


# -------------------------------------------------------------- generators

def _num(x: float) -> str:
    return repr(float(x))


def dense_system(seed: int, n: int):
    """Seeded A0 + A1 sin 2t + A2 cos 2t with period pi, entries rounded to
    three decimals so the file and the reference hold the same numbers.
    A0 is -2 I plus a block of spectral norm one and the oscillating
    blocks have norm one, so every seed gives a similar, moderately
    stable system."""
    rng = np.random.default_rng([seed, n])

    def block(scale):
        G = rng.standard_normal((n, n))
        return np.round(scale * G / np.linalg.norm(G, 2), 3)

    A0 = block(1.0) - 2.0 * np.eye(n)
    A1 = block(1.0)
    A2 = block(1.0)
    entries = [[f"{_num(A0[i, j])} + {_num(A1[i, j])}*sin(2*t) + {_num(A2[i, j])}*cos(2*t)"
                for j in range(n)] for i in range(n)]
    return (A0, A1, A2), {"entries": entries, "period": math.pi, "t0": 0.0}


def _write_system(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _disturbance(rng, n):
    """Seeded decaying and oscillating disturbance: strings for lpstab and
    the same function for the reference."""
    amp = np.round(rng.uniform(0.5, 1.5, n), 3)
    rate = np.round(rng.uniform(0.5, 1.5, n), 3)
    freq = np.round(rng.uniform(1.0, 3.0, n), 3)
    texts = [f"{_num(amp[i])}*exp(-{_num(rate[i])}*t)" if i % 2 == 0
             else f"{_num(amp[i])}*sin({_num(freq[i])}*t)" for i in range(n)]

    def d(t):
        return np.array([amp[i] * math.exp(-rate[i] * t) if i % 2 == 0
                         else amp[i] * math.sin(freq[i] * t) for i in range(n)])
    return ";".join(texts), d


def _vector(rng, n):
    return np.round(rng.uniform(-3.0, 3.0, n), 3)


def _certify_catalog(seed: int, workdir: Path) -> list[Invocation]:
    rng = np.random.default_rng([seed, 1])
    beta_lo = float(np.round(rng.uniform(0.55, 0.95), 3))
    beta_hi = float(np.round(rng.uniform(1.05, 1.45), 3))
    a, b = (float(v) for v in np.round(rng.uniform(-3.0, -0.25, 2), 3))
    two_pi = 2.0 * math.pi
    out = [Invocation(
        "example2 one,two,weighted",
        ("analyze", "-s", "example2", "--norm", "one,two,weighted", "--json"),
        _analyze_check({"one": (*ref.EXAMPLE2_LAMBDA_ONE, "UES"),
                        "two": (*ref.EXAMPLE2_LAMBDA_TWO, "UES"),
                        "weighted": (None, None, None)},
                       exponent_sum=ref.EXAMPLE2_TRACE))]
    for beta, cls in ((beta_lo, "UES"), (beta_hi, "inconclusive"), (1.0, "US")):
        # beta = 1 goes through example1 because the rotating_frame_marginal
        # alias does not resolve in lpstab's catalog lookup
        out.append(Invocation(
            f"example1 beta={beta!r} two",
            ("analyze", "-s", "example1", "--param", f"beta={beta!r}", "--norm", "two", "--json"),
            _analyze_check({"two": (max(beta - 1.0, -1.0), 1.0, cls)},
                           exponents=ref.exponent_real_parts(
                               ref.example1_transition(beta, two_pi, 0.0), two_pi))))
    out.append(Invocation(
        "scalar_unstable one",
        ("analyze", "-s", "scalar_unstable", "--norm", "one", "--json"),
        _analyze_check({"one": (0.3, -0.3, "unstable")},
                       exponents=ref.exponent_real_parts(
                           np.array([[math.exp(0.3 * two_pi)]]), two_pi))))
    lam = (max(a, b), -min(a, b), "UES")
    out.append(Invocation(
        f"lti_diag a={a!r} b={b!r} all norms",
        ("analyze", "-s", "lti_diag", "--param", f"a={a!r}", "--param", f"b={b!r}",
         "--norm", "one,two,inf,weighted", "--json"),
        _analyze_check({k: lam for k in ("one", "two", "inf", "weighted")},
                       exponents=ref.exponent_real_parts(np.diag([math.exp(a), math.exp(b)]), 1.0))))
    out.append(Invocation(
        "lti_jordan_marginal one,two",
        ("analyze", "-s", "lti_jordan_marginal", "--norm", "one,two", "--json"),
        _analyze_check({"one": (1.0, 1.0, "inconclusive"), "two": (0.5, 0.5, "inconclusive")},
                       exponents=ref.exponent_real_parts(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0))))
    return out


def _certify_dense(seed: int, workdir: Path) -> list[Invocation]:
    out = []
    for n, norms in ((3, ["two"]), (12, ["one"]), (8, ["one", "inf"])):
        coeffs, doc = dense_system(seed, n)
        path = _write_system(workdir, f"dense{n}.json", doc)
        out.append(Invocation(
            f"dense n={n} {','.join(norms)}",
            ("analyze", "-f", path, "--norm", ",".join(norms), "--no-oracle", "--json"),
            _dense_check(*coeffs, norms)))
    return out


def _timeseries(seed: int, workdir: Path) -> list[Invocation]:
    rng = np.random.default_rng([seed, 3])
    coeffs, doc = dense_system(seed, 3)
    dense_path = _write_system(workdir, "dense3.json", doc)
    cases = [
        ("example2", ("-s", "example2"), ref.example2_matrix, 2, 3.0),
        ("example1 beta=0.8", ("-s", "example1", "--param", "beta=0.8"),
         ref.example1_matrix(0.8), 2, 8.0),
        ("dense n=3", ("-f", dense_path), ref.trig_matrix(*coeffs), 3, 4.0),
    ]
    out = []
    for label, source, A, n, t_end in cases:
        dist, d = _disturbance(rng, n)
        x0 = _vector(rng, n)
        out.append(Invocation(
            f"perturb {label}",
            ("perturb", *source, "--norm", "inf", "--d", dist,
             "--x0", ",".join(_num(v) for v in x0), "--t-end", _num(t_end), "--json"),
            _perturb_check(A, d, x0, t_end)))
    out.append(Invocation(
        "series example2 drift one",
        ("series", "-s", "example2", "--norm", "one", "--samples", "1024"),
        _drift_series_check(1024)))
    start = _vector(rng, 2)
    out.append(Invocation(
        "series example1 trajectory",
        ("series", "-s", "example1", "--param", "beta=0.8",
         "--trajectory", ",".join(_num(v) for v in start), "--t-end", "12.5", "--samples", "512"),
        _trajectory_check(0.8, start, 512)))
    return out


WORKLOADS: dict[str, Callable[[int, Path], list[Invocation]]] = {
    "certify-catalog": _certify_catalog,
    "certify-dense": _certify_dense,
    "timeseries": _timeseries,
}


def main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[0] not in ("prepare", "check") or argv[1] not in WORKLOADS:
        print("usage: workloads.py prepare|check WORKLOAD SEED DIR", file=sys.stderr)
        return 64
    mode, name, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    invocations = WORKLOADS[name](seed, workdir)
    if mode == "prepare":
        print(json.dumps([{"label": inv.label, "argv": inv.argv} for inv in invocations]))
        return 0
    problems = []
    for i, inv in enumerate(invocations):
        path = workdir / f"stdout-{i}"
        if not path.exists():
            problems.append(None)
            continue
        try:
            problems.append(inv.check(path.read_bytes()))
        except (ValueError, KeyError, TypeError, IndexError, RuntimeError) as exc:
            problems.append([f"unreadable output: {exc!r}"])
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
