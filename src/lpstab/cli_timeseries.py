"""The series and perturb commands, which cli.py imports only to run them."""

import contextlib
import math
import sys
from types import SimpleNamespace

import numpy as np

from . import periodic
from ._version import __version__
from .cli import _emit_json, _load_system, _resolve_kind, _system_doc, _write_csv
from .errors import InputError
from .expr import EvalError
from .linalg import NormKind, vec_norm


def _open_out(path: str | None):
    """The file to write at path, or stdout, left open, for None or -."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(p) for p in text.replace(";", ",").split(",") if p.strip() != ""]
    except ValueError as exc:
        raise InputError(f"cannot parse {what} {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"{what} entries must be finite, got {text!r}")
    return values


def _check_t_end(t_end: float, t0: float) -> None:
    if not math.isfinite(t_end):
        raise InputError(f"--t-end must be finite, got {t_end!r}")
    if t_end <= t0:
        raise InputError(f"--t-end must exceed t0 = {t0:g}")


def _write_trajectory(fh, traj, kind: NormKind) -> None:
    """CSV t,x1,...,xn,norm with one row per trajectory sample."""
    cols = ",".join(f"x{i + 1}" for i in range(traj.states.shape[1]))
    _write_csv(fh, f"t,{cols},norm", np.column_stack((traj.times, traj.states, vec_norm(traj.states, kind))))


def series(opt: SimpleNamespace) -> None:
    sysd = _load_system(opt)
    kind = _resolve_kind(sysd, opt.norm)
    t_end, samples, trajectory = opt.t_end, opt.samples, opt.trajectory
    if t_end is None:
        t_end = sysd.t0 + 3.0 * sysd.period
    if samples < 2:
        raise InputError("--samples must be at least 2")
    _check_t_end(t_end, sysd.t0)
    with _open_out(opt.out) as fh:
        if trajectory is None:
            _write_csv(fh, "t,pi_plus,pi_minus,low_plus,up_plus,low_minus,up_minus",
                       periodic.barrier_series(sysd, kind, t_end, samples))
            return
        start = np.array(_parse_floats(trajectory, "--trajectory"))
        if start.shape != (sysd.n,):
            raise InputError(f"--trajectory must have {sysd.n} entries")
        from . import perturb
        traj = perturb.simulate_perturbed(sysd, perturb.Disturbance.zero(sysd.n), start,
                                          t_end, samples=samples, cross_check=False)
        _write_trajectory(fh, traj, kind)


def perturb_cmd(opt: SimpleNamespace) -> None:
    from . import perturb
    sysd = _load_system(opt)
    kind = _resolve_kind(sysd, opt.norm)
    norm, dist, x0, t_end, samples = opt.norm, opt.d, opt.x0, opt.t_end, opt.samples
    if t_end is None:
        t_end = sysd.t0 + 5.0 * sysd.period
    _check_t_end(t_end, sysd.t0)
    if samples < 16:
        raise InputError("--samples must be at least 16")
    if dist is None:
        d = perturb.Disturbance.zero(sysd.n)
    else:
        d = perturb.disturbance_from_strings([p.strip() for p in dist.replace(";", ",").split(",") if p.strip()])
        if d.n != sysd.n:
            raise InputError(f"--d must have {sysd.n} entries, got {d.n}")
    start = np.ones(sysd.n) if x0 is None else np.array(_parse_floats(x0, "--x0"))
    if start.shape != (sysd.n,):
        raise InputError(f"--x0 must have {sysd.n} entries")
    verdict = periodic.classify(sysd, kind)
    traj = perturb.simulate_perturbed(sysd, d, start, t_end, samples=samples)
    report = None
    if not traj.overflowed:
        report = perturb.convergence_report(traj, kind)
    # unit-window running-integral sup of the disturbance; its decay plus a
    # stable unforced system is what licenses a decay claim for the response.
    # The windows reach past t_end, where d may fail to evaluate: no drift then
    window = 1.0
    try:
        drift = perturb.windowed_drift(d, np.linspace(sysd.t0, t_end, 65), window=window)
        drift_vanishes = float(drift.sups.max()) <= 1e-12 or drift.tail_log_slope < -1e-4
    except EvalError as exc:
        drift, drift_vanishes, drift_error = None, None, str(exc)
    claimed = (verdict.classification == "UES" and drift_vanishes is True
               and not traj.overflowed)
    if opt.out is not None:
        with _open_out(opt.out) as fh:
            _write_trajectory(fh, traj, kind)
    if opt.json:
        _emit_json({
            "version": __version__,
            "system": _system_doc(sysd),
            "norm": norm,
            "disturbance": list(d.as_strings()),
            "x0": [float(v) for v in traj.states[0]],
            "t_end": t_end,
            "samples": samples,
            "unforced_classification": verdict.classification,
            "overflowed": traj.overflowed,
            "t_overflow": traj.t_overflow,
            "final_state": [float(v) for v in traj.states[-1]],
            "final_norm": vec_norm(traj.states[-1], kind),
            "tail_start": None if report is None else report.tail_start,
            "tail_max_norm": None if report is None else report.tail_max_norm,
            "decreasing_tail": None if report is None else report.decreasing_tail,
            "drift_window": window,
            "drift_sups": None if drift is None else [float(v) for v in drift.sups],
            "drift_tail_log_slope": None if drift is None else drift.tail_log_slope,
            "drift_vanishes": drift_vanishes,
            "convergence_claimed": claimed,
            "stepper_error_estimate": traj.error_estimate,
            "cross_check_error": traj.check_error,
        })
        return
    print(f"system: n={sysd.n} period={sysd.period:.6g} t0={sysd.t0:.6g}")
    print(f"unforced verdict (norm {norm}): {verdict.classification}")
    if traj.overflowed:
        print(f"state overflowed at t={traj.t_overflow:.6g}: unbounded growth; "
              f"trajectory truncated to {len(traj.times)} samples")
    else:
        print(f"simulated to t={t_end:.6g} with {samples} samples "
              f"({traj.steps_per_interval} substeps each)")
        print(f"final state: {np.array2string(traj.states[-1], precision=6)}")
        print(f"final norm: {vec_norm(traj.states[-1], kind):.6g}")
        print(f"tail from t={report.tail_start:.6g}: max norm {report.tail_max_norm:.6g}, "
              f"{'non-increasing' if report.decreasing_tail else 'not monotone'}")
    if drift is None:
        print(f"disturbance windowed-integral sup: unavailable ({drift_error})")
    else:
        print(f"disturbance windowed-integral sup: first {drift.sups[0]:.6g}, "
              f"last {drift.sups[-1]:.6g}, tail log-slope {drift.tail_log_slope:.6g}")
    if claimed:
        print("forced-state decay: claimed (stable unforced system, vanishing drift)")
    else:
        why = []
        if verdict.classification != "UES":
            why.append(f"unforced verdict is {verdict.classification}")
        if drift is None:
            why.append("disturbance drift unavailable")
        elif not drift_vanishes:
            why.append("disturbance drift does not vanish")
        if traj.overflowed:
            why.append("state overflowed")
        print(f"forced-state decay: not claimed ({'; '.join(why)})")
    if traj.check_error is not None:
        print(f"variation-of-constants cross-check error: {traj.check_error:.3g}")
