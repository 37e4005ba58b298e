"""Command line front end.

Three subcommands:

  analyze  - stability verdicts (one per requested norm) plus the
             frozen-time report and the transition-matrix cross-checks
  series   - CSV of the running drift integrals with their linear
             envelopes, or of an unforced trajectory
  perturb  - forced simulation with tail and disturbance-drift summaries

Systems come from a JSON file ({"entries": [[expr, ...], ...],
"period": T, "t0": 0, "n": optional}) or from the built-in catalog by name
(--system, parameterized by a repeatable --param key=value).  Exit codes:
0 analysis completed (whatever the verdict), 1 bad input or usage,
2 numerical failure or cross-check disagreement.
"""

from __future__ import annotations

import os

# lpstab's matrices are at most TOL.max_dim = 64 wide, too small for BLAS threads to
# pay off, yet OpenBLAS starts a helper thread pool when numpy loads, and the helpers
# spin for about a tenth of a CPU second in every process.  So the command line runs
# on one BLAS thread unless the user chose a thread count; this has to happen before
# numpy is imported, which is why `import lpstab` leaves numpy out.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# lpstab's modules (and numpy) load before click and json: the other order leaves a
# larger peak RSS.  floquet stays here although only analyze runs it, since importing it
# after click costs every analyze process 0.6 MB more.  perturb, needed only by the
# perturb command and series --trajectory, is imported where they run: with no bytecode
# cache every process compiles what it imports
from . import catalog, floquet, lognorm, periodic
from ._version import __version__
from .config import TOL
from .errors import BlowupError, InputError, NotPositiveDefiniteError, NumericError, SingularMatrixError
from .expr import EvalError
from .linalg import NormKind, vec_norm
from .periodic import SystemDef

import dataclasses
import json
import math
import sys
from typing import TYPE_CHECKING

import click
import numpy as np

if TYPE_CHECKING:
    from . import perturb

_NORM_CHOICE = click.Choice([*lognorm.NAMED, "weighted"])


def _load_file(path: str) -> SystemDef:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    entries = doc.get("entries")
    if (not isinstance(entries, list) or not entries
            or not all(isinstance(r, list) and all(isinstance(s, str) for s in r) for r in entries)):
        raise InputError(f"{path}: \"entries\" must be a non-empty list of lists of strings")
    period, t0 = _number(doc, path, "period"), _number(doc, path, "t0", 0.0)
    n = doc.get("n")
    if n is not None and (isinstance(n, bool) or n != len(entries)):
        raise InputError(f"{path}: \"n\"={n} does not match {len(entries)} rows")
    sysd = periodic.system_from_strings(entries, period, t0)
    periodic.validate_periodicity(sysd)
    return sysd


def _number(doc: dict, path: str, key: str, default=None) -> float:
    value = doc.get(key, default)
    # bool is an int subclass, but JSON true is not a number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{path}: \"{key}\" must be a number")
    return float(value)


def _parse_params(params: tuple[str, ...]) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in params:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise InputError(f"--param expects key=value, got {item!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise InputError(f"--param {key}: {value!r} is not a number") from exc
        if not math.isfinite(out[key]):
            raise InputError(f"--param {key} must be finite, got {value!r}")
    return out


def _load_system(file: str | None, system_name: str | None,
                 params: tuple[str, ...]) -> SystemDef:
    if (file is None) == (system_name is None):
        raise click.UsageError("provide exactly one of --file or --system")
    kwargs = _parse_params(params)
    if system_name is not None:
        return catalog.get(system_name, kwargs).system
    if kwargs:
        raise InputError("--param only applies to --system catalog entries")
    return _load_file(file)


def _source_options(cmd):
    cmd = click.option("--param", "params", multiple=True,
                       help="catalog factory parameter key=value (repeatable)")(cmd)
    cmd = click.option("--system", "-s", "system_name", default=None,
                       help="built-in catalog system name")(cmd)
    cmd = click.option("--file", "-f", type=click.Path(), default=None,
                       help="system JSON file")(cmd)
    return cmd


def _resolve_kind(sysd: SystemDef, norm: str) -> NormKind:
    if norm in lognorm.NAMED:
        return lognorm.NAMED[norm]
    # weighted: Lyapunov weight built from the frozen matrix at t0
    try:
        return lognorm.lyapunov_weighted(sysd.matrix(sysd.t0))
    except NotPositiveDefiniteError as exc:
        raise InputError(f"cannot build the weighted norm: A(t0) is not Hurwitz ({exc})") from exc
    except SingularMatrixError as exc:
        raise NumericError(f"cannot build the weighted norm: {exc}") from exc


def _resolve_kinds(sysd: SystemDef, norms: str) -> list[tuple[str, NormKind]]:
    names = [p.strip() for p in norms.split(",") if p.strip() != ""]
    if not names:
        raise InputError("--norm must name at least one norm")
    out = []
    for name in names:
        if name not in _NORM_CHOICE.choices:
            raise InputError(f"unknown norm {name!r}; "
                             f"choose from {', '.join(sorted(_NORM_CHOICE.choices))}")
        out.append((name, _resolve_kind(sysd, name)))
    return out


def _system_doc(sysd: SystemDef) -> dict:
    return {"n": sysd.n, "period": sysd.period, "t0": sysd.t0,
            "entries": [list(r) for r in sysd.as_strings()]}


def _emit_json(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


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


def _write_trajectory(fh, traj: perturb.Trajectory, kind: NormKind) -> None:
    """CSV t,x1,...,xn,norm with one row per trajectory sample."""
    cols = ",".join(f"x{i + 1}" for i in range(traj.states.shape[1]))
    fh.write(f"t,{cols},norm\n")
    for t, x, norm in zip(traj.times, traj.states, vec_norm(traj.states, kind).tolist()):
        vals = [float(t), *(float(v) for v in x), norm]
        fh.write(",".join(f"{v:.17g}" for v in vals) + "\n")


def _record_doc(record, *omit: str) -> dict:
    """The fields of a result record as a JSON object, minus those named."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.name not in omit}


@click.group()
def root():
    """Stability certificates for linear periodic systems."""


@root.command()
@_source_options
@click.option("--norm", "-n", "norms", default="one", show_default=True,
              help="comma separated list drawn from one, two, inf, weighted")
@click.option("--zero-tol", type=float, default=None,
              help="treat a one-period drift within this band of zero as zero")
@click.option("--no-oracle", is_flag=True, help="skip the transition-matrix cross-checks")
@click.option("--json", "json_out", is_flag=True, help="machine-readable output")
def analyze(file, system_name, params, norms, zero_tol, no_oracle, json_out):
    """Classify the system in each requested norm and cross-check."""
    sysd = _load_system(file, system_name, params)
    kinds = _resolve_kinds(sysd, norms)
    frozen = periodic.frozen_time_check(sysd)
    fce = None if no_oracle else floquet.monodromy_fce(sysd)
    analyses = []
    failures = []
    for name, kind in kinds:
        verdict = periodic.classify(sysd, kind, zero_tol)
        entry = {"norm": name, **_record_doc(verdict, "kind"),
                 "rates": _record_doc(verdict.rates, "kind", "t0", "period")}
        if no_oracle:
            entry["oracle"] = "skipped: oracle disabled"
        else:
            strip_check = floquet.verify_strip(sysd, kind, verdict.rates, fce)
            unresolved = []
            if fce.unresolved:
                unresolved.append(f"{fce.unresolved} multiplier(s) below the round-off floor {fce.floor:.3e}, "
                                  f"exponent(s) given as upper bounds")
            try:
                violation = floquet.verify_sandwich(sysd, kind)
                sandwich_ok = violation <= TOL.sandwich_slack
            except BlowupError as exc:
                # a transition past the overflow cap, where the drift bound allows it
                violation = sandwich_ok = None
                unresolved.append(f"transition bound not checked: {exc}")
            oracle_doc = {
                "multipliers": [[z.real, z.imag] for z in fce.multipliers],
                "fce_real_parts": list(fce.real_parts),
                "monodromy_steps": fce.monodromy.steps,
                "monodromy_error": fce.monodromy.error_estimate,
                "strip_check": _record_doc(strip_check, "lower", "upper", "real_parts"),
                "sandwich_violation": violation,
                "sandwich_passed": sandwich_ok,
            }
            if fce.unresolved:
                oracle_doc["unresolved_exponents"] = fce.unresolved
                oracle_doc["multiplier_floor"] = fce.floor
            if unresolved:
                oracle_doc["partially_resolved"] = unresolved
            if verdict.classification == "UES":
                decay = floquet.verify_decay(sysd, verdict)
                oracle_doc["decay"] = _record_doc(decay)
                if not decay.passed:
                    failures.append(f"{name}: decay envelope violated by {-decay.worst_margin:.3e}")
            else:
                oracle_doc["decay"] = "skipped: verdict not UES"
            if not strip_check.passed:
                failures.append(f"{name}: exponent strip violated by {strip_check.worst_violation:.3e}")
            if sandwich_ok is False:
                failures.append(f"{name}: transition bound violated by {violation:.3e}")
            entry["oracle"] = oracle_doc
        analyses.append(entry)
    if json_out:
        doc = {
            "version": __version__,
            "system": _system_doc(sysd),
            "zero_tol": zero_tol,
            "tolerances": dataclasses.asdict(TOL),
            "frozen_time": _record_doc(frozen),
            "analyses": analyses,
        }
        _emit_json(doc)
    else:
        click.echo(f"tool: lpstab {__version__}")
        click.echo(f"system: n={sysd.n} period={sysd.period:.6g} t0={sysd.t0:.6g}")
        ft_state = "applicable" if frozen.applicable else "not applicable (a sampled matrix is not Hurwitz)"
        click.echo(f"frozen-time route: {ft_state}; alpha={frozen.alpha:.6g} "
                   f"sup|A|={frozen.m_bound:.6g} sup|A'|={frozen.sup_adot:.6g}; "
                   f"margin condition {'met' if frozen.c1_satisfied else 'not met'}, "
                   f"rate condition {'met' if frozen.c2_satisfied else 'not met'}")
        for entry in analyses:
            rates = entry["rates"]
            click.echo(f"--- norm {entry['norm']} ---")
            click.echo(f"verdict: {entry['classification']}")
            if entry["K"] is not None:
                click.echo(f"overshoot K: {entry['K']:.6g}")
            if entry["alpha_tilde"] is not None:
                click.echo(f"decay rate: {entry['alpha_tilde']:.6g}")
            click.echo(f"one-period drift: forward {rates['pi_plus_period']:.6g}, "
                       f"reversed {rates['pi_minus_period']:.6g}")
            click.echo(f"averages: lambda+ {rates['lambda_plus']:.6g}, "
                       f"lambda- {rates['lambda_minus']:.6g}")
            click.echo(f"offsets: dU+ {rates['delta_upper_plus']:.6g}, "
                       f"dL+ {rates['delta_lower_plus']:.6g}, "
                       f"dU- {rates['delta_upper_minus']:.6g}, "
                       f"dL- {rates['delta_lower_minus']:.6g}")
            click.echo(f"exponent strip: [{entry['strip'][0]:.6g}, {entry['strip'][1]:.6g}]")
            if not no_oracle:
                oracle = entry["oracle"]
                parts = ", ".join(("<=" if k < fce.unresolved else "") + f"{v:.6g}"
                                  for k, v in enumerate(fce.real_parts))
                inside = "yes" if oracle["strip_check"]["passed"] else "NO"
                label = ""
                if entry["classification"] == "inconclusive":
                    label = " (independent route, not a drift-test certificate)"
                click.echo(f"monodromy exponent real parts: {parts} "
                           f"(inside strip: {inside}){label}")
                if oracle["sandwich_violation"] is not None:
                    click.echo(f"transition bound worst violation: {oracle['sandwich_violation']:.3e}")
                if "partially_resolved" in oracle:
                    click.echo(f"oracle: partially resolved: {'; '.join(oracle['partially_resolved'])}")
            click.echo(entry["message"])
    if failures:
        raise NumericError("cross-checks failed: " + "; ".join(failures))


@root.command()
@_source_options
@click.option("--norm", "-n", "norm", type=_NORM_CHOICE, default="one", show_default=True)
@click.option("--t-end", type=float, default=None, help="last sample time [default: t0 + 3 periods]")
@click.option("--samples", type=int, default=512, show_default=True)
@click.option("--trajectory", "trajectory", default=None, metavar='"c1,...,cn"',
              help="emit the unforced trajectory from this initial state instead of drift integrals")
@click.option("--out", "-o", default="-", help="output path, - for stdout")
def series(file, system_name, params, norm, t_end, samples, trajectory, out):
    """Write drift-integral or trajectory series as CSV."""
    sysd = _load_system(file, system_name, params)
    kind = _resolve_kind(sysd, norm)
    if t_end is None:
        t_end = sysd.t0 + 3.0 * sysd.period
    if samples < 2:
        raise InputError("--samples must be at least 2")
    _check_t_end(t_end, sysd.t0)
    with click.open_file(out, "w") as fh:
        if trajectory is None:
            arr = periodic.barrier_series(sysd, kind, t_end, samples)
            fh.write("t,pi_plus,pi_minus,low_plus,up_plus,low_minus,up_minus\n")
            for row in arr:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
            return
        start = np.array(_parse_floats(trajectory, "--trajectory"))
        if start.shape != (sysd.n,):
            raise InputError(f"--trajectory must have {sysd.n} entries")
        from . import perturb
        traj = perturb.simulate_perturbed(sysd, perturb.Disturbance.zero(sysd.n), start,
                                          t_end, samples=samples, cross_check=False)
        _write_trajectory(fh, traj, kind)


@root.command("perturb")
@_source_options
@click.option("--norm", "-n", "norm", type=_NORM_CHOICE, default="two", show_default=True,
              help="norm for the reported magnitudes")
@click.option("--d", "dist", default=None, metavar='"e1;...;en"',
              help="disturbance entries, separated by ; or , [default: zero]")
@click.option("--x0", default=None, help="initial state, comma separated [default: all ones]")
@click.option("--t-end", type=float, default=None, help="final time [default: t0 + 5 periods]")
@click.option("--samples", type=int, default=256, show_default=True)
@click.option("--out", "-o", "out", default=None, help="write the trajectory CSV here")
@click.option("--json", "json_out", is_flag=True, help="machine-readable output")
def perturb_cmd(file, system_name, params, norm, dist, x0, t_end, samples, out, json_out):
    """Simulate x' = A(t) x + d(t) and summarize decay of the response."""
    from . import perturb
    sysd = _load_system(file, system_name, params)
    kind = _resolve_kind(sysd, norm)
    if t_end is None:
        t_end = sysd.t0 + 5.0 * sysd.period
    _check_t_end(t_end, sysd.t0)
    if samples < 16:
        raise InputError("--samples must be at least 16")
    if dist is None:
        d = perturb.Disturbance.zero(sysd.n)
    else:
        parts = [p.strip() for p in dist.replace(";", ",").split(",")]
        parts = [p for p in parts if p != ""]
        d = perturb.disturbance_from_strings(parts)
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
    if out is not None:
        with click.open_file(out, "w") as fh:
            _write_trajectory(fh, traj, kind)
    if json_out:
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
    click.echo(f"system: n={sysd.n} period={sysd.period:.6g} t0={sysd.t0:.6g}")
    click.echo(f"unforced verdict (norm {norm}): {verdict.classification}")
    if traj.overflowed:
        click.echo(f"state overflowed at t={traj.t_overflow:.6g}: unbounded growth; "
                   f"trajectory truncated to {len(traj.times)} samples")
    else:
        click.echo(f"simulated to t={t_end:.6g} with {samples} samples "
                   f"({traj.steps_per_interval} substeps each)")
        click.echo(f"final state: {np.array2string(traj.states[-1], precision=6)}")
        click.echo(f"final norm: {vec_norm(traj.states[-1], kind):.6g}")
        click.echo(f"tail from t={report.tail_start:.6g}: max norm {report.tail_max_norm:.6g}, "
                   f"{'non-increasing' if report.decreasing_tail else 'not monotone'}")
    if drift is None:
        click.echo(f"disturbance windowed-integral sup: unavailable ({drift_error})")
    else:
        click.echo(f"disturbance windowed-integral sup: first {drift.sups[0]:.6g}, "
                   f"last {drift.sups[-1]:.6g}, tail log-slope {drift.tail_log_slope:.6g}")
    if claimed:
        click.echo("forced-state decay: claimed (stable unforced system, vanishing drift)")
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
        click.echo(f"forced-state decay: not claimed ({'; '.join(why)})")
    if traj.check_error is not None:
        click.echo(f"variation-of-constants cross-check error: {traj.check_error:.3g}")


def main(argv=None):
    try:
        root.main(args=argv, prog_name="lpstab", standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
