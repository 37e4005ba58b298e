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

import dataclasses
import json
import sys

import click
import numpy as np

from . import catalog, floquet, lognorm, periodic, perturb
from ._version import __version__
from .config import TOL
from .errors import BlowupError, InputError, NotPositiveDefiniteError, NumericError
from .linalg import NormKind, vec_norm
from .periodic import SystemDef

_NORM_CHOICE = click.Choice(["one", "two", "inf", "weighted"])


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
    period = doc.get("period")
    if not isinstance(period, (int, float)):
        raise InputError(f"{path}: \"period\" must be a number")
    t0 = doc.get("t0", 0.0)
    if not isinstance(t0, (int, float)):
        raise InputError(f"{path}: \"t0\" must be a number")
    n = doc.get("n")
    if n is not None and n != len(entries):
        raise InputError(f"{path}: \"n\"={n} does not match {len(entries)} rows")
    sysd = periodic.system_from_strings(entries, float(period), float(t0))
    periodic.validate_periodicity(sysd)
    return sysd


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


def _resolve_kinds(sysd: SystemDef, norms: str) -> list[tuple[str, NormKind]]:
    names = [p.strip() for p in norms.split(",") if p.strip() != ""]
    if not names:
        raise InputError("--norm must name at least one norm")
    allowed = set(lognorm.NAMED) | {"weighted"}
    out = []
    for name in names:
        if name not in allowed:
            raise InputError(f"unknown norm {name!r}; choose from {', '.join(sorted(allowed))}")
        out.append((name, _resolve_kind(sysd, name)))
    return out


def _system_doc(sysd: SystemDef) -> dict:
    return {"n": sysd.n, "period": sysd.period, "t0": sysd.t0,
            "entries": [list(r) for r in sysd.as_strings()]}


def _emit_json(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(p) for p in text.replace(";", ",").split(",") if p.strip() != ""]
    except ValueError as exc:
        raise InputError(f"cannot parse {what} {text!r}: {exc}") from exc


def _write_trajectory(fh, traj: perturb.Trajectory, kind: NormKind) -> None:
    """CSV t,x1,...,xn,norm with one row per trajectory sample."""
    cols = ",".join(f"x{i + 1}" for i in range(traj.states.shape[1]))
    fh.write(f"t,{cols},norm\n")
    for t, x in zip(traj.times, traj.states):
        vals = [float(t), *(float(v) for v in x), vec_norm(x, kind)]
        fh.write(",".join(f"{v:.17g}" for v in vals) + "\n")


def _rates_doc(rates: periodic.RateSummary) -> dict:
    return {
        "lambda_plus": rates.lambda_plus,
        "lambda_minus": rates.lambda_minus,
        "delta_upper_plus": rates.delta_upper_plus,
        "delta_lower_plus": rates.delta_lower_plus,
        "delta_upper_minus": rates.delta_upper_minus,
        "delta_lower_minus": rates.delta_lower_minus,
        "pi_plus_period": rates.pi_plus_period,
        "pi_minus_period": rates.pi_minus_period,
        "quadrature_error": rates.quadrature_error,
    }


def _frozen_doc(ft: periodic.FrozenTimeReport) -> dict:
    return {
        "applicable": ft.applicable,
        "grid_points": ft.grid_points,
        "m_bound": ft.m_bound,
        "m_margin": ft.m_margin,
        "worst_abscissa": ft.worst_abscissa,
        "alpha": ft.alpha,
        "sup_adot": ft.sup_adot,
        "c1_satisfied": ft.c1_satisfied,
        "c2_satisfied": ft.c2_satisfied,
        "c2_bound": ft.c2_bound,
        "c2_bound_alt": ft.c2_bound_alt,
    }


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
        entry = {
            "norm": name,
            "classification": verdict.classification,
            "K": verdict.K,
            "alpha_tilde": verdict.alpha_tilde,
            "strip": list(verdict.strip),
            "message": verdict.message,
            "rates": _rates_doc(verdict.rates),
        }
        if no_oracle:
            entry["oracle"] = "skipped: oracle disabled"
        else:
            strip_check = floquet.verify_strip(sysd, kind, verdict.rates, fce)
            violation = floquet.verify_sandwich(sysd, kind)
            sandwich_ok = violation <= TOL.sandwich_slack
            oracle_doc = {
                "multipliers": [[z.real, z.imag] for z in fce.multipliers],
                "fce_real_parts": list(fce.real_parts),
                "monodromy_steps": fce.monodromy.steps,
                "monodromy_error": fce.monodromy.error_estimate,
                "strip_check": {
                    "passed": strip_check.passed,
                    "worst_violation": strip_check.worst_violation,
                    "allowance": strip_check.allowance,
                },
                "sandwich_violation": violation,
                "sandwich_passed": sandwich_ok,
            }
            if verdict.classification == "UES":
                decay = floquet.verify_decay(sysd, verdict)
                oracle_doc["decay"] = {
                    "passed": decay.passed,
                    "worst_margin": decay.worst_margin,
                    "allowance": decay.allowance,
                    "pairs": decay.pairs,
                    "state_checks": decay.state_checks,
                }
                if not decay.passed:
                    failures.append(f"{name}: decay envelope violated by {-decay.worst_margin:.3e}")
            else:
                oracle_doc["decay"] = "skipped: verdict not UES"
            if not strip_check.passed:
                failures.append(f"{name}: exponent strip violated by {strip_check.worst_violation:.3e}")
            if not sandwich_ok:
                failures.append(f"{name}: transition bound violated by {violation:.3e}")
            entry["oracle"] = oracle_doc
            entry["_strip_check"] = strip_check
        analyses.append(entry)
    if json_out:
        doc = {
            "version": __version__,
            "system": _system_doc(sysd),
            "zero_tol": zero_tol,
            "tolerances": dataclasses.asdict(TOL),
            "frozen_time": _frozen_doc(frozen),
            "analyses": [{k: v for k, v in e.items() if not k.startswith("_")} for e in analyses],
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
                sc = entry["_strip_check"]
                parts = ", ".join(f"{v:.6g}" for v in fce.real_parts)
                inside = "yes" if sc.passed else "NO"
                label = ""
                if entry["classification"] == "inconclusive":
                    label = " (independent route, not a drift-test certificate)"
                click.echo(f"monodromy exponent real parts: {parts} "
                           f"(inside strip: {inside}){label}")
                click.echo(f"transition bound worst violation: "
                           f"{entry['oracle']['sandwich_violation']:.3e}")
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
    if t_end <= sysd.t0:
        raise InputError(f"--t-end must exceed t0 = {sysd.t0:g}")
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
    sysd = _load_system(file, system_name, params)
    kind = _resolve_kind(sysd, norm)
    if t_end is None:
        t_end = sysd.t0 + 5.0 * sysd.period
    if t_end <= sysd.t0:
        raise InputError(f"--t-end must exceed t0 = {sysd.t0:g}")
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
    # stable unforced system is what licenses a decay claim for the response
    drift = perturb.windowed_drift(d, np.linspace(sysd.t0, t_end, 65), window=1.0)
    drift_vanishes = float(drift.sups.max()) <= 1e-12 or drift.tail_log_slope < -1e-4
    claimed = (verdict.classification == "UES" and drift_vanishes
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
            "drift_window": drift.window,
            "drift_sups": [float(v) for v in drift.sups],
            "drift_tail_log_slope": drift.tail_log_slope,
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
    click.echo(f"disturbance windowed-integral sup: first {drift.sups[0]:.6g}, "
               f"last {drift.sups[-1]:.6g}, tail log-slope {drift.tail_log_slope:.6g}")
    if claimed:
        click.echo("forced-state decay: claimed (stable unforced system, vanishing drift)")
    else:
        why = []
        if verdict.classification != "UES":
            why.append(f"unforced verdict is {verdict.classification}")
        if not drift_vanishes:
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
    except BlowupError as exc:
        click.echo(f"numeric failure: {exc} (state diverged before any usable sample)", err=True)
        sys.exit(2)
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
