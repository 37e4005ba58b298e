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

# lpstab's matrices are at most 64 wide, too small for BLAS threads to pay off, yet
# OpenBLAS's helper threads spin for about a tenth of a CPU second in every process.
# So the command line runs on one BLAS thread unless the user chose a count; this must
# happen before numpy loads, which is why `import lpstab` leaves numpy out.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Without a bytecode cache a process compiles all it imports, so only the drift route
# and numpy load here, the rest where it runs: floquet, catalog, json, cli_timeseries.
# lpstab's modules load before the standard ones, which saves 0.2 MB a process
from . import lognorm, periodic
from ._version import __version__
from .config import TOL
from .errors import InputError, NotPositiveDefiniteError, NumericError, SingularMatrixError
from .linalg import NormKind
from .periodic import SystemDef

import gc
import math
import sys
import textwrap
from types import SimpleNamespace

import numpy as np

_NORMS = (*lognorm.NAMED, "weighted")


def _load_file(path: str) -> SystemDef:
    import json
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


def _parse_params(params: list[str] | tuple[str, ...]) -> dict[str, float]:
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


def _load_system(opt: SimpleNamespace) -> SystemDef:
    if (opt.file is None) == (opt.system is None):
        raise UsageError("provide exactly one of --file or --system")
    kwargs = _parse_params(opt.param)
    if opt.system is not None:
        from . import catalog
        return catalog.get(opt.system, kwargs).system
    if kwargs:
        raise InputError("--param only applies to --system catalog entries")
    return _load_file(opt.file)


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
        if name not in _NORMS:
            raise InputError(f"unknown norm {name!r}; choose from {', '.join(sorted(_NORMS))}")
        if names.count(name) > 1:
            raise InputError(f"--norm names {name!r} more than once")
        out.append((name, _resolve_kind(sysd, name)))
    return out


def _system_doc(sysd: SystemDef) -> dict:
    return {"n": sysd.n, "period": sysd.period, "t0": sysd.t0,
            "entries": [list(r) for r in sysd.as_strings()]}


def _emit_json(doc: dict) -> None:
    import json
    print(json.dumps(doc, indent=2, sort_keys=True))


def _write_csv(fh, header: str, rows: np.ndarray) -> None:
    """CSV with the given header and one line per row, each value as %.17g."""
    fh.write(header + "\n")
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    for row in rows.tolist():  # in one write, a run whose reader closed early ended with exit 0
        fh.write(line % tuple(row))


def _record_doc(record, *omit: str) -> dict:
    """The fields of a result record as a JSON object, minus those named."""
    return {k: v for k, v in record._asdict().items() if k not in omit}


def analyze(opt: SimpleNamespace) -> None:
    """Classify the system in each requested norm and cross-check."""
    sysd = _load_system(opt)
    kinds = _resolve_kinds(sysd, opt.norm)
    zero_tol, no_oracle = opt.zero_tol, opt.no_oracle
    frozen = periodic.frozen_time_check(sysd)
    verdicts = [periodic.classify(sysd, kind, zero_tol) for _, kind in kinds]
    if no_oracle:
        checks = [("skipped: oracle disabled", [])] * len(verdicts)
    else:
        from . import floquet
        checks = floquet.cross_checks(sysd, verdicts)
    analyses = [{"norm": name, **_record_doc(verdict, "kind"), "rates": _record_doc(verdict.rates, "period"),
                 "oracle": oracle} for (name, _), verdict, (oracle, _) in zip(kinds, verdicts, checks)]
    failures = [line for _, lines in checks for line in lines]
    if opt.json:
        doc = {
            "version": __version__,
            "system": _system_doc(sysd),
            "zero_tol": zero_tol,
            "tolerances": TOL._asdict(),
            "frozen_time": _record_doc(frozen),
            "analyses": analyses,
        }
        _emit_json(doc)
    else:
        print(f"tool: lpstab {__version__}")
        print(f"system: n={sysd.n} period={sysd.period:.6g} t0={sysd.t0:.6g}")
        ft_state = "applicable" if frozen.applicable else "not applicable (a sampled matrix is not Hurwitz)"
        print(f"frozen-time route: {ft_state}; alpha={frozen.alpha:.6g} "
              f"sup|A|={frozen.m_bound:.6g} sup|A'|={frozen.sup_adot:.6g}; "
              f"margin condition {'met' if frozen.c1_satisfied else 'not met'}, "
              f"rate condition {'met' if frozen.c2_satisfied else 'not met'}")
        for entry in analyses:
            rates = entry["rates"]
            print(f"--- norm {entry['norm']} ---")
            print(f"verdict: {entry['classification']}")
            if entry["K"] is not None:
                print(f"overshoot K: {entry['K']:.6g}")
            if entry["alpha_tilde"] is not None:
                print(f"decay rate: {entry['alpha_tilde']:.6g}")
            print(f"one-period drift: forward {rates['pi_plus_period']:.6g}, "
                  f"reversed {rates['pi_minus_period']:.6g}")
            print(f"averages: lambda+ {rates['lambda_plus']:.6g}, "
                  f"lambda- {rates['lambda_minus']:.6g}")
            print(f"offsets: dU+ {rates['delta_upper_plus']:.6g}, "
                  f"dL+ {rates['delta_lower_plus']:.6g}, "
                  f"dU- {rates['delta_upper_minus']:.6g}, "
                  f"dL- {rates['delta_lower_minus']:.6g}")
            print(f"exponent strip: [{entry['strip'][0]:.6g}, {entry['strip'][1]:.6g}]")
            if not no_oracle:
                oracle = entry["oracle"]
                if "fce_real_parts" in oracle:
                    parts = ", ".join(("<=" if k < oracle.get("unresolved_exponents", 0) else "") + f"{v:.6g}"
                                      for k, v in enumerate(oracle["fce_real_parts"]))
                    inside = "yes" if oracle["strip_check"]["passed"] else "NO"
                    label = ""
                    if entry["classification"] == "inconclusive":
                        label = " (independent route, not a drift-test certificate)"
                    print(f"monodromy exponent real parts: {parts} "
                          f"(inside strip: {inside}){label}")
                if oracle["sandwich_violation"] is not None:
                    print(f"transition bound worst violation: {oracle['sandwich_violation']:.3e}")
                if "partially_resolved" in oracle:
                    print(f"oracle: partially resolved: {'; '.join(oracle['partially_resolved'])}")
            print(entry["message"])
    if failures:
        raise NumericError("cross-checks failed: " + "; ".join(failures))


def series(opt: SimpleNamespace) -> None:
    """Write drift-integral or trajectory series as CSV."""
    from . import cli_timeseries
    cli_timeseries.series(opt)


def perturb_cmd(opt: SimpleNamespace) -> None:
    """Simulate x' = A(t) x + d(t) and summarize decay of the response."""
    from . import cli_timeseries
    cli_timeseries.perturb_cmd(opt)


# Each command's options, one row each: long name, short alias, kind, default, help, and
# the value's name in --help (None: named after the kind).  The kind is str, float, int,
# a tuple of choices, bool for a flag or list for a repeatable str.  A command receives
# the values as attributes named after the long names (--zero-tol: zero_tol).  --help
# shows the default of a str, float, int or choice option unless it is None.
_HELP = ("--help", None, bool, False, "Show this message and exit.", None)
_SOURCE = (
    ("--file", "-f", str, None, "system JSON file", "PATH"),
    ("--system", "-s", str, None, "built-in catalog system name", None),
    ("--param", None, list, (), "catalog factory parameter key=value (repeatable)", None),
)
_COMMANDS = {
    "analyze": (analyze, (
        *_SOURCE,
        ("--norm", "-n", str, "one", f"comma separated list drawn from {', '.join(_NORMS)}", None),
        ("--zero-tol", None, float, None, "treat a one-period drift within this band of zero as zero", None),
        ("--no-oracle", None, bool, False, "skip the transition-matrix cross-checks", None),
        ("--json", None, bool, False, "machine-readable output", None),
        _HELP)),
    "series": (series, (
        *_SOURCE,
        ("--norm", "-n", _NORMS, "one", "", None),
        ("--t-end", None, float, None, "last sample time [default: t0 + 3 periods]", None),
        ("--samples", None, int, 512, "", None),
        ("--trajectory", None, str, None,
         "emit the unforced trajectory from this initial state instead of drift integrals", '"c1,...,cn"'),
        ("--out", "-o", str, None, "output path, - for stdout", None),
        _HELP)),
    "perturb": (perturb_cmd, (
        *_SOURCE,
        ("--norm", "-n", _NORMS, "two", "norm for the reported magnitudes", None),
        ("--d", None, str, None, "disturbance entries, separated by ; or , [default: zero]", '"e1;...;en"'),
        ("--x0", None, str, None, "initial state, comma separated [default: all ones]", None),
        ("--t-end", None, float, None, "final time [default: t0 + 5 periods]", None),
        ("--samples", None, int, 256, "", None),
        ("--out", "-o", str, None, "write the trajectory CSV here", None),
        ("--json", None, bool, False, "machine-readable output", None),
        _HELP)),
}
_ROOT_DOC = "Stability certificates for linear periodic systems."
_TYPE_NAMES = {str: "text", list: "text", float: "float", int: "integer"}


class UsageError(Exception):
    """A malformed command line.  With usage set, the message follows the usage line of
    the command being parsed and a pointer to its --help."""

    def __init__(self, message: str, usage: bool = True):
        super().__init__(message)
        self.usage = usage


def _no_such(what: str, name: str, names) -> UsageError:
    from difflib import get_close_matches
    close = sorted(get_close_matches(name, names)) if names else []
    hint = "" if not close else (f" Did you mean {close[0]!r}?" if len(close) == 1 else
                                 f" (Did you mean one of: {', '.join(map(repr, close))}?)")
    return UsageError(f"No such {what} {name!r}.{hint}")


def _scan(table, args: list[str], interspersed: bool):
    """Read the options of table off args: the raw values by long name in order of
    first use (a list for a repeatable option, the last value otherwise, True for a
    flag), and the other tokens.

    An option that takes a value takes the next token whatever it looks like, or what
    follows = in --opt=value, or the rest of a short option's token (-sVALUE); no short
    option is a flag.  Names are matched whole, never abbreviated.  -- ends the
    options; so does the first other token unless interspersed.
    """
    longs = {row[0]: row for row in table}
    shorts = {row[1]: row for row in table if row[1]}
    raw, rest = {}, []
    args = list(args)

    def take(row, name):
        if row[2] is bool:
            value = True
        elif args:
            value = args.pop(0)
        else:
            raise UsageError(f"Option {name!r} requires an argument.", usage=False)
        if row[2] is list:
            raw.setdefault(row[0], []).append(value)
        else:
            raw[row[0]] = value

    while args:
        arg = args.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                args.insert(0, arg)
                break
            rest.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name in longs:
            if eq:
                if longs[name][2] is bool:
                    raise UsageError(f"Option {name!r} does not take a value.", usage=False)
                args.insert(0, value)
            take(longs[name], name)
        elif arg[:2] == "--":
            raise _no_such("option", name, list(longs))
        elif arg[:2] in shorts:
            if arg[2:]:
                args.insert(0, arg[2:])
            take(shorts[arg[:2]], arg[:2])
        else:
            raise _no_such("option", arg[:2], ())
    return raw, rest + args


def _options(table, raw: dict) -> SimpleNamespace:
    """The command's option values, converted in order of first use (the first bad
    value is the one reported), with the defaults of the options not given."""
    rows = {row[0]: row for row in table}
    opt = SimpleNamespace(**{name[2:].replace("-", "_"): row[3] for name, row in rows.items()})
    for name, value in raw.items():
        _, short, kind = rows[name][:3]
        if isinstance(kind, tuple):
            bad = None if value in kind else f"is not one of {', '.join(map(repr, kind))}"
        elif kind in (float, int):
            try:
                value, bad = kind(value), None
            except ValueError:
                bad = f"is not a valid {_TYPE_NAMES[kind]}"
        else:
            bad = None
        if bad is not None:
            hint = " / ".join(f"'{n}'" for n in (name, short) if n)
            raise UsageError(f"Invalid value for {hint}: {value!r} {bad}.")
        setattr(opt, name[2:].replace("-", "_"), value)
    return opt


def _columns(rows) -> list[str]:
    # names in a column at most 30 wide, help wrapped beside them to 78 columns
    width = min(max(len(names) for names, _ in rows), 30) + 2
    lines = []
    for names, text in rows:
        wrapped = textwrap.wrap(text, max(76 - width, 10)) or [""]
        if len(names) <= width - 2:
            lines.append(f"  {names:{width}}{wrapped[0]}".rstrip())
        else:
            lines += [f"  {names}", f"{'':{width + 2}}{wrapped[0]}"]
        lines += [f"{'':{width + 2}}{line}" for line in wrapped[1:]]
    return lines


def _usage(command: str | None) -> str:
    return f"Usage: lpstab {command} [OPTIONS]" if command else "Usage: lpstab [OPTIONS] COMMAND [ARGS]..."


def _doc(command: str) -> str:
    return _COMMANDS[command][0].__doc__ or ""  # python -OO strips docstrings


def _help(command: str | None) -> str:
    doc, table = (_ROOT_DOC, (_HELP,)) if command is None else (_doc(command), _COMMANDS[command][1])
    rows = []
    for name, short, kind, default, text, metavar in table:
        names = f"{short}, {name}" if short else name
        if kind is not bool:
            names += " " + (metavar or (f"[{'|'.join(kind)}]" if isinstance(kind, tuple)
                                        else _TYPE_NAMES[kind].upper()))
        if default is not None and kind not in (bool, list):
            text = f"{text}  [default: {default}]" if text else f"[default: {default}]"
        rows.append((names, text))
    lines = [_usage(command), "", textwrap.fill(doc, 76, initial_indent="  ", subsequent_indent="  "),
             "", "Options:", *_columns(rows)]
    if command is None:
        lines += ["", "Commands:", *_columns([(c, _doc(c)) for c in sorted(_COMMANDS)])]
    return "\n".join(lines)


def _fail(message: str, code: int) -> None:
    sys.stdout.flush()  # what the command printed stays ahead of the message
    print(message, file=sys.stderr)
    sys.exit(code)


def _main(args: list[str]) -> None:
    command = None  # once known, usage errors show its usage line
    try:
        if not args:
            _fail(_help(None), 1)
        raw, rest = _scan((_HELP,), args, interspersed=False)
        if raw:
            print(_help(None))
            return
        if not rest:
            raise UsageError("Missing command.")
        if rest[0] not in _COMMANDS:
            # an option after --, as in `lpstab -- --help`, still counts
            if rest[0][:1] == "-" and _scan((_HELP,), rest, interspersed=False)[0]:
                print(_help(None))
                return
            raise _no_such("command", rest[0], list(_COMMANDS))
        command = rest[0]
        run, table = _COMMANDS[command]
        raw, extra = _scan(table, rest[1:], interspersed=True)
        if "--help" in raw:
            print(_help(command))
            return
        opt = _options(table, raw)
        if extra:
            raise UsageError(f"Got unexpected extra argument{'s' if len(extra) > 1 else ''} "
                             f"({' '.join(extra)})")
        run(opt)
    except UsageError as exc:
        if exc.usage:
            prog = f"lpstab {command}" if command else "lpstab"
            print(f"{_usage(command)}\nTry '{prog} --help' for help.\n", file=sys.stderr)
        _fail(f"Error: {exc}", 1)
    except InputError as exc:
        _fail(f"error: {exc}", 1)
    except NumericError as exc:
        _fail(f"numeric failure: {exc}", 2)
    except MemoryError as exc:  # numpy's message names the array's size and shape
        _fail(f"out of memory: {str(exc) or 'allocation failed'}", 2)


def main(argv=None):
    """Run the command line on argv, or on sys.argv[1:] as the process's own command.

    With no argv the process ends with the command, by whatever exit, so the objects
    left are frozen out of the cyclic collector: its passes at interpreter exit would
    walk every numpy and lpstab object only for the exit to free them.  A caller that
    passes argv keeps a normal collector.
    """
    try:
        _main(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away (`| head`): stop quietly, and send what is left
        # in the buffer nowhere so that the interpreter's last flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    main()
