"""Stability certificates for linear periodic time-varying systems.

Given x' = A(t) x with T-periodic A, the package integrates logarithmic
norms of A and -A over one period and turns the results into explicit
uniform (exponential) stability or instability certificates, strips that
confine the Floquet exponents, and decay envelopes for perturbed
trajectories.  An independent Runge-Kutta/monodromy route cross-checks
every certificate.

The names below load their submodule on first use (PEP 562), so that
`import lpstab` imports no numpy: the command line sets its BLAS thread
default before numpy starts (see cli.py).
"""

from importlib import import_module

from ._version import __version__

_SUBMODULES = ("catalog", "config", "errors", "expr", "floquet", "linalg", "lognorm",
               "periodic", "perturb", "transition")

_EXPORTS = {
    "config": ("TOL", "Tolerances"),
    "errors": ("BlowupError", "ConvergenceError", "InputError", "LpstabError",
               "NotPositiveDefiniteError", "NumericError", "SingularMatrixError"),
    "expr": ("EvalError", "ParseError", "evaluate", "parse", "to_string"),
    "linalg": ("NormKind", "gen_eigs", "mat_norm", "sym_eigs", "vec_norm"),
    "lognorm": ("INF", "NAMED", "ONE", "TWO", "lyapunov_weighted", "mu", "mu_limit_estimate",
                "mu_weighted", "weighted"),
    "periodic": ("FrozenTimeReport", "RateSummary", "SystemDef", "Verdict", "barrier_series",
                 "classify", "fce_strip", "frozen_time_check", "integrate", "pi_integral",
                 "rate_summary", "system_from_strings", "validate_periodicity"),
    "floquet": ("DecayCheck", "FceEstimate", "StripCheck", "monodromy_fce", "verify_decay",
                "verify_sandwich", "verify_strip"),
    "transition": ("TransitionMatrix", "integrate_transition", "integrate_transitions"),
    "perturb": ("ConvergenceReport", "Disturbance", "DriftReport", "Trajectory",
                "convergence_report", "disturbance_from_strings", "simulate_perturbed",
                "windowed_drift"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
