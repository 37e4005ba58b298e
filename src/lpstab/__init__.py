"""Stability certificates for linear periodic time-varying systems.

Given x' = A(t) x with T-periodic A, the package integrates logarithmic
norms of A and -A over one period and turns the results into explicit
uniform (exponential) stability or instability certificates, strips that
confine the Floquet exponents, and decay envelopes for perturbed
trajectories.  An independent Runge-Kutta/monodromy route cross-checks
every certificate.
"""

from .config import TOL, Tolerances
from .errors import (
    BlowupError,
    ConvergenceError,
    InputError,
    LpstabError,
    NotPositiveDefiniteError,
    NumericError,
    SingularMatrixError,
)
from .expr import EvalError, ParseError, evaluate, parse, to_string
from .linalg import NormKind, gen_eigs, mat_norm, sym_eigs, vec_norm
from .lognorm import (
    INF,
    NAMED,
    ONE,
    TWO,
    lyapunov_weighted,
    mu,
    mu_limit_estimate,
    mu_weighted,
    weighted,
)
from .periodic import (
    FrozenTimeReport,
    RateSummary,
    SystemDef,
    Verdict,
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
from .floquet import (
    DecayCheck,
    FceEstimate,
    StripCheck,
    TransitionMatrix,
    integrate_transition,
    integrate_transitions,
    monodromy_fce,
    verify_decay,
    verify_sandwich,
    verify_strip,
)
from .perturb import (
    ConvergenceReport,
    Disturbance,
    DriftReport,
    Trajectory,
    convergence_report,
    disturbance_from_strings,
    simulate_perturbed,
    windowed_drift,
)
from . import catalog
from ._version import __version__
