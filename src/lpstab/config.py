"""The shared numeric tolerances and size limits in one immutable record.

Functions take an explicit override only where their contract calls for one
(classify's zero tolerance, the transition integrator's accuracy target);
everything else reads the module-level TOL instance.  A constant with one
user lives in its module: transition's _COARSE and block budgets, perturb's
_PANEL_MATRICES, linalg's _SIGN_STEPS and _SIGN_STOP, and the forced-response
audit's 1e-9 and 1e-5, windowed_drift's 64 cells and _STATE_CAP in perturb.
Floats, not a set depth, end adaptive Simpson's refinement, and the float
range caps a transition pass.  ode_tol is read on two scales: the forced
stepper compares whole trajectories on the 1 + max|x| scale, the transition
kernel each pass on its own largest entry.  Tolerances is a named tuple:
TOL._replace(...) gives a modified copy and TOL._asdict() the fields by name.
"""

from typing import NamedTuple


class Tolerances(NamedTuple):
    # quadrature
    quad_abs: float = 1e-9          # absolute Simpson budget of each interval given to integrate (scan_points a period)

    # ODE integration (fixed-step RK4 with step doubling)
    ode_tol: float = 1e-8           # pass accepted when max|diff| <= ode_tol * scale (see above)
    ode_start_steps: int = 64
    ode_max_steps: int = 2 ** 20

    # classification and rate extraction
    zero_band: float = 1e-8         # |per-period integral| below this counts as zero
    scan_points: int = 2048         # uniform scan for barrier offset extrema
    refine_width: float = 1e-10     # bisection bracket width, relative to the period
    fd_step: float = 1e-6           # central-difference step, relative to the period

    # system validation
    periodicity_tol: float = 1e-9
    periodicity_grid: int = 64
    max_dim: int = 64

    # dense kernels
    sym_tol: float = 1e-12          # symmetry acceptance, relative
    singular_floor: float = 1e-13   # smallest singular value threshold, relative to the largest
    lyapunov_residual: float = 1e-8
    multiplier_floor: float = 1e-14  # relative to max|M|: smaller multipliers are eigvals round-off

    # verification slacks
    strip_slack: float = 1e-6
    sandwich_slack: float = 1e-6
    decay_slack: float = 1e-6


TOL = Tolerances()
