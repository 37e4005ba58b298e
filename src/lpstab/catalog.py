"""Built-in example systems with closed-form reference data.

Each entry couples a SystemDef with, where available, an exact transition
matrix callable and a small dict of exact constants, so tests and demos can
compare every numerical route against ground truth.  Look systems up by
name through get(), which also handles factory parameters such as the
rotating-frame coupling; example1 and example2 are stable short aliases for
the two headline systems.  Everything is read from one table, _ENTRIES;
CATALOG maps each canonical name to a zero-argument factory for easy
iteration.
"""

import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import InputError
from .periodic import SystemDef, system_from_strings


class CatalogSystem(NamedTuple):
    name: str
    description: str
    system: SystemDef
    # exact Phi(t, s), or None when no closed form is known
    transition: Callable[[float, float], np.ndarray] | None
    notes: dict


def rotating_frame(beta: float = 1.5) -> CatalogSystem:
    """Rotation-conjugated flow whose frozen eigenvalues mislead.

    Every frozen matrix A(t) has eigenvalues (beta - 2 +/- sqrt(beta^2 - 4))/2
    with negative real part for 0 < beta < 2, yet the flow carries a mode
    exp((beta - 1) t): unstable for beta > 1, marginal at beta = 1.  The
    two-norm logarithmic norm is the constant max(beta - 1, -1), so the drift
    test reads the true behaviour where the frozen spectra cannot.
    """
    b = float(beta)
    rows = [
        [f"-1 + {b!r}*cos(t)^2", f"1 - {b!r}*sin(t)*cos(t)"],
        [f"-1 - {b!r}*sin(t)*cos(t)", f"-1 + {b!r}*sin(t)^2"],
    ]
    # entries are pi-periodic; the declared 2 pi matches the usual snapshot
    sysd = system_from_strings(rows, 2.0 * math.pi)
    a = b - 1.0

    def transition(t: float, s: float) -> np.ndarray:
        fwd = np.array([[math.exp(a * t) * math.cos(t), math.exp(-t) * math.sin(t)],
                        [-math.exp(a * t) * math.sin(t), math.exp(-t) * math.cos(t)]])
        back = np.array([[math.exp(-a * s) * math.cos(s), -math.exp(-a * s) * math.sin(s)],
                         [math.exp(s) * math.sin(s), math.exp(s) * math.cos(s)]])
        return fwd @ back

    notes = {
        "mu_two": max(a, -1.0),
        "mu_two_reversed": 1.0,
        "fce_real_parts": (-1.0, a) if a >= -1.0 else (a, -1.0),
        "multiplier_magnitudes": (math.exp(-2.0 * math.pi), math.exp(2.0 * math.pi * a)),
        "rate_norm_two": b,  # |A'(t)|_2 is constant
    }
    return CatalogSystem(f"rotating_frame({b:g})",
                         "frozen spectra stable, flow need not be", sysd, transition, notes)


def strong_coupling() -> CatalogSystem:
    """Symmetric two-state system with fast strong off-diagonal coupling.

    Uniformly exponentially stable, but the coupling amplitude 7.5 is large
    against the period pi/6, so naive bounds are useless while the one-period
    drift integrals certify decay with a small overshoot constant.
    """
    rows = [
        ["-5.5 + 7.5*sin(12*t)", "7.5*cos(12*t)"],
        ["7.5*cos(12*t)", "-20.5 - 7.5*sin(12*t)"],
    ]
    sysd = system_from_strings(rows, math.pi / 6.0)
    notes = {"trace": -26.0}  # constant, so the exponent real parts sum to -26
    return CatalogSystem("strong_coupling", "stiff coupled pair, certified stable", sysd,
                         None, notes)


def lti_diag(a: float = -1.0, b: float = -2.0) -> CatalogSystem:
    """Constant diagonal system; every quantity is exact."""
    af, bf = float(a), float(b)
    sysd = system_from_strings([[f"{af!r}", "0"], ["0", f"{bf!r}"]], 1.0)

    def transition(t: float, s: float) -> np.ndarray:
        return np.array([[math.exp(af * (t - s)), 0.0], [0.0, math.exp(bf * (t - s))]])

    return CatalogSystem(f"lti_diag({af:g},{bf:g})", "constant diagonal reference", sysd,
                         transition, {"mu_all": max(af, bf)})


def lti_jordan_marginal() -> CatalogSystem:
    """Constant Jordan block [[0,1],[0,0]]: linear polynomial growth.

    No norm can certify stability (there is none), yet the drift averages
    depend on the norm: 1 in the one- and inf-norms but 1/2 in the two-norm,
    giving a strictly sharper exponent strip.
    """
    sysd = system_from_strings([["0", "1"], ["0", "0"]], 1.0)

    def transition(t: float, s: float) -> np.ndarray:
        return np.array([[1.0, t - s], [0.0, 1.0]])

    notes = {"mu_one": 1.0, "mu_inf": 1.0, "mu_two": 0.5, "mu_reversed_two": 0.5}
    return CatalogSystem("lti_jordan_marginal", "marginal Jordan block", sysd, transition, notes)


def scalar_unstable() -> CatalogSystem:
    """Scalar x' = (0.3 + sin t) x: oscillates but drifts up on average."""
    sysd = system_from_strings([["0.3 + sin(t)"]], 2.0 * math.pi)

    def transition(t: float, s: float) -> np.ndarray:
        return np.array([[math.exp(0.3 * (t - s) + math.cos(s) - math.cos(t))]])

    return CatalogSystem("scalar_unstable", "scalar with positive mean drift", sysd,
                         transition, {"drift_mean": 0.3})


# canonical name -> (factory, parameter names the factory accepts, aliases)
_ENTRIES: dict[str, tuple[Callable[..., CatalogSystem], frozenset[str], tuple[str, ...]]] = {
    "rotating_frame": (rotating_frame, frozenset({"beta"}), ("example1",)),
    "rotating_frame_marginal": (lambda: rotating_frame(1.0), frozenset(), ()),
    "strong_coupling": (strong_coupling, frozenset(), ("example2",)),
    "lti_diag": (lti_diag, frozenset({"a", "b"}), ()),
    "lti_jordan_marginal": (lti_jordan_marginal, frozenset(), ()),
    "scalar_unstable": (scalar_unstable, frozenset(), ()),
}

_BY_NAME = {alias: entry for name, entry in _ENTRIES.items() for alias in (name, *entry[2])}

CATALOG: dict[str, Callable[[], CatalogSystem]] = {name: e[0] for name, e in _ENTRIES.items()}


def get(name: str, params: Mapping[str, float] | None = None) -> CatalogSystem:
    """Look up a catalog system by name or alias, passing factory parameters through.

    Raises InputError for an unknown name or a parameter the chosen factory
    does not accept, listing what would have been valid.
    """
    if name not in _BY_NAME:
        raise InputError(f"unknown catalog system {name!r}; "
                         f"available: {', '.join(sorted(_BY_NAME))}")
    factory, allowed, _ = _BY_NAME[name]
    kwargs = dict(params or {})
    unknown = sorted(set(kwargs) - allowed)
    if unknown:
        accepted = ", ".join(sorted(allowed)) if allowed else "none"
        raise InputError(f"{name} does not accept parameter(s) {', '.join(unknown)}; "
                         f"accepted: {accepted}")
    return factory(**kwargs)
