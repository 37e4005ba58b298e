"""Exception hierarchy.

InputError covers anything a caller can fix (bad flags, malformed files,
non-periodic entries); the CLI maps it to exit code 1.  NumericError covers
internal numerical failure (non-convergence, singular pivots, overflow) and
maps to exit code 2.
"""


class LpstabError(Exception):
    pass


class InputError(LpstabError):
    pass


class NumericError(LpstabError):
    pass


class ConvergenceError(NumericError):
    pass


class SingularMatrixError(NumericError):
    pass


class NotPositiveDefiniteError(NumericError):
    pass


class BlowupError(NumericError):
    """A transition matrix outside the float range with RK4 steps that
    resolve A: past the largest float, the flow's own growth and not the
    integrator's divergence, or underflowed to zero everywhere
    (UnderflowError).  The oracle judges it against the drift bounds
    (floquet.cross_checks); elsewhere it is a numerical failure.
    """


class UnderflowError(BlowupError):
    """A transition matrix accepted by step doubling whose every entry is zero."""
