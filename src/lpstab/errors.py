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
    """A transition matrix passed the largest float with RK4 steps that
    resolve A: the flow's own growth, not the integrator's divergence.

    For strongly unstable systems this is diagnostic rather than fatal;
    callers that can say something useful catch it.
    """
