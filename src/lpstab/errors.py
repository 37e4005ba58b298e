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
    """State or transition matrix exceeded the overflow limit.

    For strongly unstable systems this is diagnostic rather than fatal;
    callers that can say something useful catch it.  t_reached is the time
    a state got to, or None for a transition matrix, which is judged over
    its whole segment.
    """

    def __init__(self, message, t_reached=None):
        super().__init__(message)
        self.t_reached = t_reached
