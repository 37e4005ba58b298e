"""Stability certificates for linear periodic time-varying systems.

Given x' = A(t) x with T-periodic A, the package integrates logarithmic
norms of A and -A over one period and turns the results into explicit
uniform (exponential) stability or instability certificates, strips that
confine the Floquet exponents, and decay envelopes for perturbed
trajectories.  An independent Runge-Kutta/monodromy route cross-checks
every certificate.

Each public name lives in one submodule and is imported from there, as in
`from lpstab.periodic import classify`.  `import lpstab` imports no numpy:
the command line sets its BLAS thread default before numpy starts (see
cli.py).
"""

from ._version import __version__
