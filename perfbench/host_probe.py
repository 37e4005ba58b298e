"""Host-speed probe: a Python process doing lpstab's kind of work, without lpstab.

    python3 perfbench/host_probe.py

It starts an interpreter, imports numpy, runs a fixed loop of the kind
lpstab's per-sample code runs (plane rotations of a small matrix through
numpy indexing, float arithmetic in Python, small reductions) and exits.
run.py times it from spawn to exit, exactly as it times an lpstab
invocation, between invocations.  Nothing here changes when lpstab does,
so the probe's time tracks only the speed the shared host gives the
benchmark at that moment.
"""

import math
import sys

import numpy as np

ROUNDS = 800


def main() -> int:
    start = np.arange(16.0).reshape(4, 4) * 0.01 + np.eye(4)
    A = start.copy()
    acc = 0.0
    for k in range(ROUNDS):
        for p in range(3):
            q = p + 1
            theta = 1e-3 * float(A[p, q])
            c, s = math.cos(theta), math.sin(theta)
            row = A[p].copy()
            A[p] = c * row - s * A[q]
            A[q] = s * row + c * A[q]
        acc += float((np.triu(A, 1) ** 2).sum()) + float(A[0] @ A[1])
        if k % 50 == 49:
            A = start.copy()
    return 0 if math.isfinite(acc) else 1


if __name__ == "__main__":
    sys.exit(main())
