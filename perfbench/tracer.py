"""Outside-in layer tracing for one lpstab CLI invocation.

Run as a script, this starts a fresh interpreter (so lpstab's lru_caches
start cold, exactly as in the CLI), wraps the public functions of each
lpstab module listed in LAYERS, calls lpstab.cli.main(argv) and writes
the recorded spans to an .npz file:

    python3 perfbench/tracer.py SPANS.npz INVOCATION_ID -- analyze -s example2

Each span is (function, start, end, parent span, invocation id).  Spans
live in memory until the CLI returns.  Nothing inside src/lpstab changes:
every module-level binding of a wrapped function is replaced, including
by-name imports such as perturb.integrate_transition.  A function that no
longer exists is reported as absent and the run goes on.  The CLI's
stdout is left untouched, so it can be compared byte for byte with an
untraced run.

Imported as a module (by run.py), it only provides summarize(), which
turns one spans file into per-layer numbers.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# module -> public functions wrapped, in reporting order
LAYERS: dict[str, tuple[str, ...]] = {
    "periodic": ("SystemDef.matrix", "integrate", "rate_summary", "pi_integral",
                 "frozen_time_check", "validate_periodicity", "barrier_series"),
    "perturb": ("Disturbance.vector", "simulate_perturbed", "windowed_drift",
                "convergence_report"),
    "lognorm": ("mu",),
    "linalg": ("sym_eigs", "gen_eigs", "mat_norm"),
    "floquet": ("integrate_transition", "monodromy_fce", "verify_strip",
                "verify_sandwich", "verify_decay"),
}

FUNCTIONS = tuple(f"{mod}.{name}" for mod, names in LAYERS.items() for name in names)

# RK4 with a shared midpoint evaluates A(t) three times per step, so the
# accepted pass of a step-doubling loop made 3 * steps evaluations
_EVALS_PER_STEP = 3


class Tracer:
    """Span recorder.  Parallel arrays keep a few hundred thousand spans
    small; return-value details of a few functions go in meta."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.outer = array("b")    # 1 when no span of the same function is open
        self.start = array("d")
        self.end = array("d")
        self.meta: dict[int, list[int]] = {}
        self._stack: list[int] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, extract=None):
        fid = len(self.names)
        self.names.append(name)
        self._open.append(0)
        fids, parents, outer = self.fid, self.parent, self.outer
        starts, ends, stack, open_ = self.start, self.end, self._stack, self._open
        meta, clock = self.meta, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            outer.append(open_[fid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            open_[fid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_[fid] -= 1
                starts[idx] = t0
                ends[idx] = t1
            if extract is not None:
                meta[idx] = extract(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced


def _install(tracer: Tracer) -> tuple[list[str], object]:
    """Wrap every function in LAYERS.  Returns (absent names, the original
    rate_summary for its cache statistics, or None)."""
    import lpstab.cli  # noqa: F401  (imports every layer the CLI uses)

    # tolerant of a changed return type, so a refactor cannot break the CLI run
    extract = {
        "floquet.integrate_transition": lambda r: [getattr(r, "steps", 0)],
        "perturb.simulate_perturbed": lambda r: [getattr(r, "steps_per_interval", 0),
                                                 len(getattr(r, "times", ())) - 1],
    }
    modules = [m for n, m in sys.modules.items() if n == "lpstab" or n.startswith("lpstab.")]
    absent = []
    rate_summary = None
    for mod_name, names in LAYERS.items():
        mod = sys.modules.get(f"lpstab.{mod_name}")
        for name in names:
            qual = f"{mod_name}.{name}"
            owner, _, attr = name.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = getattr(holder, attr, None) if holder is not None else None
            if orig is None or not callable(orig):
                absent.append(qual)
                continue
            if qual == "periodic.rate_summary":
                rate_summary = orig
            wrapped = tracer.wrap(qual, orig, extract.get(qual))
            if owner:
                # a method: the class is shared by every binding
                setattr(holder, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
    return absent, rate_summary


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.npz INVOCATION_ID -- lpstab-args...", file=sys.stderr)
        return 64
    out_path, invocation, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer()
    absent, rate_summary = _install(tracer)
    from lpstab.cli import main as cli_main

    code = 0
    t0 = time.perf_counter()
    try:
        cli_main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    t1 = time.perf_counter()
    sys.stdout.flush()

    import numpy as np

    info = rate_summary.cache_info() if hasattr(rate_summary, "cache_info") else None
    header = {
        "invocation": invocation,
        "names": tracer.names,
        "absent": absent,
        "main_s": t1 - t0,
        "exit_code": code,
        "cache_hits": None if info is None else info.hits,
        "cache_misses": None if info is None else info.misses,
        "meta": {str(k): v for k, v in tracer.meta.items()},
    }
    np.savez(out_path,
             fid=np.frombuffer(tracer.fid, dtype=np.int32),
             parent=np.frombuffer(tracer.parent, dtype=np.int32),
             outer=np.frombuffer(tracer.outer, dtype=np.int8).astype(bool),
             start=np.frombuffer(tracer.start, dtype=np.float64) - t0,
             end=np.frombuffer(tracer.end, dtype=np.float64) - t0,
             header=np.array(json.dumps(header)))
    return code


# --------------------------------------------------------------- summaries

def summarize(path) -> dict:
    """Per-layer numbers of one traced invocation.

    For each wrapped function: calls, self_s (span time not covered by
    child spans) and busy_s (span time, counting nested spans of the same
    function once).  Plus the RK4 step counts and accepted-evaluation
    ratios, rate_summary cache statistics, cli.self_s (main() time outside
    any top-level span) and the list of absent functions.
    """
    import numpy as np

    with np.load(path) as z:
        fid, parent, outer = z["fid"], z["parent"], z["outer"]
        dur = z["end"] - z["start"]
        header = json.loads(str(z["header"]))
    names = header["names"]
    k = len(names)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(fid))
    self_time = dur - covered
    calls = np.bincount(fid, minlength=k)
    self_s = np.bincount(fid, weights=self_time, minlength=k)
    busy_s = np.bincount(fid[outer], weights=dur[outer], minlength=k)
    out = {}
    for i, name in enumerate(names):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])
        out[f"{name}.busy_s"] = float(busy_s[i])

    # A(t) evaluations made directly under each stepper span
    parent_fid = np.where(child, fid[np.maximum(parent, 0)], -1)
    meta = {int(i): v for i, v in header["meta"].items()}

    def direct_evals(owner: str) -> int:
        if owner not in names or "periodic.SystemDef.matrix" not in names:
            return 0
        mat = names.index("periodic.SystemDef.matrix")
        return int(np.count_nonzero((fid == mat) & (parent_fid == names.index(owner))))

    steps = sum(v[0] for i, v in meta.items() if names[fid[i]] == "floquet.integrate_transition")
    sub = [v for i, v in meta.items() if names[fid[i]] == "perturb.simulate_perturbed"]
    out["floquet.integrate_transition.steps"] = steps
    out["floquet.integrate_transition.accepted_evals"] = _EVALS_PER_STEP * steps
    out["floquet.integrate_transition.all_evals"] = direct_evals("floquet.integrate_transition")
    out["perturb.simulate_perturbed.substeps"] = sum(v[0] for v in sub)
    out["perturb.simulate_perturbed.accepted_evals"] = sum(_EVALS_PER_STEP * m * n for m, n in sub)
    out["perturb.simulate_perturbed.all_evals"] = direct_evals("perturb.simulate_perturbed")
    out["periodic.rate_summary.cache_hits"] = header["cache_hits"] or 0
    out["periodic.rate_summary.cache_misses"] = header["cache_misses"] or 0
    out["cli.self_s"] = header["main_s"] - float(dur[~child].sum())
    out["absent"] = header["absent"]
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
