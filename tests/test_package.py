"""The package namespace, the command line's BLAS thread default and the
modules a command line run loads.

`import lpstab` must not import numpy, so that lpstab.cli can set
OPENBLAS_NUM_THREADS before numpy starts OpenBLAS.  Each check runs in a
fresh interpreter, since this one imported numpy long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpstab

# the namespace the package exported when __init__ imported every submodule
OLD_NAMESPACE = {
    "config": ["TOL", "Tolerances"],
    "errors": ["BlowupError", "ConvergenceError", "InputError", "LpstabError",
               "NotPositiveDefiniteError", "NumericError", "SingularMatrixError"],
    "expr": ["EvalError", "ParseError", "evaluate", "parse", "to_string"],
    "linalg": ["NormKind", "gen_eigs", "mat_norm", "sym_eigs", "vec_norm"],
    "lognorm": ["INF", "NAMED", "ONE", "TWO", "lyapunov_weighted", "mu", "mu_limit_estimate",
                "mu_weighted", "weighted"],
    "periodic": ["FrozenTimeReport", "RateSummary", "SystemDef", "Verdict", "barrier_series",
                 "classify", "fce_strip", "frozen_time_check", "integrate", "pi_integral",
                 "rate_summary", "system_from_strings", "validate_periodicity"],
    "floquet": ["DecayCheck", "FceEstimate", "StripCheck", "TransitionMatrix",
                "integrate_transition", "integrate_transitions", "monodromy_fce",
                "verify_decay", "verify_sandwich", "verify_strip"],
    "perturb": ["ConvergenceReport", "Disturbance", "DriftReport", "Trajectory",
                "convergence_report", "disturbance_from_strings", "simulate_perturbed",
                "windowed_drift"],
    "_version": ["__version__"],
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(code, **env_vars):
    # `python -c code` with this lpstab on the path, no thread variables but those given,
    # and the last line of its stdout read as JSON
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=str(Path(lpstab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_numpy_and_environment_alone():
    got = run_python("import json, os, sys; before = dict(os.environ); import lpstab; "
                     "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == before]))")
    assert got == [False, True]


def test_cli_defaults_to_one_blas_thread():
    got = run_python("import json, os, lpstab.cli, numpy; "
                     "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None; "
                     "blas = numpy.__config__.CONFIG['Build Dependencies']['blas']['name']; "
                     "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), "
                     "os.environ.get('OMP_NUM_THREADS'), tasks, blas]))")
    assert got[:2] == ["1", None]
    if got[2] is not None and "openblas" in got[3]:
        assert got[2] == 1  # no BLAS helper threads next to the main one


@pytest.mark.parametrize("var", THREAD_VARS)
def test_cli_keeps_a_thread_count_the_user_set(var):
    got = run_python("import json, os, lpstab.cli; "
                     "print(json.dumps([os.environ.get(v) for v in %r]))" % (THREAD_VARS,), **{var: "2"})
    assert got == ["2" if v == var else None for v in THREAD_VARS]


@pytest.mark.parametrize("argv,loaded", [
    (["analyze", "-s", "example2", "--norm", "one,two", "--json"], []),
    (["perturb", "-s", "example2", "--json"], ["lpstab.perturb"]),
], ids=["analyze", "perturb"])
def test_cli_runs_leave_numpy_random_unloaded(argv, loaded):
    # numpy.random brings hashlib and OpenSSL with it; perturb is imported only where it runs
    got = run_python("import contextlib, io, json, sys; from lpstab.cli import main\n"
                     f"with contextlib.redirect_stdout(io.StringIO()): main({argv!r})\n"
                     "print(json.dumps([m for m in ('numpy.random', 'lpstab.perturb') if m in sys.modules]))")
    assert got == loaded


def test_old_names_resolve_to_their_submodule_objects():
    got = run_python(f"""
import importlib, json, lpstab
listed = dir(lpstab)  # before any name is first used
same = [n for m, ns in {OLD_NAMESPACE!r}.items() for n in ns
        if getattr(lpstab, n) is getattr(importlib.import_module("lpstab." + m), n)]
modules = [m for m in {list(OLD_NAMESPACE)!r} if m != "_version"
           and getattr(lpstab, m) is importlib.import_module("lpstab." + m)]
print(json.dumps({{"listed": listed, "same": same, "modules": modules}}))
""")
    names = [n for ns in OLD_NAMESPACE.values() for n in ns]
    assert got["same"] == names
    assert got["modules"] == [m for m in OLD_NAMESPACE if m != "_version"]
    assert set(names) | set(got["modules"]) <= set(got["listed"])


def test_no_submodule_imports_scipy():
    # scipy computes the benchmark's references (perfbench/reference.py) and stays out of lpstab
    got = run_python("import importlib, json, pkgutil, sys, lpstab; "
                     "names = [m.name for m in pkgutil.iter_modules(lpstab.__path__, 'lpstab.')]; "
                     "[importlib.import_module(name) for name in names]; "
                     "print(json.dumps([names, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    assert {"lpstab.cli", "lpstab.floquet", "lpstab.perturb"} <= set(got[0])
    assert got[1] == []


def test_no_submodule_imports_dataclasses():
    # records are named tuples and slots classes: a frozen dataclass generates and
    # compiles its methods at import, about 1 ms each
    got = run_python("import importlib, json, pkgutil, sys, lpstab; "
                     "names = [m.name for m in pkgutil.iter_modules(lpstab.__path__, 'lpstab.')]; "
                     "[importlib.import_module(name) for name in names]; "
                     "print(json.dumps([names, 'dataclasses' in sys.modules]))")
    assert {"lpstab.cli", "lpstab.floquet", "lpstab.perturb"} <= set(got[0])
    assert got[1] is False


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lpstab.no_such_name  # noqa: B018
