"""The package namespace, the command line's BLAS thread default, the
modules a command line run loads and the collector freeze at the end of
the console entry.

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


# the modules cli.py imports where they run, and what loads them: floquet for the oracle,
# transition for any transition matrix, catalog for --system, json for a JSON file or
# output, and cli_timeseries (with perturb for a trajectory) for series and perturb
ON_DEMAND = ("json", "lpstab.catalog", "lpstab.cli_timeseries", "lpstab.floquet", "lpstab.perturb",
             "lpstab.transition")


@pytest.mark.parametrize("argv,loaded", [
    (["--help"], []),
    (["series", "-s", "example2"], ["lpstab.catalog", "lpstab.cli_timeseries"]),
    (["series", "-f", "{file}", "--norm", "inf"], ["json", "lpstab.cli_timeseries"]),
    (["series", "-s", "example2", "--trajectory", "1,0"],
     ["lpstab.catalog", "lpstab.cli_timeseries", "lpstab.perturb", "lpstab.transition"]),
    (["perturb", "-s", "example2", "--json"],
     ["json", "lpstab.catalog", "lpstab.cli_timeseries", "lpstab.perturb", "lpstab.transition"]),
    (["perturb", "-f", "{file}"], ["json", "lpstab.cli_timeseries", "lpstab.perturb", "lpstab.transition"]),
    (["analyze", "-s", "example2", "--no-oracle"], ["lpstab.catalog"]),
    (["analyze", "-s", "example2", "--json"], ["json", "lpstab.catalog", "lpstab.floquet", "lpstab.transition"]),
    (["analyze", "-f", "{file}"], ["json", "lpstab.floquet", "lpstab.transition"]),
    (["analyze", "-f", "{file}", "--no-oracle"], ["json"]),
], ids=["help", "series", "series-file", "series-trajectory", "perturb", "perturb-file", "analyze-no-oracle",
        "analyze", "analyze-file", "analyze-file-no-oracle"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    # with no bytecode cache a process compiles every module it imports
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"entries": [["-1", "1"], ["0", "-2+sin(t)"]], "period": 6.283185307179586}))
    argv = [a.format(file=path) for a in argv]
    # the list is printed without json, which is one of the modules looked for
    got = run_python("import contextlib, io, sys; from lpstab.cli import main\n"
                     f"with contextlib.redirect_stdout(io.StringIO()): main({argv!r})\n"
                     f"print('[' + ', '.join(f'\"{{m}}\"' for m in {ON_DEMAND!r} if m in sys.modules) + ']')")
    assert got == loaded


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["analyze", "-s", "example2", "--norm", "one,two", "--json"],
    ["perturb", "-s", "example2", "--json"],
], ids=["help", "analyze", "perturb"])
def test_cli_runs_load_no_argument_parser_library(argv):
    # the command line parses its arguments itself: click cost every process about 13 ms
    got = run_python("import contextlib, io, json, sys; from lpstab.cli import main\n"
                     f"with contextlib.redirect_stdout(io.StringIO()): main({argv!r})\n"
                     "print(json.dumps([m for m in ('click', 'argparse', 'optparse') if m in sys.modules]))")
    assert got == []


@pytest.mark.parametrize("argv,code", [
    (["analyze", "-s", "example2", "--json"], 0),
    (["analyze", "--norm", "one"], 1),
    (["series", "-s", "example2", "--samples", "2", "--t-end", "1e308"], 2),
], ids=["analyze", "usage-error", "numeric-failure"])
def test_console_entry_freezes_the_collector_by_every_exit(argv, code):
    # the console script's form: main() with no arguments ends the process, so the
    # interpreter's exit collections have no objects left to walk
    env = dict(os.environ, PYTHONPATH=str(Path(lpstab.__file__).resolve().parents[1]))
    launcher = ("import atexit, gc, sys\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                "from lpstab.cli import main; sys.exit(main())")
    proc = subprocess.run([sys.executable, "-c", launcher, *argv], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == "frozen True"


def test_package_binds_only_its_version_until_a_submodule_is_imported():
    # each public name is imported from its own module; the import system binds a
    # submodule on the package once it is imported
    got = run_python("import json, lpstab; listed = [n for n in dir(lpstab) if not n.startswith('__')]; "
                     "from lpstab import periodic; import lpstab.periodic as same; "
                     "print(json.dumps([listed, lpstab.__version__, periodic is same, "
                     "[n for n in ('periodic', 'linalg', 'floquet') if hasattr(lpstab, n)]]))")
    assert got[0] == ["_version"]
    assert got[1] == lpstab.__version__ and got[2] is True
    assert got[3] == ["periodic", "linalg"]


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
