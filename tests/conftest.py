"""Shared test plumbing.

Tests marked @pytest.mark.criterion(num, title) feed an acceptance table
that is printed after the run, one pass/fail line per criterion; a
criterion spanning several tests passes only if all of them do.  Criterion
10 additionally caps the wall time of the whole session.

The run_limited fixture runs Python in a subprocess under an address-space
limit and a timeout, so a test of a memory blow-up fails instead of
exhausting the machine.
"""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lpstab

_RESULTS: dict[int, list] = {}
_T0 = time.perf_counter()

SUITE_BUDGET_SECONDS = 60.0


def _run_limited(args, mem_bytes=2 << 30, timeout=60):
    # `python *args` with this lpstab on the path; one BLAS thread keeps the
    # address space that numpy reserves on start-up small
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))

    src = str(Path(lpstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit, env=env)


@pytest.fixture
def run_limited():
    return _run_limited


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): acceptance criterion covered by this test")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    mark = item.get_closest_marker("criterion")
    if mark is None:
        return
    num, title = mark.args
    entry = _RESULTS.setdefault(num, [title, True])
    entry[1] = entry[1] and rep.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    elapsed = time.perf_counter() - _T0
    if 10 in _RESULTS and elapsed >= SUITE_BUDGET_SECONDS:
        _RESULTS[10][0] += f" (suite took {elapsed:.1f} s, budget {SUITE_BUDGET_SECONDS:.0f} s)"
        _RESULTS[10][1] = False
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        title, ok = _RESULTS[num]
        terminalreporter.write_line(
            f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {title}")
    terminalreporter.write_line(f"suite wall time {elapsed:.1f} s")
