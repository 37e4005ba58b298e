"""tools/fuzz.py as a command: four small seeded systems, whose report has
both exit-code tables, the warnings line and one exit code per system; and
the leading draws of `tools/fuzz.py 1 150 -1 2.5`, run in process, pinned."""

import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("fuzz", _ROOT / "tools" / "fuzz.py")
fuzz = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz)
_ROW = re.compile(r"^  (\S+) +(\d+)  (.+)$")


def _table(lines, header):
    # the exit code totals of the table under header, and the lines after it
    assert lines[0] == f"{header}: exit code, count, first stderr message"
    totals, k = Counter(), 1
    while k < len(lines) and (row := _ROW.match(lines[k])):
        totals[row[1]] += int(row[2])
        k += 1
    return totals, lines[k:]


def test_fuzz_reports_every_system_in_both_tables():
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, str(_ROOT / "tools" / "fuzz.py"), "1", "4", "-1", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    drift, rest = _table(proc.stdout.splitlines(), "--no-oracle")
    oracle, rest = _table(rest, "oracle")
    assert sum(drift.values()) == sum(oracle.values()) == 4
    assert "Python warnings: 0" in rest
    codes = re.fullmatch(r"oracle exit codes: ([0-9X]{4})", rest[-1])
    assert codes is not None, rest[-1]
    assert Counter(codes[1]) == oracle


def test_leading_draws_of_seed_one_pass_both_routes(monkeypatch, capsys):
    # the first 12 of the 150 draws of `tools/fuzz.py 1 150 -1 2.5`; the next ones are
    # far slower (draw 19 alone takes seconds).  Every one exits 0 with the oracle, so
    # no system certified UES without it exits 2
    monkeypatch.setattr(sys, "argv", ["fuzz.py", "1", "12", "-1", "2.5"])
    assert fuzz.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert "certified UES without the oracle, exit 2 with it: 0" in lines
    assert "Python warnings: 0" in lines
    assert lines[-1] == "oracle exit codes: 000000000000"
