"""Seeded random-system fuzz of `lpstab analyze`, run in process.

    python3 tools/fuzz.py SEED N LO HI

Draws N systems from random.Random(SEED).  Each has n from {1, 2, 2, 3}
and entries a0 + a1 sin(w t) + a2 cos(w t), w from {1, 2, 3} per entry,
whose coefficients are Gaussian times the system's scale 10^U(LO, HI),
rounded to 3 decimals; the diagonal's a0 is shifted by U(-2, 1) times the
scale, and the period is 2 pi.  Each system runs through lpstab.cli.main
as `analyze -f FILE --norm one,two,inf --json`, once with `--no-oracle`
and once without.

Prints, for each of the two runs, the exit codes grouped by the first
message on stderr (its first line up to the first ';', with every number
written as #), then the systems that some norm certifies UES without the
oracle and that exit 2 with it, every Python warning text seen, and the
oracle run's exit code of each system in draw order, one character each
(X for an uncaught exception), for comparing two trees system by system.
lpstab is imported from PYTHONPATH when it is there, else from this
checkout's src, so `PYTHONPATH=OTHER/src python3 tools/fuzz.py ...`
fuzzes another tree with the same draws.
"""

import contextlib
import io
import json
import math
import random
import re
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from lpstab import cli  # noqa: E402

NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def draw(rng: random.Random, lo: float, hi: float) -> list[list[str]]:
    """One system's entries, as the module docstring describes."""
    n = rng.choice((1, 2, 2, 3))
    scale = 10.0 ** rng.uniform(lo, hi)
    shift = rng.uniform(-2.0, 1.0) * scale
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            w = rng.choice((1, 2, 3))
            a0, a1, a2 = (round(rng.gauss(0.0, 1.0) * scale, 3) for _ in range(3))
            if i == j:
                a0 = round(a0 + shift, 3)
            row.append(f"({a0!r}) + ({a1!r})*sin({w}*t) + ({a2!r})*cos({w}*t)")
        rows.append(row)
    return rows


def run(argv: list[str], seen: list[str]):
    """Exit code, stdout and stderr of cli.main(argv), adding each warning's text to seen."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback at the command line
            code = "uncaught"
            print(f"{type(exc).__name__}: {exc}", file=err)
    seen += [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, out.getvalue(), err.getvalue()


def first_message(stderr: str) -> str:
    return NUMBER.sub("#", stderr.split("\n", 1)[0].split(";", 1)[0]) if stderr else "(none)"


def main() -> int:
    try:
        seed, count, lo, hi = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4])
    except (IndexError, ValueError):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rng = random.Random(seed)
    tables = {"--no-oracle": Counter(), "oracle": Counter()}
    certified_failing, seen, codes = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(count):
            rows = draw(rng, lo, hi)
            path = Path(tmp) / f"system{k}.json"
            path.write_text(json.dumps({"entries": rows, "period": 2.0 * math.pi}))
            argv = ["analyze", "-f", str(path), "--norm", "one,two,inf", "--json"]
            code, out, err = run(argv + ["--no-oracle"], seen)
            tables["--no-oracle"][code, first_message(err)] += 1
            ues = code == 0 and any(a["classification"] == "UES" for a in json.loads(out)["analyses"])
            code, out, err = run(argv, seen)
            tables["oracle"][code, first_message(err)] += 1
            codes.append("X" if code == "uncaught" else str(code))
            if ues and code == 2:
                certified_failing.append(f"  {k}: {json.dumps(rows)}: {err.strip()}")
    for mode, table in tables.items():
        print(f"{mode}: exit code, count, first stderr message")
        for (code, message), number in sorted(table.items(), key=lambda item: (str(item[0][0]), -item[1])):
            print(f"  {code}  {number:4d}  {message}")
    print(f"certified UES without the oracle, exit 2 with it: {len(certified_failing)}")
    for line in certified_failing:
        print(line)
    print(f"Python warnings: {len(seen)}")
    for text in sorted(set(seen)):
        print(f"  {text}")
    print(f"oracle exit codes: {''.join(codes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
