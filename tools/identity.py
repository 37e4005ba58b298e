"""Byte-identity check of the lpstab CLI against another revision.

    python3 tools/identity.py REV [--allow PATH] [--generate SEED N]

Extracts REV of this repository with `git archive REV | tar -x`, runs one
fixed list of CLI invocations under the working tree and under REV, each
with PYTHONPATH set to its own src, in an empty directory of its own and
under a 2 GiB address-space cap, so that a run which would exhaust the
machine's memory ends with "out of memory".  Prints every difference in
stdout, stderr, exit code or the files an invocation wrote there.  Exits 1
when there is one, 0 when there is none.

With --allow, PATH holds a JSON object that maps key patterns to absolute
bounds, such as {"analyses.*.oracle.sandwich_violation": 1e-12}: dotted
keys, with * standing for any list index.  Where both sides' stdout is
JSON it is then compared key by key: a number (an int or a float, as on both
sides) under an allowed key may move within its bound, and everything else
must be equal.  Text stdout, stderr, exit codes and written files stay
byte-compared.  Each allowed key's count of moves and its largest move are
printed.

The list holds the benchmark's invocations (perfbench/workloads.py prepare,
both workloads, seeds 7 and 21), certify-dense's (seed 7: n = 3, 8, 12),
`analyze --norm one,two,inf --json` of three stiff systems, of `[["-300"]]`
(period 1), whose flow passes the smallest float within the decay check's
three periods, and of `[["250+sin(t)", "1"], ["0",
"-1"]]` (period 2 pi), whose monodromy exp(500 pi) is past the largest
float and still gets its exponents from the scaled product, text
`analyze` in all four norms of two systems whose one-period transition
underflows, `analyze --norm one,two,inf --no-oracle --json` of two systems
with coefficients of 1e12 and 1e20 and of one whose overshoot K is past the
largest float, text `analyze --norm one` of `[["-1+400*sin(t)"]]` (K past
the largest float, with the oracle), of `[["-15563*sin(14*pi*t)"]]` (period
1, uniformly stable, a period segment's transition about 1e304) and of
`[["-8750*sin(14*pi*t)-7250*abs(sin(14*pi*t))"]]` (period 1, a backward
period segment past the largest float, as its own drift bound allows),
`analyze --norm one,two` in JSON and in text of `[["15000 + 100*sin(2*pi*t)",
"1"], ["0", "-1"]]` (period 1), whose forward period segment passes the
largest float, so the oracle has no monodromy, `analyze --json` of example1
at beta = 1 in all four norms (uniformly stable in the two-norm, so its
decay envelope is checked) and of `scalar_unstable --zero-tol 10` in three
norms (uniformly stable by the drift route, a decay envelope that fails),
`perturb --json` of `[["-1000000"]]` (period 1, `--t-end 10`) and of
`[["-1-1000000*sin(t/2)^20"]]` (period 4 pi, `--t-end 12`), stable systems
whose forced stepper runs out of step budget, `series -s example2 --norm two`,
three invocations that write files (`series -o`, `series --trajectory -o`,
`perturb --out`), `--help` of
every command, and one invocation down each branch where the command line
imports a module only when it needs it: usage errors (no arguments, an
unknown command, an unknown option), a missing, a non-JSON and an unknown
catalog system, text `analyze --no-oracle`, and `series` and `perturb` of
a file system (certify-dense's n = 3).

With --generate, N argument vectors drawn from random.Random(SEED) follow
the fixed list (see generate): `analyze`, `series` and `perturb` of a
catalog system with drawn parameters, norms and output options.
"""

import difflib
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = "import sys; from lpstab.cli import main; sys.exit(main())"  # the console script
# (entries, period): oracle JSON in three norms, and text analyze in all four norms
STIFF = {
    "stiff3000": ([["-3000+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi),
    "stiff100": ([["-100+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi),
    "peaked": ([["-1-3000*sin(t)^200", "1"], ["0", "-1"]], 2.0 * math.pi),
    "decay300": ([["-300"]], 1.0),
    "growing250": ([["250+sin(t)", "1"], ["0", "-1"]], 2.0 * math.pi),
}
UNDERFLOW = {"underflow2": ([["-800", "0"], ["0", "-1"]], 1.0), "underflow1": ([["-800"]], 1.0)}
# drift-route JSON in three norms: coefficients whose mu values carry rounding noise far
# above the quadrature budget, and an overshoot K past the largest float
LARGE = {
    "large1e12": ([["-1e12+5e11*sin(t)", "1e12*cos(t)"], ["1e11*sin(2*t)", "-2e12"]], 2.0 * math.pi),
    "scaled1e20": ([["-30", "1e20*cos(t)"], ["1e-20*sin(t)", "-31"]], 2.0 * math.pi),
    "overshoot2": ([["-10000+5000*sin(t)", "10000*cos(t)"], ["1000*sin(2*t)", "-20000"]], 2.0 * math.pi),
}
# text analyze in the one-norm with the oracle: an overshoot K past the largest float, a
# transition near the largest float, and a backward period segment past it
ONE_NORM = {
    "overshoot1": ([["-1+400*sin(t)"]], 2.0 * math.pi),
    "uniform14": ([["-15563*sin(14*pi*t)"]], 1.0),
    "lopsided14": ([["-8750*sin(14*pi*t)-7250*abs(sin(14*pi*t))"]], 1.0),
}
# analyze --norm one,two, in JSON and in text: a forward period segment past the largest
# float, so the oracle has no monodromy
FORWARD_BLOWN = {"blown15000": ([["15000 + 100*sin(2*pi*t)", "1"], ["0", "-1"]], 1.0)}
# (entries, period, t_end): perturb --json of stable systems whose RK4 diverges at every
# substep count the budget allows
FORCED = {
    "stiff1e6": ([["-1000000"]], 1.0, "10"),
    "stretch20": ([["-1-1000000*sin(t/2)^20"]], 4.0 * math.pi, "12"),
}
MEMORY = 2 << 30  # each run's address-space cap, as tests/conftest.py's run_limited
# catalog names with their dimension and each factory parameter's range; the tool imports
# neither tree, and a name that one tree lacks shows up as differing output
CATALOG = {
    "example1": (2, {"beta": (0.25, 3.0)}), "rotating_frame": (2, {"beta": (0.25, 3.0)}),
    "rotating_frame_marginal": (2, {}), "example2": (2, {}), "strong_coupling": (2, {}),
    "lti_diag": (2, {"a": (-3.0, 1.0), "b": (-3.0, 1.0)}), "lti_jordan_marginal": (2, {}),
    "scalar_unstable": (1, {}),
}
NORMS = ("one", "two", "inf", "weighted")
DISTURBANCES = ("0", "1", "exp(-t)", "sin(3*t)", "cos(t)/(1+t)")


def invocations(work: Path) -> list[list[str]]:
    argvs = []
    for workload, seed in [("certify-catalog", 7), ("certify-catalog", 21), ("timeseries", 7),
                           ("timeseries", 21), ("certify-dense", 7)]:
        out = work / f"{workload}-{seed}"
        out.mkdir()
        listed = subprocess.run([sys.executable, str(ROOT / "perfbench" / "workloads.py"), "prepare",
                                 workload, str(seed), str(out)], capture_output=True, text=True, check=True)
        argvs += [inv["argv"] for inv in json.loads(listed.stdout)]
    for systems, options in [(STIFF, ["--norm", "one,two,inf", "--json"]),
                             (UNDERFLOW, ["--norm", "one,two,inf,weighted"]),
                             (LARGE, ["--norm", "one,two,inf", "--no-oracle", "--json"]),
                             (ONE_NORM, ["--norm", "one"]),
                             (FORWARD_BLOWN, ["--norm", "one,two", "--json"]),
                             (FORWARD_BLOWN, ["--norm", "one,two"])]:
        for name, (entries, period) in systems.items():
            path = work / f"{name}.json"
            path.write_text(json.dumps({"entries": entries, "period": period}))
            argvs.append(["analyze", "-f", str(path), *options])
    for name, (entries, period, t_end) in FORCED.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps({"entries": entries, "period": period}))
        argvs.append(["perturb", "-f", str(path), "--t-end", t_end, "--json"])
    argvs += [["analyze", "-s", "example1", "--param", "beta=1.0", "--norm", "one,two,inf,weighted", "--json"],
              ["analyze", "-s", "scalar_unstable", "--zero-tol", "10", "--norm", "one,two,inf", "--json"]]
    argvs += [["series", "-s", "example2", "--norm", "two"],
              ["series", "-s", "example2", "--samples", "300", "-o", "drift.csv"],
              ["series", "-s", "example1", "--trajectory", "2,-1", "--t-end", "9", "-o", "states.csv"],
              ["perturb", "-s", "example2", "--d", "exp(-t);sin(3*t)", "--t-end", "6", "--out", "forced.csv"]]
    argvs += [["--help"]] + [[command, "--help"] for command in ("analyze", "perturb", "series")]
    (work / "notjson.json").write_text("entries: none\n")
    dense3 = str(work / "certify-dense-7" / "dense3.json")
    argvs += [[], ["bogus"], ["analyze", "--nrom", "two"],
              ["analyze", "-f", str(work / "missing.json")], ["analyze", "-f", str(work / "notjson.json")],
              ["analyze", "-s", "nosuch"], ["analyze", "-s", "example2", "--no-oracle"],
              ["series", "-f", dense3, "--norm", "inf"], ["perturb", "-f", dense3, "--json"]]
    return argvs


def generate(seed: int, count: int) -> list[list[str]]:
    """count argument vectors from random.Random(seed), each of one catalog system, its
    parameters drawn (each given with probability 0.7), and one of: `analyze` with a
    non-empty subset of the norms in drawn order, text or --json, with or without
    --no-oracle; `series` in one norm, of drift integrals or of a trajectory; `perturb` in
    one norm with a drawn disturbance, initial state and end time, text or --json."""
    rng = random.Random(seed)
    argvs = []
    for _ in range(count):
        name = rng.choice(sorted(CATALOG))
        n, params = CATALOG[name]
        source = ["-s", name]
        for key, (lo, hi) in params.items():
            if rng.random() < 0.7:
                source += ["--param", f"{key}={round(rng.uniform(lo, hi), 2)!r}"]
        command = rng.choice(("analyze", "analyze", "series", "perturb"))
        if command == "analyze":
            argv = ["--norm", ",".join(rng.sample(NORMS, rng.randint(1, len(NORMS))))]
            argv += ["--json"] * (rng.random() < 0.5) + ["--no-oracle"] * (rng.random() < 0.3)
        else:
            argv = ["--norm", rng.choice(NORMS), "--t-end", f"{round(rng.uniform(1.0, 8.0), 1)!r}",
                    "--samples", str(rng.choice((16, 64, 200)))]
            state = ",".join(f"{round(rng.uniform(-3.0, 3.0), 1)!r}" for _ in range(n))
            if command == "series" and rng.random() < 0.5:
                argv += ["--trajectory", state]
            elif command == "perturb":
                argv += ["--d", ";".join(rng.choice(DISTURBANCES) for _ in range(n)), "--x0", state]
                argv += ["--json"] * (rng.random() < 0.5)
        argvs.append([command, *source, *argv])
    return argvs


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run(tree: Path, argv: list[str], cwd: Path):
    # exit code, stdout, stderr and the files written into the empty directory cwd, under
    # the MEMORY cap and one BLAS thread, so a run that would exhaust the machine's memory
    # ends as "out of memory"
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], capture_output=True, env=env, cwd=cwd,
                          timeout=300, preexec_fn=_limit_memory)
    return proc.returncode, proc.stdout, proc.stderr, {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}


def json_differences(mine: bytes, other: bytes, allow: dict, moves: dict) -> list[str] | None:
    # key-by-key differences of two JSON documents, adding each allowed float's move to
    # moves under its pattern; None when either side is not JSON
    try:
        ours, theirs = json.loads(mine), json.loads(other)
    except ValueError:
        return None
    lines = []

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            for key in x:
                walk(x[key], y[key], path + (key,))
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for index, (u, v) in enumerate(zip(x, y)):
                walk(u, v, path + (index,))
        elif type(x) is type(y) and (x == y or x != x and y != y):  # NaN equals NaN
            pass
        else:
            pattern = next((p for p in allow if p.split(".") == ["*" if isinstance(k, int) else k for k in path]),
                           None)
            if pattern is not None and type(x) is type(y) in (int, float) and abs(x - y) <= allow[pattern]:
                moves[pattern].append(abs(x - y))
            else:
                lines.append(f"    {'.'.join(map(str, path))}: {y!r} -> {x!r}")

    walk(ours, theirs, ())
    return lines


def differences(argv, ours, theirs, allow: dict | None = None, moves: dict | None = None) -> list[str]:
    lines = []
    if ours[0] != theirs[0]:
        lines.append(f"  exit code: {theirs[0]} -> {ours[0]}")
    streams = [("stdout", ours[1], theirs[1]), ("stderr", ours[2], theirs[2])]
    if allow is not None and (keyed := json_differences(ours[1], theirs[1], allow, moves)) is not None:
        lines += ["  stdout:"] + keyed if keyed else []
        streams = streams[1:]
    for stream, mine, other in streams:
        if mine != other:
            diff = difflib.unified_diff(other.decode(errors="replace").splitlines(),
                                        mine.decode(errors="replace").splitlines(), "REV", "tree", lineterm="", n=0)
            lines += [f"  {stream}:"] + [f"    {line}" for line in list(diff)[2:22]]
    for name in sorted(ours[3].keys() | theirs[3].keys()):
        if ours[3].get(name) != theirs[3].get(name):
            lines.append(f"  written file {name}: differs or is missing")
    return [f"lpstab {' '.join(argv)}"] + lines if lines else []


def options(args: list[str]):
    """REV, the --allow path or None and the --generate (SEED, N) or None; ValueError
    when args do not follow the usage line."""
    if not args or args[0].startswith("-"):
        raise ValueError("no revision given")
    rev, rest, allow, drawn = args[0], args[1:], None, None
    while rest:
        if rest[0] == "--allow" and len(rest) >= 2 and allow is None:
            allow, rest = rest[1], rest[2:]
        elif rest[0] == "--generate" and len(rest) >= 3 and drawn is None and int(rest[2]) >= 0:
            drawn, rest = (int(rest[1]), int(rest[2])), rest[3:]
        else:
            raise ValueError(f"unexpected argument {rest[0]!r}")
    return rev, allow, drawn


def main() -> int:
    try:
        revision, allow_path, drawn = options(sys.argv[1:])
    except ValueError:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    allow = None
    if allow_path is not None:
        try:
            allow = json.loads(Path(allow_path).read_text())
        except (OSError, ValueError) as exc:
            allow = exc
        if not (isinstance(allow, dict) and all(type(b) in (int, float) and b >= 0 for b in allow.values())):
            print("--allow needs a JSON file holding an object of key patterns to non-negative bounds", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        work, rev = Path(tmp), Path(tmp) / "rev"
        rev.mkdir()
        archive = subprocess.run(["git", "archive", revision], cwd=ROOT, capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(rev)], input=archive.stdout, check=True)
        argvs = invocations(work) + (generate(*drawn) if drawn else [])
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = range(len(argvs))
            ours = list(pool.map(run, [ROOT] * len(argvs), argvs, [work / f"tree-{i}" for i in runs]))
            theirs = list(pool.map(run, [rev] * len(argvs), argvs, [work / f"rev-{i}" for i in runs]))
    moves = {pattern: [] for pattern in allow or ()}
    report = [line for a, o, t in zip(argvs, ours, theirs) for line in differences(a, o, t, allow, moves)]
    print("\n".join(report) if report else
          f"{len(argvs)} invocations: stdout, stderr, exit codes and written files identical"
          + (" apart from allowed moves" if allow else ""))
    for pattern, moved in moves.items():
        print(f"allowed {pattern} (bound {allow[pattern]:g}): {len(moved)} moves, "
              f"largest {max(moved, default=0.0):.3g}")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
