"""Benchmark of the lpstab command line, run as users run it.

    python3 perfbench/run.py --workload certify-catalog --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; lpstab is imported from ./src.
One client drives a closed loop: one CLI process at a time, each started
after the previous one exited.  The workload's invocations (workloads.py)
run pass after pass until --seconds have passed; the pass under way when
time runs out is finished, except that no invocation is started after the
deadline.  Outputs are checked against independent references after the
timed region.

--trace 0 reports the end-to-end metrics:
  wall_s       one pass, spawn to exit: sum over invocations of the median
  cpu_s        user + system CPU time of the children, summed the same way
  peak_rss_mb  largest resident set of any child
  setup_s      median wall time of `lpstab --help` (interpreter and imports),
               sampled before the loop and after every invocation
The three times are given at the reference host speed.  After every
invocation and the `lpstab --help` that follows it, host_probe.py runs: a
Python process that imports numpy and runs a fixed loop of lpstab's kind
of work, without lpstab.  The invocation's and the help's wall and CPU
times are multiplied by (PROBE_REF_S / p) ** PROBE_EXPONENT, where p is
the median of the nearest probes, PROBE_WINDOW on either side.  A shared
host changes speed by tens of percent over stretches of seconds to
minutes.  The probe slows with it and holds none of lpstab's code; it
slows more than lpstab in some stretches and about as much in others, so
half of its slowdown, in log terms, is taken as the host's.  The scaled
times follow the program's own cost far better than raw times do
(README, "Reference host speed").  The table also prints the raw times
and the probe.
failed_ratio (failed / attempted invocations) is printed with them; the
JSON result carries the same counts as "failed" and "attempted".

--trace 1 reports per-layer metrics instead.  Each invocation runs
untraced and then under tracer.py in a fresh interpreter, twice in the
first pass so that the deterministic counts can be compared.  Traced
stdout must equal untraced stdout byte for byte.  Times are per pass:
sums over invocations of per-invocation medians.  The CLI is
single-threaded and runs one process at a time, so no layer ever waits on
another and no waiting time is reported.

In --trace 0 runs this process imports neither numpy nor scipy: Linux
counts the parent's pages in a child's peak RSS until the child execs, so
a large parent would hide the CLI's own peak.  References and checks run
in a separate process (workloads.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 after a completed run, 2 when
the checkout holds no importable lpstab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from shutil import rmtree

import tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify-catalog", "certify-dense", "timeseries")
SETUP_UPFRONT = 3         # steps of `lpstab --help` and a probe before the loop; one follows each invocation
CHILD_LIMIT_S = 90.0      # a child running longer is killed and counts as failed
CLI_LAUNCHER = "import sys; from lpstab.cli import main; sys.exit(main())"  # the console script
PROBE = "import sys, lpstab.cli, numpy; print(lpstab.__file__); print(numpy.__version__)"
HOST_PROBE = HERE / "host_probe.py"
PROBE_REF_S = 0.2         # host probe time, spawn to exit, at the reference speed (README)
PROBE_WINDOW = 6          # a step is scaled by the median of this many probes on either side
PROBE_EXPONENT = 0.5      # share of the probe's slowdown taken as the host's (README)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# traced numbers that must repeat exactly between two runs of one invocation
EXACT_SUFFIXES = (".calls", ".steps", ".substeps", ".cache_hits", ".cache_misses", "_evals")


@dataclass(frozen=True)
class Result:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Spawns one child at a time, stdout and stderr going to files, and
    reaps it with wait4 for its own CPU time and peak RSS."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, cmd: list[str]) -> Result:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            status, usage = _reap(proc.pid)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
        return Result(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      proc.returncode, out_path.read_bytes(), err_path.read_bytes())

    def cli(self, argv) -> Result:
        return self.run([sys.executable, "-c", CLI_LAUNCHER, *argv])

    def host_probe(self) -> Result:
        r = self.run([sys.executable, str(HOST_PROBE)])
        if r.code != 0:
            raise RuntimeError(f"host_probe.py failed: {r.stderr.decode(errors='replace')}")
        return r

    def traced(self, argv, spans: Path, invocation: int) -> Result:
        return self.run([sys.executable, str(HERE / "tracer.py"), str(spans), str(invocation),
                         "--", *argv])

    def workloads(self, mode: str, name: str, seed: int):
        r = self.run([sys.executable, str(HERE / "workloads.py"), mode, name, str(seed),
                      str(self.work)])
        if r.code != 0:
            raise RuntimeError(f"workloads.py {mode} failed: {r.stderr.decode(errors='replace')}")
        return json.loads(r.stdout)


def _reap(pid: int):
    """Wait for pid, killing it after CHILD_LIMIT_S.  The child is reaped
    only after the timer is disarmed, so the kill cannot hit a reused pid."""
    lock = threading.Lock()
    waited = False

    def kill():
        with lock:
            if not waited:
                os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(CHILD_LIMIT_S, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        with lock:
            waited = True
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(pid, 0)
    return status, usage


def _median(values) -> float:
    return float(statistics.median(values))


def _closed_loop(count: int, seconds: float, step) -> None:
    """step(i, pass_number) for every invocation i, pass after pass, until
    seconds have passed.  The first pass always completes."""
    deadline = time.perf_counter() + seconds
    number = 0
    while number == 0 or time.perf_counter() < deadline:
        for i in range(count):
            if number > 0 and time.perf_counter() >= deadline:
                return
            step(i, number)
        number += 1


def _judge(runner: Runner, name: str, seed: int, labels, runs) -> tuple[int, int]:
    """Check runs[i] (the Results of invocation i) and return (attempted,
    failed).  Every run must exit 0 and print the bytes of the first
    successful run of its invocation, which is checked against the
    references once."""
    firsts = []
    for i, rs in enumerate(runs):
        first = next((r for r in rs if r.code == 0), None)
        path = runner.work / f"stdout-{i}"
        path.unlink(missing_ok=True)
        if first is not None:
            path.write_bytes(first.stdout)
        firsts.append(first)
    problems = runner.workloads("check", name, seed)
    attempted = failed = 0
    for label, first, found, rs in zip(labels, firsts, problems, runs):
        for r in rs:
            attempted += 1
            if r.code != 0:
                bad = [f"exit {r.code}: {r.stderr.decode(errors='replace').strip()[-300:]}"]
            elif r.stdout != first.stdout:
                bad = ["stdout differs from the first run of this invocation"]
            else:
                bad = found or []
            if bad:
                failed += 1
                for p in bad[:3]:
                    print(f"FAILED {label}: {p}", file=sys.stderr)
    return attempted, failed


# ------------------------------------------------------------ trace 0

def measure(runner: Runner, invocations, seconds: float) -> dict:
    """Each step runs one invocation and one `lpstab --help`, then the host
    probe.  A step's times, scaled by (PROBE_REF_S / p) ** PROBE_EXPONENT
    with p the median of the PROBE_WINDOW probes before it and the
    PROBE_WINDOW after it, are its times at the reference speed."""
    runner.cli(["--help"])  # the first import writes the bytecode caches
    runner.host_probe()     # and numpy's files are in the page cache
    probes = [runner.host_probe().wall]
    steps: list[tuple[int | None, Result | None, Result]] = []  # (i, invocation, help)

    def step(i, _=None):
        r = None if i is None else runner.cli(invocations[i]["argv"])
        h = runner.cli(["--help"])
        probes.append(runner.host_probe().wall)
        steps.append((i, r, h))

    for _ in range(SETUP_UPFRONT):
        step(None)
    _closed_loop(len(invocations), seconds, step)

    setup: list[tuple[float, float]] = []  # (raw, scaled) wall of `lpstab --help`
    runs: list[list[Result]] = [[] for _ in invocations]
    scaled: list[list[tuple[float, float]]] = [[] for _ in invocations]  # (wall, cpu)
    for k, (i, r, h) in enumerate(steps):
        # step k ran between probes k and k + 1
        near = probes[max(0, k + 1 - PROBE_WINDOW):k + 1 + PROBE_WINDOW]
        scale = (PROBE_REF_S / _median(near)) ** PROBE_EXPONENT
        setup.append((h.wall, h.wall * scale))
        if r is not None:
            runs[i].append(r)
            scaled[i].append((r.wall * scale, r.cpu * scale))
    (runner.work / "timeline.json").write_text(json.dumps({
        "probes": probes,
        "steps": [[i, r and r.wall, r and r.cpu, h.wall] for i, r, h in steps]}))
    return {
        "runs": runs,
        "setup_runs": len(setup),
        "probe": (_median(probes), len(probes)),
        "raw": {
            "wall_s": sum(_median([r.wall for r in rs]) for rs in runs),
            "cpu_s": sum(_median([r.cpu for r in rs]) for rs in runs),
            "setup_s": _median([raw for raw, _ in setup]),
        },
        "metrics": {
            "wall_s": sum(_median([w for w, _ in ss]) for ss in scaled),
            "cpu_s": sum(_median([c for _, c in ss]) for ss in scaled),
            "peak_rss_mb": max(r.rss_mb for rs in runs for r in rs),
            "setup_s": _median([wall for _, wall in setup]),
        },
    }


def print_end_to_end(name: str, labels, m: dict) -> None:
    print(f"== {name}: {m['attempted']} invocations, {m['failed']} failed")
    print(f"   {'invocation':40s} {'runs':>4s} {'wall_s':>8s} {'cpu_s':>8s} {'rss_mb':>7s}  (raw medians)")
    for label, rs in zip(labels, m["runs"]):
        print(f"   {label[:40]:40s} {len(rs):4d} {_median([r.wall for r in rs]):8.3f} "
              f"{_median([r.cpu for r in rs]):8.3f} {_median([r.rss_mb for r in rs]):7.1f}")
    probe, count = m["probe"]
    print(f"   host probe median {probe * 1e3:.2f} ms over {count} runs (reference "
          f"{PROBE_REF_S * 1e3:g} ms); times below are at the reference speed")
    for key, value in m["metrics"].items():
        raw = f"   (raw {m['raw'][key]:.4f})" if key in m["raw"] else ""
        print(f"   {key:14s} {value:12.4f} {END_TO_END[key]}{raw}")
    print(f"   {'failed_ratio':14s} {m['failed'] / m['attempted']:12.4f} ratio")
    print(f"   (setup_s from {m['setup_runs']} runs of lpstab --help)")


# ------------------------------------------------------------ trace 1

def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for fn in tracer.FUNCTIONS:
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_s", "s", "lower"),
                (f"{fn}.busy_s", "s", "lower")]
    return out + [
        ("floquet.integrate_transition.steps", "count", "lower"),
        ("floquet.integrate_transition.accepted_ratio", "ratio", "higher"),
        ("perturb.simulate_perturbed.substeps", "count", "lower"),
        ("perturb.simulate_perturbed.accepted_ratio", "ratio", "higher"),
        ("periodic.rate_summary.cache_hits", "count", "higher"),
        ("periodic.rate_summary.cache_misses", "count", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace_overhead_s", "s", "lower"),
    ]


def trace(runner: Runner, invocations, seconds: float) -> dict:
    plain: list[list[Result]] = [[] for _ in invocations]
    traced: list[list[Result]] = [[] for _ in invocations]
    summaries: list[list[dict | None]] = [[] for _ in invocations]

    def step(i, number):
        argv = invocations[i]["argv"]
        plain[i].append(runner.cli(argv))
        for _ in range(2 if number == 0 else 1):
            spans = runner.work / f"spans-{i}-{len(traced[i])}.npz"
            traced[i].append(runner.traced(argv, spans, i))
            summaries[i].append(tracer.summarize(spans) if spans.exists() else None)
            if len(traced[i]) > 1:
                spans.unlink(missing_ok=True)  # the first traced run's spans are kept

    runner.cli(["--help"])
    _closed_loop(len(invocations), seconds, step)

    # a traced run fails when it wrote no spans or its counts differ from the first
    for i, ss in enumerate(summaries):
        for k, s in enumerate(ss):
            if traced[i][k].code != 0:
                continue
            diff = ["no spans"] if s is None or ss[0] is None else [
                key for key, v in s.items() if key.endswith(EXACT_SUFFIXES) and ss[0][key] != v]
            if diff:
                r = traced[i][k]
                traced[i][k] = Result(r.wall, r.cpu, r.rss_mb, -1, r.stdout,
                                      f"traced counts differ: {', '.join(diff[:4])}".encode())
    summaries = [[s for s in ss if s is not None] for ss in summaries]

    def per_pass(key: str) -> float:
        return sum(_median([s[key] for s in ss]) for ss in summaries if ss)

    def counted(key: str) -> int:
        return sum(ss[0][key] for ss in summaries if ss)

    absent = sorted({a for ss in summaries for s in ss for a in s["absent"]})
    metrics: dict[str, float] = {}
    for fn in tracer.FUNCTIONS:
        present = fn not in absent
        metrics[f"{fn}.calls"] = counted(f"{fn}.calls") if present else 0
        metrics[f"{fn}.self_s"] = per_pass(f"{fn}.self_s") if present else 0.0
        metrics[f"{fn}.busy_s"] = per_pass(f"{fn}.busy_s") if present else 0.0
    for owner, count in (("floquet.integrate_transition", "steps"),
                         ("perturb.simulate_perturbed", "substeps")):
        metrics[f"{owner}.{count}"] = counted(f"{owner}.{count}")
        evals = counted(f"{owner}.all_evals")
        metrics[f"{owner}.accepted_ratio"] = counted(f"{owner}.accepted_evals") / evals if evals else 0.0
    for key in ("periodic.rate_summary.cache_hits", "periodic.rate_summary.cache_misses"):
        metrics[key] = counted(key)
    metrics["cli.self_s"] = per_pass("cli.self_s")
    traced_wall = sum(_median([r.wall for r in rs]) for rs in traced)
    plain_wall = sum(_median([r.wall for r in rs]) for rs in plain)
    metrics["trace_overhead_s"] = traced_wall - plain_wall
    # judged as runs of one invocation: traced stdout must equal untraced stdout
    runs = [p + t for p, t in zip(plain, traced)]
    return {"runs": runs, "metrics": metrics, "absent": absent, "traced_wall": traced_wall,
            "plain_wall": plain_wall, "traced_runs": min(len(t) for t in traced)}


def print_per_layer(name: str, m: dict) -> None:
    met = m["metrics"]
    total = sum(met[f"{fn}.self_s"] for fn in tracer.FUNCTIONS) + met["cli.self_s"]
    print(f"== {name} traced: {m['attempted']} invocations, {m['failed']} failed, "
          f">= {m['traced_runs']} traced runs of each")
    print(f"   untraced pass {m['plain_wall']:.3f} s, traced pass {m['traced_wall']:.3f} s, "
          f"overhead {met['trace_overhead_s']:.3f} s")
    print(f"   {'function':36s} {'calls':>9s} {'self_s':>9s} {'busy_s':>9s} {'self%':>6s}")
    for fn in tracer.FUNCTIONS:
        if fn in m["absent"]:
            print(f"   {fn:36s} absent")
            continue
        share = 100.0 * met[f"{fn}.self_s"] / total if total else 0.0
        print(f"   {fn:36s} {met[f'{fn}.calls']:9d} {met[f'{fn}.self_s']:9.3f} "
              f"{met[f'{fn}.busy_s']:9.3f} {share:6.1f}")
    share = 100.0 * met["cli.self_s"] / total if total else 0.0
    print(f"   {'cli.self_s':36s} {'':9s} {met['cli.self_s']:9.3f} {'':9s} {share:6.1f}")
    for key in ("floquet.integrate_transition.steps", "floquet.integrate_transition.accepted_ratio",
                "perturb.simulate_perturbed.substeps", "perturb.simulate_perturbed.accepted_ratio",
                "periodic.rate_summary.cache_hits", "periodic.rate_summary.cache_misses"):
        print(f"   {key:46s} {met[key]:.6g}")
    print("   waiting: none; one single-threaded CLI process at a time, no layer waits on another")


# ------------------------------------------------------------------ main

def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "lpstab" / "cli.py").is_file():
        return _fail(f"no lpstab sources under {root / 'src'}; run from a source checkout")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    units = END_TO_END if not args.trace else {n: u for n, u, _ in per_layer_metrics()}
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in chosen:
        work = root / "perfbench" / ".out" / f"{name}-seed{args.seed}-trace{args.trace}"
        rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(root, work)
        probe = runner.run([sys.executable, "-c", PROBE])
        lines = probe.stdout.decode().split()
        if probe.code != 0 or len(lines) != 2 or root / "src" not in Path(lines[0]).resolve().parents:
            return _fail(f"cannot import lpstab from {root / 'src'}: "
                         f"{probe.stderr.decode(errors='replace').strip()[-300:]}")
        blas = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
        print(f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
              f"numpy={lines[1]} thread settings={blas or 'none'}")
        invocations = runner.workloads("prepare", name, args.seed)
        labels = [inv["label"] for inv in invocations]
        m = (trace if args.trace else measure)(runner, invocations, args.seconds)
        m["attempted"], m["failed"] = _judge(runner, name, args.seed, labels, m["runs"])
        if args.trace:
            print_per_layer(name, m)
        else:
            print_end_to_end(name, labels, m)
        prefix = f"{name}." if args.workload == "all" else ""
        total["attempted"] += m["attempted"]
        total["failed"] += m["failed"]
        total["correct"] = total["correct"] and m["failed"] == 0
        for key, value in m["metrics"].items():
            total["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
