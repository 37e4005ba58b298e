"""End-to-end command line checks, run in process for speed.

Exit code contract: 0 when analysis completed (whatever the verdict),
1 for bad input or usage, 2 for numerical failure.
"""

import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lpstab
from lpstab import catalog, cli, floquet, linalg, periodic


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def write_system(tmp_path, doc, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0
    for sub in ("analyze", "series", "perturb"):
        assert sub in out


# The help and usage-error texts of the command line, byte for byte as the click
# front end printed them at 80 columns; the option tables reproduce them.
ROOT_HELP = """\
Usage: lpstab [OPTIONS] COMMAND [ARGS]...

  Stability certificates for linear periodic systems.

Options:
  --help  Show this message and exit.

Commands:
  analyze  Classify the system in each requested norm and cross-check.
  perturb  Simulate x' = A(t) x + d(t) and summarize decay of the response.
  series   Write drift-integral or trajectory series as CSV.
"""
COMMAND_HELP = {
    "analyze": """\
Usage: lpstab analyze [OPTIONS]

  Classify the system in each requested norm and cross-check.

Options:
  -f, --file PATH    system JSON file
  -s, --system TEXT  built-in catalog system name
  --param TEXT       catalog factory parameter key=value (repeatable)
  -n, --norm TEXT    comma separated list drawn from one, two, inf, weighted
                     [default: one]
  --zero-tol FLOAT   treat a one-period drift within this band of zero as zero
  --no-oracle        skip the transition-matrix cross-checks
  --json             machine-readable output
  --help             Show this message and exit.
""",
    "series": """\
Usage: lpstab series [OPTIONS]

  Write drift-integral or trajectory series as CSV.

Options:
  -f, --file PATH                 system JSON file
  -s, --system TEXT               built-in catalog system name
  --param TEXT                    catalog factory parameter key=value
                                  (repeatable)
  -n, --norm [one|two|inf|weighted]
                                  [default: one]
  --t-end FLOAT                   last sample time [default: t0 + 3 periods]
  --samples INTEGER               [default: 512]
  --trajectory "c1,...,cn"        emit the unforced trajectory from this
                                  initial state instead of drift integrals
  -o, --out TEXT                  output path, - for stdout
  --help                          Show this message and exit.
""",
    "perturb": """\
Usage: lpstab perturb [OPTIONS]

  Simulate x' = A(t) x + d(t) and summarize decay of the response.

Options:
  -f, --file PATH                 system JSON file
  -s, --system TEXT               built-in catalog system name
  --param TEXT                    catalog factory parameter key=value
                                  (repeatable)
  -n, --norm [one|two|inf|weighted]
                                  norm for the reported magnitudes  [default:
                                  two]
  --d "e1;...;en"                 disturbance entries, separated by ; or ,
                                  [default: zero]
  --x0 TEXT                       initial state, comma separated [default: all
                                  ones]
  --t-end FLOAT                   final time [default: t0 + 5 periods]
  --samples INTEGER               [default: 256]
  -o, --out TEXT                  write the trajectory CSV here
  --json                          machine-readable output
  --help                          Show this message and exit.
""",
}


def usage_error(command, message):
    return (f"Usage: lpstab {command} [OPTIONS]\nTry 'lpstab {command} --help' for help.\n\n"
            f"Error: {message}\n")


ROOT_USAGE = "Usage: lpstab [OPTIONS] COMMAND [ARGS]...\nTry 'lpstab --help' for help.\n\n"


PINNED = [
    ((), (1, "", ROOT_HELP)),
    (("--help",), (0, ROOT_HELP, "")),
    (("--help", "nosuch"), (0, ROOT_HELP, "")),
    (("--", "--help"), (0, ROOT_HELP, "")),
    *(((name, "--help"), (0, text, "")) for name, text in COMMAND_HELP.items()),
    (("analyze", "-s", "nosuch", "--help", "--samples"),
     (1, "", usage_error("analyze", "No such option '--samples'."))),
    (("analyze", "--bogus"), (1, "", usage_error("analyze", "No such option '--bogus'."))),
    (("analyze", "--sys", "example2"),
     (1, "", usage_error("analyze", "No such option '--sys'. Did you mean '--system'?"))),
    (("analyze", "-x"), (1, "", usage_error("analyze", "No such option '-x'."))),
    (("analyze", "--norm"), (1, "", "Error: Option '--norm' requires an argument.\n")),
    (("analyze", "-s"), (1, "", "Error: Option '-s' requires an argument.\n")),
    (("nosuch",), (1, "", ROOT_USAGE + "Error: No such command 'nosuch'.\n")),
    (("analyse",), (1, "", ROOT_USAGE + "Error: No such command 'analyse'. Did you mean 'analyze'?\n")),
    (("--",), (1, "", ROOT_USAGE + "Error: Missing command.\n")),
    (("-h",), (1, "", ROOT_USAGE + "Error: No such option '-h'.\n")),
    (("series", "--samples", "1.5"),
     (1, "", usage_error("series", "Invalid value for '--samples': '1.5' is not a valid integer."))),
    (("series", "--t-end", "x", "--samples", "y"),
     (1, "", usage_error("series", "Invalid value for '--t-end': 'x' is not a valid float."))),
    (("series", "--norm", "euclid"),
     (1, "", usage_error("series", "Invalid value for '--norm' / '-n': 'euclid' is not one of "
                                   "'one', 'two', 'inf', 'weighted'."))),
    (("series", "-n=two"),
     (1, "", usage_error("series", "Invalid value for '--norm' / '-n': '=two' is not one of "
                                   "'one', 'two', 'inf', 'weighted'."))),
    (("analyze", "--no-oracle=1"), (1, "", "Error: Option '--no-oracle' does not take a value.\n")),
    (("analyze", "-s", "example2", "extra", "args"),
     (1, "", usage_error("analyze", "Got unexpected extra arguments (extra args)"))),
    (("analyze", "--", "-s", "example2"),
     (1, "", usage_error("analyze", "Got unexpected extra arguments (-s example2)"))),
    (("analyze",), (1, "", usage_error("analyze", "provide exactly one of --file or --system"))),
    (("analyze", "-fs"), (1, "", "error: cannot read s: [Errno 2] No such file or directory: 's'\n")),
]


@pytest.mark.parametrize("args,want", PINNED, ids=[" ".join(args) or "no-arguments" for args, _ in PINNED])
def test_help_and_usage_errors_are_pinned(args, want):
    # (exit code, stdout, stderr)
    assert run_cli(*args) == want


@pytest.mark.parametrize("args,same_as", [
    (["analyze", "--norm=two", "-sexample2", "--no-oracle"],
     ["analyze", "--norm", "two", "--system", "example2", "--no-oracle"]),
    (["analyze", "-n", "one", "-s", "example1", "--param", "beta=0.5", "--param=beta=0.9", "--no-oracle"],
     ["analyze", "-s", "example1", "--param", "beta=0.9", "--no-oracle"]),
    (["series", "-nfoo", "-n", "inf", "-s", "lti_diag", "--samples=4", "--samples", "3"],
     ["series", "--norm", "inf", "-s", "lti_diag", "--samples", "3"]),
])
def test_option_spellings_agree(args, same_as):
    # --opt=value, -sVALUE, the last value of a repeated option, repeated --param
    got = run_cli(*args)
    assert got[0] == 0 and got == run_cli(*same_as)


def test_values_may_start_with_a_dash():
    code, out, err = run_cli("perturb", "-s", "example2", "--d", "-exp(-t);0", "--x0", "-4,3",
                             "--t-end", "2", "--samples", "16", "-o-", "--json")
    assert code == 0, err
    csv, _, doc = out.partition("\n{")
    assert csv.startswith("t,x1,x2,norm\n")
    doc = json.loads("{" + doc)
    assert doc["disturbance"] == ["-exp(-t)", "0"] and doc["x0"] == [-4.0, 3.0]
    code, out, err = run_cli("analyze", "-s", "lti_diag", "--param", "a=-3", "--param", "b=-0.5",
                             "--no-oracle", "--json")
    assert code == 0, err
    assert json.loads(out)["system"]["entries"] == [["-3", "0"], ["0", "-0.5"]]


def test_analyze_catalog_human():
    code, out, err = run_cli("analyze", "--system", "strong_coupling", "--norm", "one")
    assert code == 0, err
    assert f"tool: lpstab {lpstab.__version__}" in out
    assert "verdict: UES" in out
    assert "not applicable" in out          # frozen-time route cannot certify here
    assert "inside strip: yes" in out


def test_analyze_json_document():
    code, out, err = run_cli("analyze", "-s", "example2", "--norm", "one,two", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["version"] == lpstab.__version__
    assert doc["system"]["n"] == 2
    assert doc["system"]["period"] == pytest.approx(math.pi / 6.0)
    assert doc["frozen_time"]["applicable"] is False
    assert doc["zero_tol"] is None
    assert [e["norm"] for e in doc["analyses"]] == ["one", "two"]
    for entry in doc["analyses"]:
        assert entry["classification"] == "UES"
        assert entry["oracle"]["strip_check"]["passed"] is True
        assert entry["oracle"]["sandwich_passed"] is True
        assert entry["oracle"]["decay"]["passed"] is True
        assert not {"partially_resolved", "unresolved_exponents", "multiplier_floor"} & set(entry["oracle"])
        assert not any(k.startswith("_") for k in entry)
    one = doc["analyses"][0]["rates"]
    assert one["lambda_plus"] == pytest.approx(15.0 / math.pi - 5.5, abs=1e-9)


def test_analyze_catalog_alias_with_param():
    code, out, _ = run_cli("analyze", "-s", "example1", "--param", "beta=0.5",
                           "--norm", "two", "--no-oracle")
    assert code == 0
    assert "verdict: UES" in out
    assert "oracle" not in out.lower().replace("no-oracle", "")


def test_analyze_inconclusive_labels_oracle():
    code, out, _ = run_cli("analyze", "-s", "rotating_frame", "--norm", "two")
    assert code == 0
    assert "verdict: inconclusive" in out
    assert "not a drift-test certificate" in out


def test_analyze_zero_tol_downgrades():
    code, out, _ = run_cli("analyze", "-s", "strong_coupling", "--norm", "one",
                           "--zero-tol", "1.0", "--no-oracle")
    assert code == 0
    assert "verdict: US" in out


def _readme_catalog_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Catalog\n", 1)[1].split("\n## ", 1)[0]
    return [name for line in table.splitlines() if line.startswith("| `")
            for name in re.findall(r"`(\w+)`", line.split("|")[1])]


def test_readme_catalog_names_resolve():
    names = _readme_catalog_names()
    assert {"example1", "example2", "rotating_frame_marginal"} <= set(names)
    for name in names:
        assert catalog.get(name).system.n >= 1
        code, out, err = run_cli("analyze", "-s", name, "--norm", "one", "--no-oracle")
        assert code == 0, (name, err)
        assert "verdict:" in out


def test_analyze_weighted_norm():
    code, out, _ = run_cli("analyze", "-s", "lti_diag", "--norm", "weighted", "--no-oracle")
    assert code == 0
    assert "--- norm weighted ---" in out
    assert "verdict: UES" in out


def test_analyze_weighted_nine_dimensional(tmp_path):
    # the weight is built from the 9 x 9 A(t0) by the sign iteration, in O(n^3)
    n = 9
    doc = {"entries": [["-3" if i == j else "0.1*sin(t)" for j in range(n)] for i in range(n)],
           "period": 2.0 * math.pi}
    code, out, err = run_cli("analyze", "-f", write_system(tmp_path, doc), "--norm", "weighted",
                             "--no-oracle")
    assert code == 0, err
    assert "verdict: UES" in out


def test_analyze_weighted_rejects_non_hurwitz_start():
    code, _, err = run_cli("analyze", "-s", "scalar_unstable", "--norm", "weighted")
    assert code == 1
    assert "not Hurwitz" in err


@pytest.mark.parametrize("entries", [[["-1e-14", "0"], ["0", "-1"]], [["-1", "1e6"], ["0", "-1"]]],
                         ids=["diag-1e-14", "jordan-1e6"])
def test_analyze_weighted_accepts_ill_conditioned_hurwitz_start(tmp_path, entries):
    path = write_system(tmp_path, {"entries": entries, "period": 1.0})
    code, out, err = run_cli("analyze", "-f", path, "--norm", "weighted")
    assert code == 0, err
    assert "verdict: US" in out
    assert "inside strip: yes" in out


def test_analyze_weighted_fails_in_one_line_before_any_drift_scan(tmp_path, monkeypatch):
    scans = []
    monkeypatch.setattr(periodic, "rate_summary", lambda *args: scans.append(args))
    # Hurwitz, but H = diag(1e30, 1) gives a transform whose singular values span 1e15
    path = write_system(tmp_path, {"entries": [["-1e-30", "0"], ["0", "-1"]], "period": 1.0})
    assert run_cli("analyze", "-f", path, "--norm", "one,weighted", "--no-oracle") == (
        2, "", "numeric failure: cannot build the weighted norm: P is singular: "
               "singular values 1.000000e+15 .. 1.000000e+00\n")
    # Hurwitz, but Q overflows on the way to H = diag(1e300, 1)
    path = write_system(tmp_path, {"entries": [["-1e-300", "0"], ["0", "-1"]], "period": 1.0})
    assert run_cli("analyze", "-f", path, "--norm", "one,weighted", "--no-oracle") == (
        2, "", "numeric failure: Lyapunov system overflowed to a non-finite value\n")
    assert scans == []


def test_source_usage_errors(tmp_path):
    path = write_system(tmp_path, {"entries": [["-1"]], "period": 1.0})
    code, _, err = run_cli("analyze")
    assert code == 1
    code, _, err = run_cli("analyze", "-s", "lti_diag", "-f", path)
    assert code == 1
    code, _, err = run_cli("analyze", "-f", path, "--param", "beta=1")
    assert code == 1
    assert "--param" in err


def test_bad_inputs_exit_one(tmp_path):
    cases = [
        ("analyze", "-s", "no_such_system"),
        ("analyze", "-s", "rotating_frame", "--param", "beta"),
        ("analyze", "-s", "rotating_frame", "--param", "beta=abc"),
        ("analyze", "-s", "strong_coupling", "--norm", "euclid"),
        ("analyze", "-s", "strong_coupling", "--norm", ""),
        ("analyze", "-s", "strong_coupling", "--zero-tol", "-1"),
        ("analyze", "-f", str(tmp_path / "missing.json")),
    ]
    for args in cases:
        code, _, err = run_cli(*args)
        assert code == 1, (args, err)


def test_file_validation_exit_one(tmp_path):
    bad = [
        "not json at all",
        json.dumps([1, 2]),
        json.dumps({"entries": [], "period": 1.0}),
        json.dumps({"entries": [["-1contains junk"]], "period": 1.0}),
        json.dumps({"entries": [["-1"]], "period": "x"}),
        json.dumps({"entries": [["-1"]], "period": 1.0, "n": 3}),
        json.dumps({"entries": [["-1", "0"]], "period": 1.0}),
        json.dumps({"entries": [["t"]], "period": 1.0}),     # not periodic
    ]
    for i, text in enumerate(bad):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        code, _, err = run_cli("analyze", "-f", str(path))
        assert code == 1, (text, err)


@pytest.mark.parametrize("args", [
    ["analyze", "-f", "{superscript}"],
    ["perturb", "-s", "lti_diag", "--d", "\u00b2;0"],
    ["series", "-s", "lti_diag", "--t-end", "nan"],
    ["series", "-s", "lti_diag", "--t-end", "inf"],
    ["perturb", "-s", "lti_diag", "--t-end", "nan"],
    ["perturb", "-s", "lti_diag", "--t-end", "inf"],
    ["perturb", "-s", "lti_diag", "--x0", "nan,1"],
    ["series", "-s", "lti_diag", "--trajectory", "inf,0"],
    ["analyze", "-f", "{bool_period}"],
    ["analyze", "-s", "example1", "--param", "beta=nan"],
    ["analyze", "-s", "example1", "--param", "beta=inf"],
    ["series", "-s", "example1", "--param", "beta=-1e400"],
    ["analyze", "-s", "example2", "--norm", "one,two, one"],
], ids=["file-superscript", "d-superscript", "series-t-end-nan", "series-t-end-inf",
        "perturb-t-end-nan", "perturb-t-end-inf", "x0-nan", "trajectory-inf", "period-true",
        "param-nan", "param-inf", "param-overflow", "norm-repeated"])
def test_input_errors_exit_one_without_traceback(tmp_path, args):
    files = {"superscript": write_system(tmp_path, {"entries": [["-1+sin(t)^\u00b2"]],
                                                    "period": 2.0 * math.pi}, "sup.json"),
             "bool_period": write_system(tmp_path, {"entries": [["-1"]], "period": True}, "b.json")}
    code, _, err = run_cli(*(a.format(**files) for a in args))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if "--param" in args:
        assert err.startswith("error: --param beta "), err
    if "--norm" in args:
        assert err == "error: --norm names 'one' more than once\n"


@pytest.mark.parametrize("command", ["series", "perturb"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_path_exits_one(tmp_path, command, where):
    out = str(tmp_path / "missing" / "x.csv") if where == "missing-directory" else str(tmp_path)
    code, stdout, err = run_cli(command, "-s", "lti_diag", "--samples", "16", "-o", out)
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("args", [
    ["series", "-s", "example2", "--samples", "2", "--t-end", "1e308"],
    ["series", "-s", "example2", "--samples", "16", "--t-end", "1e308", "--trajectory", "1,1"],
    ["perturb", "-s", "example2", "--samples", "16", "--t-end", "1e200"],
    ["perturb", "-s", "example2", "--samples", "16", "--t-end", "1e308"],
], ids=["series-t-end-1e308", "trajectory-t-end-1e308", "perturb-t-end-1e200", "perturb-t-end-1e308"])
def test_huge_t_end_exits_two_without_traceback(args):
    # finite, but past 1e308 / period the period count overflows, and so does the step count
    code, _, err = run_cli(*args)
    assert code == 2
    assert err.startswith("numeric failure: ") and err.count("\n") == 1, err


def test_numeric_failure_exit_two(tmp_path):
    # sqrt leaves its domain while the periodicity grid samples the entries
    path = write_system(tmp_path, {"entries": [["sqrt(t - 100)"]], "period": 1.0})
    code, _, err = run_cli("analyze", "-f", str(path))
    assert code == 2
    assert "numeric failure" in err


def test_file_system_analysis(tmp_path):
    path = write_system(tmp_path, {
        "entries": [["-2 + sin(t)", "0"], ["0", "-2 - sin(t)"]],
        "period": 2.0 * math.pi,
    })
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one,two,inf", "--json")
    assert code == 0, err
    doc = json.loads(out)
    for entry in doc["analyses"]:
        assert entry["classification"] == "UES"


def test_series_drift_csv():
    code, out, err = run_cli("series", "-s", "strong_coupling", "--norm", "one",
                             "--samples", "16")
    assert code == 0, err
    lines = out.strip().split("\n")
    assert lines[0] == "t,pi_plus,pi_minus,low_plus,up_plus,low_minus,up_minus"
    assert len(lines) == 17
    for line in lines[1:]:
        row = [float(v) for v in line.split(",")]
        assert len(row) == 7
        assert row[3] - 1e-8 <= row[1] <= row[4] + 1e-8
    assert lines[1].split(",")[0] == "0"


def test_series_trajectory_csv(tmp_path):
    dest = tmp_path / "traj.csv"
    code, out, err = run_cli("series", "-s", "lti_diag", "--trajectory", "1,0",
                             "--samples", "16", "--t-end", "2.0", "--out", str(dest))
    assert code == 0, err
    assert out == ""
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,norm"
    assert len(lines) == 17
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 1.0]
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(math.exp(-2.0), rel=1e-6)


def test_series_validation():
    code, _, err = run_cli("series", "-s", "lti_diag", "--samples", "1")
    assert code == 1
    code, _, err = run_cli("series", "-s", "lti_diag", "--t-end", "0")
    assert code == 1
    code, _, err = run_cli("series", "-s", "lti_diag", "--trajectory", "1,2,3")
    assert code == 1
    assert "--trajectory" in err


def test_perturb_decaying_disturbance_json():
    code, out, err = run_cli("perturb", "-s", "example2", "--d", "exp(-t);0",
                             "--x0", "-4,3", "--t-end", "10", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["unforced_classification"] == "UES"
    assert doc["overflowed"] is False
    assert doc["tail_max_norm"] < 1e-3
    assert doc["drift_vanishes"] is True
    assert doc["convergence_claimed"] is True
    assert doc["x0"] == [-4.0, 3.0]
    assert doc["cross_check_error"] is not None and doc["cross_check_error"] < 1e-5


def test_perturb_persistent_disturbance():
    code, out, err = run_cli("perturb", "-s", "example2", "--d", "1;0",
                             "--t-end", "10")
    assert code == 0, err
    assert "unforced verdict (norm two): UES" in out
    assert "forced-state decay: not claimed (disturbance drift does not vanish)" in out


def test_perturb_overflow_reported():
    args = ("perturb", "-s", "scalar_unstable", "--t-end", "2600", "--samples", "64")
    code, out, err = run_cli(*args, "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["overflowed"] is True
    assert doc["t_overflow"] == pytest.approx(math.log(1e300) / 0.3, rel=0.05)
    assert doc["tail_max_norm"] is None
    assert doc["convergence_claimed"] is False
    code, out, err = run_cli(*args)
    assert code == 0, err
    assert "state overflowed at t=2311.11: unbounded growth; trajectory truncated to 56 samples\n" in out
    assert "forced-state decay: not claimed (unforced verdict is unstable; state overflowed)\n" in out


def test_perturb_first_interval_overflow_exits_2(tmp_path):
    # a truncated trajectory needs two samples; x' = 800 x passes the cap before the second
    path = write_system(tmp_path, {"entries": [["800"]], "period": 1.0})
    code, out, err = run_cli("perturb", "-f", path, "--t-end", "14", "--samples", "16")
    assert (code, out) == (2, "")
    assert err == "numeric failure: state exceeded 1.0e+300 on the first sample interval\n"


def test_perturb_drift_unavailable_past_overflow():
    # the state overflows at t ~ 693; exp(t) cannot be evaluated on the drift
    # windows beyond t ~ 709, which must not turn the run into a failure
    code, out, err = run_cli("perturb", "-s", "lti_diag", "--d", "exp(t);0", "--x0", "1,1",
                             "--t-end", "800", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["overflowed"] is True
    assert doc["drift_sups"] is None and doc["drift_tail_log_slope"] is None
    assert doc["drift_vanishes"] is None
    assert doc["convergence_claimed"] is False


def test_perturb_drift_unavailable_past_t_end():
    # the trajectory is fine up to t_end = 10, but the last drift window reaches 11
    code, out, err = run_cli("perturb", "-s", "lti_diag", "--d", "sqrt(10.5-t);0", "--t-end", "10")
    assert code == 0, err
    assert ("disturbance windowed-integral sup: unavailable "
            "(sqrt domain violation: argument -0.015625 (at t=10.515625))") in out
    assert "forced-state decay: not claimed (disturbance drift unavailable)" in out


def test_blowup_reads_like_any_numeric_failure(tmp_path):
    # the oracle's blow-up in analyze has nothing to do with a state or a sample; the
    # system grows like exp(250 t), past the cap near t = log(1e300) / 250 = 2.763
    path = write_system(tmp_path, {"entries": [["250+sin(t)", "1"], ["0", "-1"]],
                                   "period": 2.0 * math.pi})
    code, _, err = run_cli("analyze", "-f", path, "--norm", "one")
    assert code == 2
    assert err == "numeric failure: transition matrix exceeded 1.0e+300 at t=2.75656\n"


@pytest.mark.parametrize("rate", ["-3000", "-100"])
def test_stiff_systems_are_partially_resolved(tmp_path, rate):
    # RK4 at the start step is unstable for -3000, and for both systems the fast
    # multiplier exp(rate T) is far below eigvals' round-off: the oracle reports an
    # upper bound for its exponent instead of failing.  The backward flow of -3000
    # passes the overflow cap within one sandwich segment, where its bound allows it
    period = 2.0 * math.pi
    path = write_system(tmp_path, {"entries": [[f"{rate}+sin(t)", "1"], ["0", "-1"]], "period": period})
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one,two", "--json")
    assert code == 0, err
    for entry in json.loads(out)["analyses"]:
        oracle = entry["oracle"]
        assert oracle["unresolved_exponents"] == 1
        low, slow = oracle["fce_real_parts"]
        assert low == math.log(oracle["multiplier_floor"]) / period
        assert slow == pytest.approx(-1.0, abs=1e-9)
        assert oracle["strip_check"]["passed"] is True
        assert entry["classification"] == {"one": "US", "two": "UES"}[entry["norm"]]
        assert oracle["decay"] == "skipped: verdict not UES" if entry["norm"] == "one" else oracle["decay"]["passed"]
        notes = oracle["partially_resolved"]
        if rate == "-100":
            assert oracle["sandwich_passed"] is True and len(notes) == 1
        else:
            assert oracle["sandwich_passed"] is None and oracle["sandwich_violation"] is None
            assert notes[1].startswith("transition bound not checked: transition matrix exceeded 1.0e+300")
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one")
    assert code == 0, err
    assert f"monodromy exponent real parts: <={low:.6g}, -1 (inside strip: yes)" in out
    assert "oracle: partially resolved: 1 multiplier(s) below the round-off floor" in out


@pytest.mark.parametrize("norm", ["one", "two", "inf", "weighted"])
def test_stable_system_with_an_underflowing_transition_is_analyzed(tmp_path, norm):
    # exp(-800) is below the smallest float: the fast row of the monodromy matrix is 0, so
    # its determinant has no sign to read and its multiplier is below the round-off floor.
    # A subprocess, so numpy's warnings reach stderr under the default filters
    path = write_system(tmp_path, {"entries": [["-800", "0"], ["0", "-1"]], "period": 1.0})
    proc = subprocess.run(console_argv("analyze", "-f", path, "--norm", norm),
                          capture_output=True, text=True, timeout=60, env=console_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "monodromy exponent real parts: <=-33.2362, -1 (inside strip: yes)" in proc.stdout


@pytest.mark.parametrize("entry,period,end", [
    ("-800", 1.0, "1"),
    ("2 - 3000*sin(t)^200", 2.0 * math.pi, "6.28319"),
], ids=["constant", "peaked"])
def test_transition_underflowing_to_zero_is_a_numeric_failure(tmp_path, entry, period, end):
    # a 1 x 1 monodromy matrix of exp(-800) or exp(-1050) is 0: no multiplier left to bound
    path = write_system(tmp_path, {"entries": [[entry]], "period": period})
    proc = subprocess.run(console_argv("analyze", "-f", path), capture_output=True, text=True,
                          timeout=60, env=console_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"numeric failure: integrated transition matrix underflowed to zero over [0, {end}]\n")


@pytest.mark.parametrize("args,code", [
    # the stiff system's coarse first pass overflows before the retry succeeds
    (["-f", "{stiff}", "--t-end", "3", "--json"], 0),
    (["-s", "lti_diag", "--d", "1e308;0", "--t-end", "2"], 2),
], ids=["stiff-retry", "huge-disturbance"])
def test_perturb_prints_no_runtime_warnings(tmp_path, args, code):
    # a subprocess, so numpy's warnings reach stderr under the default filters
    stiff = write_system(tmp_path, {"entries": [["-3000+sin(t)", "1"], ["0", "-1"]],
                                    "period": 2.0 * math.pi})
    src = str(Path(lpstab.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "lpstab.cli", "perturb"] + [a.format(stiff=stiff) for a in args]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == code, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_perturb_no_false_overflow_between_samples(tmp_path):
    # a stiff stretch inside sample intervals: at 4 substeps a sample RK4 blows up in
    # it, which is a step to refine, not the stable system's growth
    path = write_system(tmp_path, {"entries": [["-1-3000*sin(t)^200", "1"], ["0", "-1"]],
                                   "period": 2.0 * math.pi})
    code, out, err = run_cli("perturb", "-f", path, "--d", "exp(-t);1", "--t-end", "10",
                             "--samples", "32", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["overflowed"] is False and doc["cross_check_error"] < 1e-5


@pytest.mark.parametrize("args, err", [
    (["perturb", "-s", "example2", "--samples", "10000000000", "--json"],
     r"numeric failure: trajectory did not settle within 1048576 total steps\n"),
    (["series", "-s", "example2", "--samples", "10000000000", "--trajectory", "1,1"],
     r"numeric failure: trajectory did not settle within 1048576 total steps\n"),
    (["series", "-s", "example2", "--samples", "10000000000"],
     r"out of memory: Unable to allocate [^\n]* shape \(10000000000,\)[^\n]*\n"),
], ids=["perturb", "series-trajectory", "series"])
def test_huge_sample_count_fails_in_one_line(run_limited, args, err):
    # a trajectory on more samples than the step budget can never settle; any other
    # allocation that fails is out of memory.  Under the cap the allocation fails at once
    proc = run_limited(["-m", "lpstab.cli", *args])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(err, proc.stderr), proc.stderr


def test_memory_error_without_a_message_is_one_line(monkeypatch):
    # the interpreter's own MemoryError carries no message
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr(periodic, "barrier_series", exhausted)
    assert run_cli("series", "-s", "example2") == (2, "", "out of memory: allocation failed\n")


def test_analyze_terminates_at_large_initial_time(tmp_path):
    # near t0 = 6e6 floats are 9.3e-10 apart, wider than the polish's bracket width of 6.3e-10
    path = write_system(tmp_path, {"entries": [["-1 + sin(t)"]], "period": 2.0 * math.pi, "t0": 6e6})
    src = str(Path(lpstab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "lpstab.cli", "analyze", "-f", path, "--norm", "one"],
                          capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert "verdict: UES" in proc.stdout
    assert "overshoot K: 7.38906" in proc.stdout
    assert "inside strip: yes" in proc.stdout


@pytest.mark.parametrize("doc", [
    {"entries": [["0.3 + sin(t)"]], "period": 2.0 * math.pi, "t0": 1e17},
    {"entries": [["-1"]], "period": 1.0, "t0": 1e20},
], ids=["periodic-t0-1e17", "constant-t0-1e20"])
def test_initial_time_too_large_for_the_period_is_an_input_error(tmp_path, doc):
    # t0 + T rounds to t0 in both, so one period would span no time at all
    code, out, err = run_cli("analyze", "-f", write_system(tmp_path, doc))
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: initial time 1e\+(17|20) is too large for period \S+: floats near "
                        r"t0 \+ T are \S+ apart, wider than the scan step \S+\n", err), err


@pytest.mark.parametrize("norm", ["one", "two", "weighted"])
def test_overflow_inside_lpstab_is_a_numeric_failure(tmp_path, run_limited, norm):
    # finite entries whose Gram product overflows in the frozen-time route, and whose
    # A(t0) + A(t0)^T, the Lyapunov operator at H = I, overflows before the weight's sign iteration
    path = write_system(tmp_path, {"entries": [["1e308*cos(t)", "1e308"], ["1e308", "1e308*sin(t)"]],
                                   "period": 2.0 * math.pi})
    proc = run_limited(["-m", "lpstab.cli", "analyze", "-f", path, "--norm", norm, "--no-oracle"])
    assert proc.returncode == 2, proc.stderr
    what = "Lyapunov system" if norm == "weighted" else "Gram product"
    assert proc.stderr == f"numeric failure: {what} overflowed to a non-finite value\n"


def test_perturb_validation():
    code, _, _ = run_cli("perturb", "-s", "lti_diag", "--samples", "8")
    assert code == 1
    code, _, err = run_cli("perturb", "-s", "lti_diag", "--d", "1")
    assert code == 1
    assert "--d" in err
    code, _, err = run_cli("perturb", "-s", "lti_diag", "--x0", "1,2,3")
    assert code == 1


def test_oracle_integrates_each_grid_once(monkeypatch):
    # transitions do not depend on the norm, so three norms share the monodromy and the
    # one-period stacks (15 segments each way) that both the sandwich and decay grids read
    calls = []
    integrate = floquet.integrate_transitions
    monkeypatch.setattr(floquet, "integrate_transitions",
                        lambda sys, a, b, tol=None: calls.append((tuple(a), tuple(b))) or integrate(sys, a, b, tol))
    floquet._period_segments.cache_clear()
    code, out, err = run_cli("analyze", "-s", "example2", "--norm", "one,two,inf", "--json")
    assert code == 0, err
    assert [e["classification"] for e in json.loads(out)["analyses"]] == ["UES"] * 3
    assert sorted(len(a) for a, _ in calls) == [1, 15, 15]
    assert len(set(calls)) == 3


def test_weighted_transform_is_checked_once(monkeypatch):
    # the kind checks its transform when it is built; no mu or norm call checks it again
    calls = []
    check = linalg.check_nonsingular
    monkeypatch.setattr(linalg, "check_nonsingular", lambda *args: calls.append(args) or check(*args))
    code, out, err = run_cli("analyze", "-s", "example2", "--norm", "one,two,weighted", "--json")
    assert (code, err) == (0, "")
    assert len(calls) == 1


@pytest.mark.parametrize("check,fake,line", [
    ("verify_sandwich", lambda sys, kind: 1.0, "transition bound violated by 1.000e+00"),
    ("verify_decay", lambda sys, verdict: floquet.DecayCheck(False, -0.5, 1e-6, 120, 120),
     "decay envelope violated by 5.000e-01"),
    ("verify_strip", lambda rates, fce: floquet.StripCheck(False, -rates.lambda_minus, rates.lambda_plus,
                                                          fce.real_parts, 0.25, 1e-6),
     "exponent strip violated by 2.500e-01"),
], ids=["sandwich", "decay", "strip"])
def test_failed_cross_check_exits_two_after_the_whole_document(monkeypatch, check, fake, line):
    # a disagreement between the routes still prints every result, then fails in one line
    monkeypatch.setattr(floquet, check, fake)
    code, out, err = run_cli("analyze", "-s", "example2", "--norm", "one", "--json")
    assert (code, err) == (2, f"numeric failure: cross-checks failed: one: {line}\n")
    doc = json.loads(out)
    assert sorted(doc) == ["analyses", "frozen_time", "system", "tolerances", "version", "zero_tol"]
    (entry,) = doc["analyses"]
    assert entry["norm"] == "one" and entry["classification"] == "UES"
    oracle = entry["oracle"]
    assert (oracle["sandwich_passed"], oracle["decay"]["passed"], oracle["strip_check"]["passed"]) == (
        check != "verify_sandwich", check != "verify_decay", check != "verify_strip")


def test_audit_disagreement_exits_two(monkeypatch):
    from lpstab import perturb
    voc = perturb._voc_states
    monkeypatch.setattr(perturb, "_voc_states", lambda *args: [x + 1e-3 for x in voc(*args)])
    code, out, err = run_cli("perturb", "-s", "example2", "--d", "exp(-t);0")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"numeric failure: stepper and variation-of-constants disagree: "
                        r"relative error \d\.\d{3}e-0[34]\n", err), err


def test_output_is_deterministic():
    a = run_cli("analyze", "-s", "example2", "--norm", "one,two", "--json")
    b = run_cli("analyze", "-s", "example2", "--norm", "one,two", "--json")
    assert a == b
    c = run_cli("series", "-s", "rotating_frame", "--norm", "two", "--samples", "32")
    d = run_cli("series", "-s", "rotating_frame", "--norm", "two", "--samples", "32")
    assert c == d


# how the console script starts the command line: main() with no arguments ends the process
CONSOLE = "import sys; from lpstab.cli import main; sys.exit(main())"


def console_argv(*args):
    return [sys.executable, "-c", CONSOLE, *args]


def console_env():
    return dict(os.environ, PYTHONPATH=str(Path(lpstab.__file__).resolve().parents[1]))


@pytest.mark.parametrize("args,code", [
    (["analyze", "-s", "example2", "--json"], 0),
    (["analyze", "--norm", "one"], 1),
    (["series", "-s", "example2", "--samples", "2", "--t-end", "1e308"], 2),
], ids=["analyze", "usage-error", "numeric-failure"])
def test_in_process_runs_leave_the_collector_alone(args, code):
    # only the process's own command freezes the collector at its end
    frozen = gc.get_freeze_count()
    assert run_cli(*args)[0] == code
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()


def test_closed_reader_ends_the_command_quietly():
    # `lpstab series ... | head -c 100`: the reader goes away while the rows are written
    proc = subprocess.Popen(console_argv("series", "-s", "example2", "--samples", "200000"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=console_env())
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert head.startswith(b"t,pi_plus,") and len(head) == 100
    assert (code, err) == (1, b"")


@pytest.mark.parametrize("args", [
    ["analyze", "-s", "example2", "--norm", "one,two", "--json"],
    ["series", "-s", "example2", "--samples", "64", "-o", "{out}"],
    ["series", "-s", "lti_diag", "--trajectory", "1,0", "--samples", "64", "-o", "{out}"],
    ["perturb", "-s", "example2", "--d", "exp(-t);0", "--samples", "64", "--out", "{out}"],
], ids=["analyze-json", "series", "series-trajectory", "perturb"])
def test_console_process_writes_what_an_in_process_run_writes(tmp_path, args):
    # the process's end skips the exit collections: nothing written may wait for them
    here, spawned = tmp_path / "in.csv", tmp_path / "spawned.csv"
    code, out, err = run_cli(*(a.format(out=here) for a in args))
    proc = subprocess.run(console_argv(*(a.format(out=spawned) for a in args)),
                          capture_output=True, text=True, timeout=60, env=console_env())
    assert (code, err) == (0, "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    if "{out}" in args:
        assert spawned.read_bytes() == here.read_bytes() != b""
