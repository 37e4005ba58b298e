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

import numpy as np
import pytest

import lpstab
from lpstab import catalog, cli, floquet, linalg, periodic, transition


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
    (("analyze", "--nor", "x"),
     (1, "", usage_error("analyze", "No such option '--nor'. (Did you mean one of: '--no-oracle', '--norm'?)"))),
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
    (("perturb", "-s", "example2", "--x0", "1,abc"),
     (1, "", "error: cannot parse --x0 '1,abc': could not convert string to float: 'abc'\n")),
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


def test_csv_rows_format_like_the_per_value_format():
    # one "%.17g,...\n" % row per line gives f"{v:.17g}" of each value, special ones too
    rng = np.random.default_rng(17)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 0.1, 1.0 / 3.0, 1e16, 1e308,
               -1.7976931348623157e308, math.inf, -math.inf, math.nan, 123456789012345680.0]
    rows = np.concatenate([np.array(special * 3).reshape(-1, 3),
                           rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-320, 308, (200, 3))])
    buf = io.StringIO()
    cli._write_csv(buf, "a,b,c", rows)
    want = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows.tolist())
    assert buf.getvalue() == want


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


def test_perturb_first_interval_overflow_is_reported(tmp_path):
    # x' = 800 x passes the cap before the second sample: the trajectory is x0 alone
    path = write_system(tmp_path, {"entries": [["800"]], "period": 1.0})
    args = ("perturb", "-f", path, "--t-end", "14", "--samples", "16")
    code, out, err = run_cli(*args, "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["overflowed"] is True and doc["t_overflow"] == 14.0 / 15.0
    assert doc["x0"] == doc["final_state"] == [1.0] and doc["tail_max_norm"] is None
    code, out, err = run_cli(*args)
    assert code == 0, err
    assert "state overflowed at t=0.933333: unbounded growth; trajectory truncated to 1 samples\n" in out


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


def test_monodromy_past_the_largest_float_is_reported(tmp_path):
    # the system grows like exp(250 t), so its monodromy exp(500 pi) is far past the
    # largest float: its exponents come from the scaled product, and the figures scaled
    # back to M read Infinity.  The multiplier exp(-2 pi) is round-off beside it
    path = write_system(tmp_path, {"entries": [["250+sin(t)", "1"], ["0", "-1"]],
                                   "period": 2.0 * math.pi})
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one", "--json")
    assert code == 0, err
    oracle = json.loads(out)["analyses"][0]["oracle"]
    bound, top = oracle["fce_real_parts"]
    assert oracle["unresolved_exponents"] == 1 and 244.0 < bound < 250.0
    assert top == pytest.approx(250.0, abs=1e-8)
    assert oracle["multipliers"][1] == [math.inf, 0.0]
    assert oracle["monodromy_error"] == oracle["multiplier_floor"] == math.inf
    assert oracle["strip_check"]["passed"] and oracle["sandwich_passed"]
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one")
    assert (code, err) == (0, "")
    assert "monodromy exponent real parts: <=244.869, 250 (inside strip: yes)" in out


@pytest.mark.parametrize("rate", ["-3000", "-100"])
def test_stiff_systems_are_partially_resolved(tmp_path, rate):
    # RK4 at the start step is unstable for -3000, and for both systems the fast
    # multiplier exp(rate T) is far below eigvals' round-off: the oracle reports an
    # upper bound for its exponent instead of failing.  The backward flow of -3000
    # passes the largest float over its first period segment, at steps that resolve A,
    # where the sandwich's bound allows it
    period = 2.0 * math.pi
    path = write_system(tmp_path, {"entries": [[f"{rate}+sin(t)", "1"], ["0", "-1"]], "period": period})
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one,two", "--json")
    assert code == 0, err
    for entry in json.loads(out)["analyses"]:
        oracle = entry["oracle"]
        assert oracle["unresolved_exponents"] == 1
        low, slow = oracle["fce_real_parts"]
        # the bound is read on the scaled product, and the floor scaled back: the two
        # logs' roundings may differ in the last bit
        assert low == pytest.approx(math.log(oracle["multiplier_floor"]) / period, rel=4e-16)
        assert slow == pytest.approx(-1.0, abs=1e-9)
        assert oracle["strip_check"]["passed"] is True
        assert entry["classification"] == {"one": "US", "two": "UES"}[entry["norm"]]
        # the one-norm verdict is US, whose envelope |x(t)| <= K |x(s)| is checked as well
        decay = oracle["decay"]
        assert decay["passed"] is True and decay["pairs"] == 1035
        if (rate, entry["norm"]) == ("-3000", "one"):
            assert decay["worst_margin"] == pytest.approx(0.419, abs=5e-3)
        notes = oracle["partially_resolved"]
        if rate == "-100":
            assert oracle["sandwich_passed"] is True and len(notes) == 1
        else:
            assert oracle["sandwich_passed"] is None and oracle["sandwich_violation"] is None
            assert notes[1] == ("transition bound not checked: transition matrix over [0.418879, 0] "
                                "passed the largest float")
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one")
    assert code == 0, err
    assert f"monodromy exponent real parts: <={low:.6g}, -1 (inside strip: yes)" in out
    assert "oracle: partially resolved: 1 multiplier(s) below the round-off floor" in out


def test_uniformly_stable_verdict_gets_the_decay_check():
    # a US verdict promises |x(t)| <= K |x(s)|, the envelope with alpha = 0
    code, out, err = run_cli("analyze", "-s", "example1", "--param", "beta=1.0", "--norm", "two", "--json")
    assert (code, err) == (0, "")
    (entry,) = json.loads(out)["analyses"]
    decay = entry["oracle"]["decay"]
    assert entry["classification"] == "US"
    assert decay["passed"] is True and decay["pairs"] == 1035 and decay["worst_margin"] >= 0.0


def test_uniformly_stable_verdict_of_a_growing_system_fails_its_decay_check():
    # --zero-tol 10 takes scalar_unstable's one-period drift 0.3 T as zero, so the drift
    # route says US; the flow grows like exp(0.3 t), and the envelope fails
    code, out, err = run_cli("analyze", "-s", "scalar_unstable", "--zero-tol", "10", "--norm", "one", "--json")
    assert (code, err) == (2, "numeric failure: cross-checks failed: one: decay envelope violated by 4.753e+00\n")
    (entry,) = json.loads(out)["analyses"]
    assert entry["classification"] == "US" and entry["oracle"]["decay"]["passed"] is False


def test_forward_segment_past_the_largest_float_leaves_the_oracle_unchecked(tmp_path):
    # the first forward period segment grows by about exp(1000), as its drift bound
    # allows: no monodromy, so neither the strip nor the transition bound is checked, and
    # the analysis completes
    path = write_system(tmp_path, {"entries": [["15000 + 100*sin(2*pi*t)", "1"], ["0", "-1"]], "period": 1.0})
    blown = "not checked: transition matrix over [0, 0.0666667] passed the largest float"
    notes = [f"exponent strip {blown}", f"transition bound {blown}"]
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one,two", "--json")
    assert (code, err) == (0, "")
    analyses = json.loads(out)["analyses"]
    assert [entry["classification"] for entry in analyses] == ["inconclusive"] * 2
    for entry in analyses:
        assert entry["oracle"] == {"strip_check": None, "sandwich_violation": None, "sandwich_passed": None,
                                   "decay": "skipped: verdict not stable", "partially_resolved": notes}
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one,two")
    assert (code, err) == (0, "")
    assert "monodromy exponent" not in out
    assert out.count(f"oracle: partially resolved: {'; '.join(notes)}\n") == 2


@pytest.mark.parametrize("entries,period,verdict,blown", [
    ([["15000"]], 1.0, "unstable", "transition matrix over [0, 0.0666667] passed the largest float"),
    ([["-10000+5000*sin(t)", "10000*cos(t)"], ["1000*sin(2*t)", "-20000"]], 2.0 * math.pi, "UES",
     "integrated transition matrix underflowed to zero over [0, 0.418879]"),
], ids=["growing-15000", "decaying-20000"])
def test_period_stack_underflowing_to_zero_leaves_the_oracle_unchecked(tmp_path, entries, period, verdict, blown):
    # exp(-1000), the backward period segments of x' = 15000 x, and at most about
    # exp(-4200), the forward ones of the 2 x 2 system, are below the smallest float, and
    # so are their drift route's lower bounds; the other direction passes the largest
    # float, as its bound allows.  Neither stack can be checked, and the analysis completes
    path = write_system(tmp_path, {"entries": entries, "period": period})
    notes = [f"exponent strip not checked: {blown}", f"transition bound not checked: {blown}"]
    notes += [f"decay envelope not checked: {blown}"] * (verdict == "UES")
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one,two", "--json")
    assert (code, err) == (0, "")
    analyses = json.loads(out)["analyses"]
    assert [entry["classification"] for entry in analyses] == [verdict] * 2
    for entry in analyses:
        assert entry["oracle"] == {"strip_check": None, "sandwich_violation": None, "sandwich_passed": None,
                                   "decay": None if verdict == "UES" else "skipped: verdict not stable",
                                   "partially_resolved": notes}
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one,two")
    assert (code, err) == (0, "")
    assert out.count(f"verdict: {verdict}\n") == 2 and "monodromy exponent" not in out
    assert out.count(f"oracle: partially resolved: {'; '.join(notes)}\n") == 2


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


def test_frozen_time_bound_past_the_range_of_its_powers_is_reported(tmp_path):
    # alpha^6 and m^4 pass the largest float, the rate bound alpha^2 (alpha/m)^4 / 3 does not
    path = write_system(tmp_path, {"entries": [["-1e60", "0"], ["0", "-1e60"]], "period": 1.0})
    code, out, err = run_cli("analyze", "--no-oracle", "-f", path, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["frozen_time"]["c2_bound"] == pytest.approx(2.742e119, rel=1e-3)


@pytest.mark.parametrize("entries", [
    [["-1+400*sin(t)"]],
    [["-10000+5000*sin(t)", "10000*cos(t)"], ["1000*sin(2*t)", "-20000"]],
], ids=["one-by-one", "two-by-two"])
def test_overshoot_past_the_largest_float_reads_inf(tmp_path, entries):
    # dU+ - dL+ passes log of the largest float (709.78; 800 for the 1 x 1 system), so
    # K = exp(dU+ - dL+) reads inf in text and Infinity in JSON, as the oracle's figures
    # past the float range do, in analyze and (on the 1 x 1 system) in perturb's verdict
    path = write_system(tmp_path, {"entries": entries, "period": 2.0 * math.pi})
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one,two,inf", "--no-oracle", "--json")
    assert (code, err) == (0, "") and '"K": Infinity' in out
    for entry in json.loads(out)["analyses"]:
        rates = entry["rates"]
        assert rates["delta_upper_plus"] - rates["delta_lower_plus"] > math.log(sys.float_info.max)
        assert (entry["classification"], entry["K"]) == ("UES", math.inf)
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one", "--no-oracle")
    assert (code, err) == (0, "")
    assert "overshoot K: inf\n" in out and "|x(t)| <= inf exp(-" in out
    if len(entries) == 1:  # the 2 x 2 system's forced-response audit is slow
        code, out, err = run_cli("perturb", "-f", path, "--t-end", "0.5", "--samples", "16", "--json")
        assert (code, err) == (0, "") and json.loads(out)["unforced_classification"] == "UES"


def test_overshoot_past_the_largest_float_is_cross_checked(tmp_path):
    # K = exp(800) is inf, yet the decay check still tests the envelope, with log K read
    # from the offsets: every pair's bound is slack by hundreds, and the two-sided state
    # envelope sets the margin
    path = write_system(tmp_path, {"entries": [["-1+400*sin(t)"]], "period": 2.0 * math.pi})
    code, out, err = run_cli("analyze", "-f", path, "--json")
    assert (code, err) == (0, "")
    entry = json.loads(out)["analyses"][0]
    oracle = entry["oracle"]
    assert (entry["classification"], entry["K"]) == ("UES", math.inf)
    assert oracle["fce_real_parts"] == [pytest.approx(-1.0, abs=1e-9)]
    assert oracle["strip_check"]["passed"] and oracle["sandwich_passed"] and oracle["decay"]["passed"]
    assert 0.0 < oracle["decay"]["worst_margin"] < 1e-9


@pytest.mark.parametrize("entries,verdict", [
    ([["-1e12+5e11*sin(t)", "1e12*cos(t)"], ["1e11*sin(2*t)", "-2e12"]], "UES"),
    ([["-30", "1e20*cos(t)"], ["1e-20*sin(t)", "-31"]], "inconclusive"),
], ids=["coefficients-1e12", "scaled-1e20"])
def test_drift_quadrature_of_large_coefficients_ends_at_float_noise(tmp_path, run_limited, entries, verdict):
    # mu values of 1e12 and 1e20 carry rounding noise far above the quadrature budget:
    # refinement ends where a panel's correction is that noise, instead of splitting every
    # panel at every level until memory runs out
    path = write_system(tmp_path, {"entries": entries, "period": 2.0 * math.pi})
    proc = run_limited(["-m", "lpstab.cli", "analyze", "-f", path, "--norm", "one,two,inf", "--no-oracle", "--json"])
    assert (proc.returncode, proc.stderr) == (0, "")
    analyses = json.loads(proc.stdout)["analyses"]
    assert [entry["classification"] for entry in analyses] == [verdict] * 3
    if verdict == "UES":
        assert all(entry["K"] == math.inf for entry in analyses)
    else:
        # lambda+ in the one-norm is (1/T) * 4e20 = 2e20/pi, within its reported error
        rates = analyses[0]["rates"]
        assert abs(rates["lambda_plus"] - 2e20 / math.pi) <= rates["quadrature_error"] / (2.0 * math.pi)


@pytest.mark.parametrize("entry,period,exact", [
    ("-800", 1.0, -800.0),
    ("2 - 3000*sin(t)^200", 2.0 * math.pi, 2.0 - 3000.0 * math.comb(200, 100) / 2.0 ** 200),
], ids=["constant", "peaked"])
def test_one_by_one_monodromy_below_the_smallest_float_is_resolved(tmp_path, entry, period, exact):
    # a 1 x 1 monodromy of exp(-800) or exp(-1050) is below the smallest float, but its
    # period segments are not: the product carries its power of two, and the segments,
    # each accepted relative to its own largest entry, give the exact exponent and pass
    # every cross-check.  A subprocess, so numpy's warnings reach stderr
    path = write_system(tmp_path, {"entries": [[entry]], "period": period})
    proc = subprocess.run(console_argv("analyze", "-f", path, "--json"), capture_output=True, text=True,
                          timeout=60, env=console_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    oracle = json.loads(proc.stdout)["analyses"][0]["oracle"]
    assert oracle["fce_real_parts"] == [pytest.approx(exact, abs=1e-8)]
    assert oracle["strip_check"]["passed"] and oracle["sandwich_passed"] and oracle["decay"]["passed"]


@pytest.mark.parametrize("rate", ["300", "400"])
def test_one_by_one_cross_checks_agree_in_every_norm(tmp_path, rate):
    # every norm of a 1 x 1 system is |x|, so each norm reads the same oracle figures,
    # although exp(-rate t) passes the smallest float within the decay check's 3
    # periods: the oracle's products carry their powers of two.  Each passes, as the
    # forward segments are accepted relative to their own size.  A subprocess, so numpy's
    # warnings reach stderr
    path = write_system(tmp_path, {"entries": [[f"-{rate}"]], "period": 1})
    proc = subprocess.run(console_argv("analyze", "-f", path, "--norm", "one,two,inf", "--json"),
                          capture_output=True, text=True, timeout=60, env=console_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    oracles = [entry["oracle"] for entry in json.loads(proc.stdout)["analyses"]]
    assert len(oracles) == 3 and all(oracle == oracles[0] for oracle in oracles)
    assert oracles[0]["fce_real_parts"] == [pytest.approx(-float(rate), abs=1e-8)]
    assert oracles[0]["strip_check"]["passed"] and oracles[0]["sandwich_passed"] and oracles[0]["decay"]["passed"]


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
    # finite entries whose norms stay finite in the frozen-time route, but whose one-norm
    # Simpson sums and two-norm symmetric part overflow in the drift route, and whose
    # A(t0) + A(t0)^T, the Lyapunov operator at H = I, overflows before the weight's sign iteration
    path = write_system(tmp_path, {"entries": [["1e308*cos(t)", "1e308"], ["1e308", "1e308*sin(t)"]],
                                   "period": 2.0 * math.pi})
    proc = run_limited(["-m", "lpstab.cli", "analyze", "-f", path, "--norm", norm, "--no-oracle"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "numeric failure: " + {
        "one": "integrand or its Simpson estimate is not finite from t=0",
        "two": "symmetric part overflowed to a non-finite value",
        "weighted": "Lyapunov system overflowed to a non-finite value"}[norm] + "\n"


def test_non_finite_simpson_estimate_is_a_numeric_failure(tmp_path):
    # 1e308 on the diagonal is finite, but the one-norm mu of A(t), 1e308 + 1e308 |cos t|,
    # is not: the drift quadrature stops at its first panel, in process
    path = write_system(tmp_path, {"entries": [["1e308", "0"], ["1e308*cos(t)", "-1"]], "period": 2.0 * math.pi})
    code, out, err = run_cli("analyze", "-f", path, "--norm", "one", "--no-oracle")
    assert (code, out) == (2, "")
    assert err == "numeric failure: integrand or its Simpson estimate is not finite from t=0\n"


def test_perturb_validation():
    code, _, _ = run_cli("perturb", "-s", "lti_diag", "--samples", "8")
    assert code == 1
    code, _, err = run_cli("perturb", "-s", "lti_diag", "--d", "1")
    assert code == 1
    assert "--d" in err
    code, _, err = run_cli("perturb", "-s", "lti_diag", "--x0", "1,2,3")
    assert code == 1


def test_oracle_integrates_each_grid_once(monkeypatch):
    # transitions do not depend on the norm, so three norms share the one-period stacks
    # (15 segments each way) that the monodromy and both the sandwich and decay grids
    # read; no whole-period transition is integrated
    calls = []
    integrate = transition.integrate_transitions
    monkeypatch.setattr(transition, "integrate_transitions",
                        lambda sys, a, b, tol=None: calls.append((tuple(a), tuple(b))) or integrate(sys, a, b, tol))
    code, out, err = run_cli("analyze", "-s", "example2", "--norm", "one,two,inf", "--json")
    assert code == 0, err
    assert [e["classification"] for e in json.loads(out)["analyses"]] == ["UES"] * 3
    assert sorted(len(a) for a, _ in calls) == [15, 15]
    assert len(set(calls)) == 2


def test_perturb_plans_each_expression_list_once(monkeypatch):
    # the system's entries, the disturbance vector and each disturbance entry for the
    # drift quadrature: four plans, however many times each is evaluated
    from lpstab import expr, perturb
    built = []
    make = expr.plan
    counted = lambda exprs: built.append(tuple(exprs)) or make(exprs)  # noqa: E731
    for module in (expr, periodic, perturb):
        monkeypatch.setattr(module, "plan", counted)
    code, out, err = run_cli("perturb", "-s", "example2", "--d", "exp(-t);sin(3*t)", "--t-end", "6", "--json")
    assert (code, err) == (0, "")
    assert len(built) == 4 and len(set(built)) == 4


def test_weighted_transform_is_checked_once(monkeypatch):
    # the kind checks its transform when it is built; no mu or norm call checks it again
    calls = []
    check = linalg.check_nonsingular
    monkeypatch.setattr(linalg, "check_nonsingular", lambda *args: calls.append(args) or check(*args))
    code, out, err = run_cli("analyze", "-s", "example2", "--norm", "one,two,weighted", "--json")
    assert (code, err) == (0, "")
    assert len(calls) == 1


@pytest.mark.parametrize("check,fake,line", [
    ("verify_sandwich", lambda sys, kind, forward, backward: 1.0, "transition bound violated by 1.000e+00"),
    ("verify_decay", lambda sys, verdict, period: floquet.DecayCheck(False, -0.5, 1e-6, 1035, 360),
     "decay envelope violated by 5.000e-01"),
    ("verify_strip", lambda rates, fce: floquet.StripCheck(False, 0.25, 1e-6),
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
