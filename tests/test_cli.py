"""End-to-end command line checks, run in process for speed.

Exit code contract: 0 when analysis completed (whatever the verdict),
1 for bad input or usage, 2 for numerical failure.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

import lpstab
from lpstab import catalog, cli


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


def test_analyze_weighted_rejects_non_hurwitz_start():
    code, _, err = run_cli("analyze", "-s", "scalar_unstable", "--norm", "weighted")
    assert code == 1
    assert "not Hurwitz" in err


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
    code, out, err = run_cli("perturb", "-s", "scalar_unstable", "--t-end", "2600",
                             "--samples", "64", "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["overflowed"] is True
    assert doc["t_overflow"] == pytest.approx(math.log(1e300) / 0.3, rel=0.05)
    assert doc["tail_max_norm"] is None
    assert doc["convergence_claimed"] is False


def test_perturb_validation():
    code, _, _ = run_cli("perturb", "-s", "lti_diag", "--samples", "8")
    assert code == 1
    code, _, err = run_cli("perturb", "-s", "lti_diag", "--d", "1")
    assert code == 1
    assert "--d" in err
    code, _, err = run_cli("perturb", "-s", "lti_diag", "--x0", "1,2,3")
    assert code == 1


def test_output_is_deterministic():
    a = run_cli("analyze", "-s", "example2", "--norm", "one,two", "--json")
    b = run_cli("analyze", "-s", "example2", "--norm", "one,two", "--json")
    assert a == b
    c = run_cli("series", "-s", "rotating_frame", "--norm", "two", "--samples", "32")
    d = run_cli("series", "-s", "rotating_frame", "--norm", "two", "--samples", "32")
    assert c == d
