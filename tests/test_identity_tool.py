"""tools/identity.py: the documented-change mode, where JSON stdout is
compared key by key, with the floats under allowed key patterns free to
move within their bounds and everything else compared as before; the
seeded argument vectors of --generate; and the command line's options."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from lpstab import cli

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", _TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

ALLOW = {"analyses.*.oracle.sandwich_violation": 1e-12}
BASE = ('{"analyses": [{"oracle": {"sandwich_violation": -4.5e-10, "strip": 1.0}},'
        ' {"oracle": {"sandwich_violation": null}}]}')


def _run(ours: str, theirs: str, stderr=(b"", b"")):
    # differences of two runs with exit code 0 and no written files, and the moves seen
    moves = {pattern: [] for pattern in ALLOW}
    lines = identity.differences(["analyze"], (0, ours.encode(), stderr[0], {}),
                                 (0, theirs.encode(), stderr[1], {}), ALLOW, moves)
    return lines, moves


def test_allowed_float_moves_within_its_bound():
    ours = BASE.replace("-4.5e-10", "-4.5000000000001e-10").replace('": -', '":  -')  # spacing too
    lines, moves = _run(ours, BASE)
    assert lines == []
    assert moves == {"analyses.*.oracle.sandwich_violation": [abs(-4.5000000000001e-10 + 4.5e-10)]}


def test_everything_else_must_be_equal():
    cases = [
        (BASE.replace("-4.5e-10", "-4.6e-10"), "analyses.0.oracle.sandwich_violation: -4.5e-10 -> -4.6e-10"),
        (BASE.replace("1.0}", "1.0000000000000002}"), "analyses.0.oracle.strip: 1.0 -> 1.0000000000000002"),
        (BASE.replace("null", "0.0"), "analyses.1.oracle.sandwich_violation: None -> 0.0"),
    ]
    for ours, line in cases:
        lines, moves = _run(ours, BASE)
        assert lines == ["lpstab analyze", "  stdout:", "    " + line]
        assert moves == {"analyses.*.oracle.sandwich_violation": []}


def test_text_stdout_and_stderr_stay_byte_compared():
    assert identity.json_differences(b"verdict: UES\n", b"{}", ALLOW, {}) is None
    lines, _ = _run("verdict: UES \n", "verdict: UES\n")
    assert lines[:2] == ["lpstab analyze", "  stdout:"]
    lines, _ = _run(BASE, BASE, stderr=(b"warning\n", b""))
    assert lines[:2] == ["lpstab analyze", "  stderr:"]


def test_generated_vectors_are_seeded_and_well_formed():
    drawn = identity.generate(29, 40)
    assert drawn == identity.generate(29, 40) and drawn != identity.generate(30, 40)
    assert identity.generate(29, 12) == drawn[:12]
    assert {argv[0] for argv in drawn} == {"analyze", "series", "perturb"}
    for argv in drawn:
        assert argv[1] == "-s" and argv[2] in identity.CATALOG
        norms = argv[argv.index("--norm") + 1].split(",")
        assert len(set(norms)) == len(norms) and set(norms) <= set(identity.NORMS)
        assert len(norms) == 1 or argv[0] == "analyze"
    flags = {flag for argv in drawn for flag in argv if flag.startswith("--")}
    assert {"--param", "--json", "--no-oracle", "--trajectory", "--d", "--x0"} <= flags


def test_generated_vectors_parse_and_run_in_process():
    # a drawn vector may fail as a command (the weighted norm needs a Hurwitz A(t0)), but
    # never as a command line or with a numeric failure
    for argv in identity.generate(29, 12):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code
        assert code == 0 or err.getvalue().startswith("error: "), (argv, code, err.getvalue())


def test_options_follow_the_usage_line():
    assert identity.options(["HEAD"]) == ("HEAD", None, None)
    assert identity.options(["HEAD", "--generate", "29", "40", "--allow", "moves.json"]) == (
        "HEAD", "moves.json", (29, 40))
    for args in ([], ["--allow", "moves.json"], ["HEAD", "--generate", "29"], ["HEAD", "extra"],
                 ["HEAD", "--generate", "29", "-1"], ["HEAD", "--allow", "a", "--allow", "b"]):
        with pytest.raises(ValueError):
            identity.options(args)


def test_each_run_is_under_the_memory_cap(tmp_path, monkeypatch):
    # a run that would exhaust the machine's memory ends as "out of memory" instead
    monkeypatch.setattr(identity, "LAUNCHER", "import resource; print(resource.getrlimit(resource.RLIMIT_AS))")
    code, out, err, written = identity.run(identity.ROOT, [], tmp_path / "run")
    assert (code, out, err, written) == (0, f"({2 << 30}, {2 << 30})\n".encode(), b"", {})
