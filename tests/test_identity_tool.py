"""The documented-change mode of tools/identity.py: JSON stdout compared key
by key, with the floats under allowed key patterns free to move within
their bounds, and everything else compared as before."""

import importlib.util
from pathlib import Path

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
