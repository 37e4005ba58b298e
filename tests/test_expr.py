"""Expression language tests.

The reference semantics is the tree-walking evaluate(); compile_expr() is a
performance twin and must agree bit-for-bit wherever both are defined,
including which inputs raise.
"""

import math
import random

import numpy as np
import pytest

from lpstab.expr import (
    BinOp,
    Call,
    Const,
    EvalError,
    Neg,
    Num,
    ParseError,
    TimeVar,
    compile_expr,
    compile_exprs,
    contains_time,
    evaluate,
    parse,
    to_string,
)


def test_numbers_and_constants():
    assert evaluate(parse("3"), 0.0) == 3.0
    assert evaluate(parse("2.5e-1"), 0.0) == 0.25
    assert evaluate(parse("pi"), 0.0) == math.pi
    assert evaluate(parse("e"), 0.0) == math.e
    assert evaluate(parse("t"), 1.75) == 1.75


def test_precedence():
    assert evaluate(parse("2 + 3 * 4"), 0.0) == 14.0
    assert evaluate(parse("(2 + 3) * 4"), 0.0) == 20.0
    assert evaluate(parse("2 - 3 - 4"), 0.0) == -5.0
    assert evaluate(parse("12 / 3 / 2"), 0.0) == 2.0
    # power binds right and tighter than unary minus on the left
    assert evaluate(parse("2^3^2"), 0.0) == 512.0
    assert evaluate(parse("-2^2"), 0.0) == -4.0
    assert evaluate(parse("(-2)^2"), 0.0) == 4.0
    assert evaluate(parse("2*3^2"), 0.0) == 18.0


def test_functions():
    assert evaluate(parse("sin(pi/2)"), 0.0) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(parse("cos(0)"), 0.0) == 1.0
    assert evaluate(parse("exp(1)"), 0.0) == pytest.approx(math.e)
    assert evaluate(parse("ln(e)"), 0.0) == pytest.approx(1.0)
    assert evaluate(parse("sqrt(9)"), 0.0) == 3.0
    assert evaluate(parse("abs(-4.5)"), 0.0) == 4.5
    assert evaluate(parse("tan(pi/4)"), 0.0) == pytest.approx(1.0)


def test_time_dependent():
    f = parse("-5.5 + 7.5*sin(12*t)")
    for t in (0.0, 0.1, 1.3):
        assert evaluate(f, t) == pytest.approx(-5.5 + 7.5 * math.sin(12 * t), abs=1e-15)


@pytest.mark.parametrize("bad", [
    "", "2 +", "sin", "sin 3", "(2", "2)", "3..4", "x + 1", "foo(2)",
    "2 ** 3", "1 + * 2",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        evaluate(parse("1/0"), 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("ln(0 - 1)"), 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(0 - 1)"), 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("(0-2)^0.5"), 0.0)
    with pytest.raises(EvalError):
        evaluate(parse("1/t"), 0.0)
    # fine away from the singularity
    assert evaluate(parse("1/t"), 2.0) == 0.5


def test_overflow_raises_not_nan():
    with pytest.raises(EvalError):
        evaluate(parse("exp(exp(t))"), 10.0)


def _random_tree(rng, depth):
    if depth == 0:
        return rng.choice([
            Num(round(rng.uniform(-3.0, 3.0), 3)),
            TimeVar(),
            Const(rng.choice(["pi", "e"])),
        ])
    kind = rng.randrange(3)
    if kind == 0:
        return Neg(_random_tree(rng, depth - 1))
    if kind == 1:
        op = rng.choice(["+", "-", "*"])
        return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    fn = rng.choice(["sin", "cos", "exp", "abs"])  # total on the reals
    return Call(fn, _random_tree(rng, depth - 1))


def test_roundtrip_and_compiled_agreement():
    rng = random.Random(20260814)
    for _ in range(100):
        tree = _random_tree(rng, rng.randrange(1, 5))
        text = to_string(tree)
        back = parse(text)
        fn = compile_expr(back)
        for t in (-2.0, -0.3, 0.0, 0.7, 3.1):
            ref = evaluate(tree, t)
            assert evaluate(back, t) == ref
            assert fn(t) == ref


def test_compiled_array_call_matches_evaluate():
    # the same trees as above, every one evaluated at every time in one call
    rng = random.Random(20260814)
    trees = [parse(to_string(_random_tree(rng, rng.randrange(1, 5)))) for _ in range(100)]
    ts = np.array([-2.0, -0.3, 0.0, 0.7, 3.1])
    out = compile_exprs(trees)(ts)
    assert out.shape == (5, 100)
    ref = np.array([[evaluate(tree, float(t)) for tree in trees] for t in ts])
    assert out.tobytes() == ref.tobytes()
    one = compile_expr(trees[3])
    assert one(ts.reshape(1, 5)).tobytes() == ref[:, 3].tobytes()
    assert type(one(0.7)) is float and one(0.7) == ref[3, 3]


def test_array_call_names_first_failing_time():
    fn = compile_exprs([parse("1/(t - 1)"), parse("ln(t)"), parse("exp(700)*exp(t)")])
    assert fn(np.array([2.0, 3.0])).shape == (2, 3)
    # ln fails at -1 before the division by zero at 1 and the overflow at 700
    for ts in ([2.0, -1.0, 1.0, 700.0], [[2.0, -1.0], [1.0, 700.0]]):
        with pytest.raises(EvalError) as info:
            fn(np.array(ts))
        assert info.value.t == -1.0
    with pytest.raises(EvalError, match="non-finite") as info:
        fn(np.array([2.0, 700.0, 1.0]))
    assert info.value.t == 700.0
    with pytest.raises(EvalError) as info:
        fn(np.array([1.0]))
    assert info.value.t == 1.0


def test_compiled_raises_like_evaluate():
    for text, t in [("1/t", 0.0), ("ln(t)", -1.0), ("sqrt(t)", -4.0),
                    ("exp(exp(t))", 10.0), ("t^0.5", -1.0)]:
        fn = compile_expr(parse(text))
        with pytest.raises(EvalError):
            evaluate(parse(text), t)
        with pytest.raises(EvalError):
            fn(t)


def test_to_string_minimal_parens():
    for text in ["2 + 3*4", "(2 + 3)*4", "-(t + 1)", "2^(3^2)", "sin(2*t)^2"]:
        tree = parse(text)
        again = parse(to_string(tree))
        for t in (0.0, 0.4, 2.0):
            assert evaluate(tree, t) == evaluate(again, t)


def test_contains_time():
    assert contains_time(parse("sin(2*t)"))
    assert not contains_time(parse("sin(2*pi)"))
    assert not contains_time(parse("3 + e"))
