"""Expression language tests.

parse() is a binding-power loop over one operator table.  Its reference is
_RefParser below, the recursive-descent parser lpstab used before, with one
method per grammar rule, and _ref_to_string, the serializer that went with
it: on generated token strings the two must give the same trees, the same
serialized strings and the same ParseError messages and offsets.

evaluate() walks the tree over numpy arrays.  Its independent reference is
_math_evaluate below, a scalar walker on the math module (the evaluator lpstab
used before): the two must raise at the same inputs and agree within a
relative 1e-12 elsewhere (numpy's ufuncs and libm differ in the last bits).
Within evaluate() itself, an array call must equal per-time float calls
bit for bit, including which times raise.
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
    _tokenize,
    _NODES,
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


@pytest.mark.parametrize("text,offset", [
    ("-1+sin(t)^\u00b2", 10), ("\u00bd*t", 0), ("\u0661", 0), ("2*\u00e9", 2), ("1\u00b2", 1),
], ids=["superscript", "fraction", "arabic-indic", "letter", "after-digit"])
def test_non_ascii_digits_and_letters_rejected(text, offset):
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse(text)
    assert info.value.position == offset


def _ref_tokenize(text):
    # the character-by-character scanner lpstab used before the regular
    # expression, kept as the reference for ASCII input and Unicode whitespace
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            toks.append(("num", float(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^":
            toks.append(("op", ch, i))
            i += 1
            continue
        if ch == "(":
            toks.append(("lp", ch, i))
            i += 1
            continue
        if ch == ")":
            toks.append(("rp", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


def _scan(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


def test_tokenize_matches_reference_scanner():
    pieces = ["0", "1", "25", ".", "..", "3.", ".5", "e", "E", "e+", "e-", "1e3", "2E-4",
              "+", "-", "*", "/", "^", "(", ")", "t", "pi", "sin", "ln", "abs", "x", "_",
              "#", "$", " ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c"]
    rng = random.Random(20261018)
    for _ in range(4000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 12)))
        assert _scan(_tokenize, text) == _scan(_ref_tokenize, text), text


class _RefParser:
    # the recursive-descent parser lpstab used before the binding-power loop
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "name":
            if val == "t":
                return TimeVar()
            if val in ("pi", "e"):
                return Const(val)
            if val in ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs"):
                k, _, p = self.advance()
                if k != "lp":
                    raise ParseError(f"{val} needs a parenthesized argument", p)
                arg = self.expr()
                k, _, p = self.advance()
                if k != "rp":
                    raise ParseError("missing ')'", p)
                return Call(val, arg)
            raise ParseError(f"unknown name {val!r}", pos)
        if kind == "lp":
            node = self.expr()
            k, _, p = self.advance()
            if k != "rp":
                raise ParseError("missing ')'", p)
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"expected a value, got {val!r}", pos)


def _ref_parse(text):
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _RefParser(_ref_tokenize(text))
    node = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return node


_REF_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _ref_prec(node):
    if isinstance(node, BinOp):
        return _REF_PREC[node.op]
    if isinstance(node, Neg):
        return 3
    return 9


def _ref_to_string(expr):
    # the serializer that went with _RefParser, with its own precedence table
    if isinstance(expr, Num):
        v = expr.value
        return str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
    if isinstance(expr, TimeVar):
        return "t"
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({_ref_to_string(expr.arg)})"
    if isinstance(expr, Neg):
        inner = _ref_to_string(expr.operand)
        return f"-({inner})" if _ref_prec(expr.operand) < 3 else f"-{inner}"
    p = _REF_PREC[expr.op]
    left, right = _ref_to_string(expr.left), _ref_to_string(expr.right)
    if expr.op == "^":
        # base slot is atom-only; exponent slot accepts any factor
        left_paren, right_paren = _ref_prec(expr.left) < 9, _ref_prec(expr.right) < 3
    else:
        left_paren, right_paren = _ref_prec(expr.left) < p, _ref_prec(expr.right) <= p
    left = f"({left})" if left_paren else left
    right = f"({right})" if right_paren else right
    return f"{left}{expr.op}{right}"


def _serialized(serializer, tree):
    # a number literal past the float range reads as inf, which neither serializer takes
    try:
        return serializer(tree)
    except OverflowError as exc:
        return repr(exc)


def _parsed(parser, text):
    try:
        tree = parser(text)
    except ParseError as exc:
        return str(exc), exc.position
    return repr(tree), _serialized(to_string, tree), _serialized(_ref_to_string, tree)


_PIECES = ["1", "2.5", "0", "3e2", ".5", "t", "pi", "e", "+", "-", "*", "/", "^", "(", ")",
           "sin", "exp", "ln", "abs", "x", "#", ""]


def _random_pieces(rng, depth):
    # the pieces of a well-formed expression, written without added parentheses
    kind = rng.randrange(6) if depth else 0
    if kind == 0:
        return [rng.choice(_PIECES[:8])]
    if kind == 1:
        return ["-"] + _random_pieces(rng, depth - 1)
    if kind == 2:
        return [rng.choice(["sin", "exp", "ln", "abs"]), "("] + _random_pieces(rng, depth - 1) + [")"]
    if kind == 3:
        return ["("] + _random_pieces(rng, depth - 1) + [")"]
    return _random_pieces(rng, depth - 1) + [rng.choice("+-*/^")] + _random_pieces(rng, depth - 1)


def test_parse_matches_reference_parser():
    # well-formed token strings, half of them then broken by a few random edits, so that
    # errors come at every kind of position; repr compares node types as well as values
    rng = random.Random(20261019)
    parsed = failed = 0
    for _ in range(4000):
        pieces = _random_pieces(rng, rng.randrange(1, 6))
        for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
            i = rng.randrange(len(pieces) + 1)
            pieces[i:i + rng.randrange(2)] = [rng.choice(_PIECES)]
        text = "".join(piece + rng.choice(["", "", " "]) for piece in pieces)
        got = _parsed(parse, text)
        assert got == _parsed(_ref_parse, text), text
        if len(got) == 3:
            parsed += 1
            assert got[1] == got[2], text
            if not got[1].startswith("OverflowError"):
                assert parse(got[1]) == parse(text), text
        else:
            failed += 1
    assert parsed > 1000 and failed > 1000


@pytest.mark.parametrize("node", [Num(2.5), TimeVar(), Const("pi"), Neg(TimeVar()),
                                  BinOp("*", Num(2.0), TimeVar()), Call("cos", TimeVar())],
                         ids=["Num", "TimeVar", "Const", "Neg", "BinOp", "Call"])
def test_each_node_alone_is_one_expression(node):
    # nodes are named tuples, so a node is told from a sequence of nodes by its type
    assert type(evaluate(node, 0.5)) is float
    t = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    assert evaluate(node, t).shape == (2, 3)
    assert evaluate([node, node], t).shape == (2, 3, 2)


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


def _math_evaluate(expr, t):
    # the scalar math-module walker lpstab used before the numpy one, kept as
    # an independent reference; it checks only the final value for finiteness
    v = _math_eval(expr, float(t))
    if not math.isfinite(v):
        raise EvalError("non-finite result", expr, t)
    return v


def _math_eval(node, t):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Const):
        return {"pi": math.pi, "e": math.e}[node.name]
    if isinstance(node, Neg):
        return -_math_eval(node.operand, t)
    if isinstance(node, BinOp):
        a = _math_eval(node.left, t)
        b = _math_eval(node.right, t)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise EvalError("division by zero", node, t)
            return a / b
        if a < 0.0 and b != math.floor(b):
            raise EvalError("fractional power of a negative base", node, t)
        if a == 0.0 and b < 0.0:
            raise EvalError("zero raised to a negative power", node, t)
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"power failed: {exc}", node, t) from exc
    x = _math_eval(node.arg, t)
    f = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
         "ln": math.log, "sqrt": math.sqrt, "abs": abs}[node.func]
    try:
        return f(x)
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"{node.func} domain violation: {exc}", node, t) from exc


def test_random_trees_match_math_reference():
    # relative 1e-12: numpy's sin/cos/exp may differ from libm in the last
    # bit, and a few such differences compound through a depth-4 tree
    rng = random.Random(20260814)
    for _ in range(100):
        tree = _random_tree(rng, rng.randrange(1, 5))
        back = parse(to_string(tree))
        for t in (-2.0, -0.3, 0.0, 0.7, 3.1):
            try:
                ref = _math_evaluate(tree, t)
            except EvalError:
                with pytest.raises(EvalError):
                    evaluate(tree, t)
                continue
            got = evaluate(tree, t)
            assert type(got) is float
            assert evaluate(back, t) == got
            assert abs(got - ref) <= 1e-12 * abs(ref)


def test_domain_cases_match_math_reference():
    for text, t in [("1/t", 0.0), ("ln(t)", -1.0), ("ln(t)", 0.0), ("sqrt(t)", -4.0),
                    ("exp(exp(t))", 10.0), ("t^0.5", -1.0), ("t^(0-1)", 0.0),
                    ("exp(700)*exp(t)", 700.0), ("(t-2)^(1/3)", 1.0),
                    ("tan(t)", 1.0), ("ln(t)", 3.0), ("t^(1/3)", 2.0)]:
        try:
            ref = _math_evaluate(parse(text), t)
        except EvalError:
            with pytest.raises(EvalError):
                evaluate(parse(text), t)
        else:
            assert abs(evaluate(parse(text), t) - ref) <= 1e-12 * abs(ref)


def test_array_call_matches_per_time_calls():
    # the random trees, every one evaluated at every time in one call
    rng = random.Random(20260814)
    trees = [parse(to_string(_random_tree(rng, rng.randrange(1, 5)))) for _ in range(100)]
    ts = np.array([-2.0, -0.3, 0.0, 0.7, 3.1])
    out = evaluate(trees, ts)
    assert out.shape == (5, 100)
    ref = np.array([[evaluate(tree, float(t)) for tree in trees] for t in ts])
    assert out.tobytes() == ref.tobytes()
    assert evaluate(trees, 0.7).tobytes() == ref[3].tobytes()
    assert evaluate(tuple(trees[:2]), ts[:, None]).shape == (5, 1, 2)
    assert evaluate(trees[3], ts.reshape(1, 5)).tobytes() == ref[:, 3].tobytes()
    assert type(evaluate(trees[3], 0.7)) is float and evaluate(trees[3], 0.7) == ref[3, 3]


@pytest.mark.parametrize("text, t", [("t^-1", -6.4963873904055935), ("t^2", -6.0586392356230325)],
                         ids=["inverse", "square"])
def test_power_float_call_matches_array_call(text, t):
    # numpy's scalar power and its scalar-exponent fast paths round these
    # differently from the array loop; a float call must not take them
    e = parse(text)
    ts = np.linspace(t - 1.0, t + 1.0, 4097)
    ts[1234] = t
    assert evaluate(e, t) == evaluate(e, ts)[1234]
    assert evaluate([e, e], t).tobytes() == evaluate([e, e], ts)[1234].tobytes()


def test_array_call_names_first_failing_time():
    exprs = [parse("1/(t - 1)"), parse("ln(t)"), parse("exp(700)*exp(t)")]
    assert evaluate(exprs, np.array([2.0, 3.0])).shape == (2, 3)
    # ln fails at -1 before the division by zero at 1 and the overflow at 700
    for ts in ([2.0, -1.0, 1.0, 700.0], [[2.0, -1.0], [1.0, 700.0]]):
        with pytest.raises(EvalError) as info:
            evaluate(exprs, np.array(ts))
        assert info.value.t == -1.0
    with pytest.raises(EvalError, match="non-finite") as info:
        evaluate(exprs, np.array([2.0, 700.0, 1.0]))
    assert info.value.t == 700.0
    with pytest.raises(EvalError) as info:
        evaluate(exprs, np.array([1.0]))
    assert info.value.t == 1.0


def test_array_and_float_calls_raise_alike():
    for text, t in [("1/t", 0.0), ("ln(t)", -1.0), ("sqrt(t)", -4.0),
                    ("exp(exp(t))", 10.0), ("t^0.5", -1.0)]:
        e = parse(text)
        with pytest.raises(EvalError) as one:
            evaluate(e, t)
        with pytest.raises(EvalError) as arr:
            evaluate(e, np.array([[2.0, 3.0], [t, 2.0]]))
        assert str(arr.value) == str(one.value) and arr.value.t == one.value.t == t
        assert arr.value.node == one.value.node


@pytest.mark.parametrize("text, t, why, node", [
    ("exp(-1/t)", 0.0, "division by zero", "-1/t"),
    ("1/exp(exp(t))", 10.0, "exp overflowed", "exp(exp(t))"),
    ("1/(t*t)", 1e200, "'\\*' overflowed", "t*t"),
    ("1^ln(t)", -1.0, "ln domain violation", "ln(t)"),
], ids=["exp-of-division", "division-by-exp", "division-by-product", "power-of-log"])
def test_intermediate_non_finite_raises(text, t, why, node):
    # plain numpy hides each failure (exp(-inf) = 0, 1/inf = 0, 1^nan = 1),
    # so the results alone are finite
    for call in (t, np.array([1.0, t])):
        with pytest.raises(EvalError, match=why) as info:
            evaluate(parse(text), call)
        assert info.value.t == t and to_string(info.value.node) == node


def test_non_finite_leaves_raise():
    # a time or a literal that is not finite counts as a non-finite intermediate
    with pytest.raises(EvalError, match="non-finite") as info:
        evaluate(parse("exp(-t)"), np.array([1.0, np.inf]))
    assert info.value.t == np.inf and info.value.node == TimeVar()
    with pytest.raises(EvalError) as info:
        evaluate(parse("1/1e999 + t"), 0.5)
    assert info.value.node == Num(math.inf)


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
    # t found at any depth under every node type, and no node without it reports it
    leaves = [Num(2.0), Const("pi"), Const("e")]
    wraps = [Neg, lambda x: Call("exp", x)] + [
        (lambda op: lambda x: BinOp(op, x, Num(1.0)))(op) for op in "+-*/^"] + [
        (lambda op: lambda x: BinOp(op, Const("e"), x))(op) for op in "+-*/^"]
    assert {type(wrap(Num(1.0))) for wrap in wraps} == set(_NODES) - {Num, TimeVar, Const}
    rng = random.Random(7)
    for _ in range(200):
        path = [rng.choice(wraps) for _ in range(rng.randrange(1, 6))]
        with_t, without_t = TimeVar(), rng.choice(leaves)
        for wrap in path:
            with_t, without_t = wrap(with_t), wrap(without_t)
        assert contains_time(with_t) and not contains_time(without_t)
