"""Expression language for time-dependent matrix entries.

Grammar (recursive descent, no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          right associative
    atom   := NUMBER | 't' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'

so '^' binds tighter than unary minus, which binds tighter than '*' and '/',
which bind tighter than '+' and '-'.  '+', '-', '*', '/' associate left.
FUNC is one of sin, cos, tan, exp, ln, sqrt, abs; the only variable is t.

evaluate() is the reference tree-walking evaluator.  compile_exprs() builds
one Python callable for a whole list of expressions, taking a float or an
array of times, with identical semantics for hot loops; equivalence is
property-tested.  Domain violations (ln or sqrt outside their domain,
division by zero, 0 to a negative power, a negative base with a fractional
exponent, overflow to a non-finite value) raise EvalError, never return nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Union

import numpy as np

from .errors import InputError, NumericError


class ParseError(InputError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvalError(NumericError):
    def __init__(self, message, node=None, t=None):
        detail = message if t is None else f"{message} (at t={t!r})"
        super().__init__(detail)
        self.node = node
        self.t = t


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, TimeVar, Const, Neg, BinOp, Call]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------- tokenizer

def _tokenize(text):
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
            # exponent part only when followed by digits, so '2*e' still works
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


class _Parser:
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
            if val in CONSTANTS:
                return Const(val)
            if val in FUNCTIONS:
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


def parse(text: str) -> Expression:
    """Parse source text into an expression tree."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return node


# ---------------------------------------------------------------- evaluation

def evaluate(expr: Expression, t: float) -> float:
    """Reference evaluator, IEEE double precision."""
    v = _eval(expr, float(t))
    if not math.isfinite(v):
        raise EvalError("non-finite result", expr, t)
    return v


def _eval(node, t):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, t)
    if isinstance(node, BinOp):
        a = _eval(node.left, t)
        b = _eval(node.right, t)
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
        # op == "^"
        if a < 0.0 and b != math.floor(b):
            raise EvalError("fractional power of a negative base", node, t)
        if a == 0.0 and b < 0.0:
            raise EvalError("zero raised to a negative power", node, t)
        try:
            return math.pow(a, b)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"power failed: {exc}", node, t) from exc
    if isinstance(node, Call):
        x = _eval(node.arg, t)
        f = node.func
        try:
            if f == "sin":
                return math.sin(x)
            if f == "cos":
                return math.cos(x)
            if f == "tan":
                return math.tan(x)
            if f == "exp":
                return math.exp(x)
            if f == "ln":
                return math.log(x)
            if f == "sqrt":
                return math.sqrt(x)
            return abs(x)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{f} domain violation: {exc}", node, t) from exc
    raise TypeError(f"not an expression node: {node!r}")


# ----------------------------------------------------------------- compiler

_NAMESPACE = {
    "__builtins__": {},
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "pow": math.pow,
    "pi": math.pi,
    "e": math.e,
}


def _emit(node):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_emit(node.operand)})"
    if isinstance(node, BinOp):
        left, right = _emit(node.left), _emit(node.right)
        if node.op == "^":
            # pow() keeps error semantics; '**' would go complex on neg**frac
            return f"pow({left},{right})"
        return f"({left}{node.op}{right})"
    if isinstance(node, Call):
        name = "log" if node.func == "ln" else node.func
        return f"{name}({_emit(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


def compile_exprs(exprs):
    """One callable for expressions e1..ek: a float t gives the row (e1(t), ..., ek(t)),
    an array of times an array of shape t.shape + (k,).

    Each time goes in as a Python float through evaluate()'s math-module calls
    (numpy's exp and pow differ in the last bit on some inputs), so values and
    EvalError triggers match it exactly; an array's EvalError names its first
    failing time in row-major order, and carries no offending-node pointer.
    """
    k = len(exprs)
    raw = eval("lambda t: (" + "".join(_emit(e) + "," for e in exprs) + ")", dict(_NAMESPACE))

    def fn(t):
        if isinstance(t, np.ndarray):
            ts = t.astype(float).ravel().tolist()
            try:
                values = chain.from_iterable(map(raw, ts))  # no per-time tuples kept
                out = np.fromiter(values, float, len(ts) * k).reshape(t.shape + (k,))
                if np.isfinite(out).all():
                    return out
            except (ValueError, ZeroDivisionError, OverflowError):
                pass
            for s in ts:
                fn(s)  # raises at the first failing time
        try:
            vals = raw(t)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(str(exc), None, t) from exc
        if not all(map(math.isfinite, vals)):
            raise EvalError("non-finite result", None, t)
        return np.array(vals, dtype=float)

    return fn


def compile_expr(expr: Expression):
    """compile_exprs of one expression: float -> float, array -> array of its shape."""
    fn = compile_exprs((expr,))
    return lambda t: fn(t)[..., 0] if isinstance(t, np.ndarray) else float(fn(t)[0])


# ---------------------------------------------------------------- serializer

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 3
    return 9


def to_string(expr: Expression) -> str:
    """Serialize with minimal parentheses; parse(to_string(e)) == e.

    Round-trip identity holds for every tree the parser can produce.  The
    grammar has no negative literals (unary minus is a Neg node), so a
    hand-built Num with a negative value comes back as Neg of its absolute
    value instead.
    """
    if isinstance(expr, Num):
        v = expr.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(expr, TimeVar):
        return "t"
    if isinstance(expr, Const):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({to_string(expr.arg)})"
    if isinstance(expr, Neg):
        inner = to_string(expr.operand)
        if _prec(expr.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, BinOp):
        p = _PREC[expr.op]
        left, right = to_string(expr.left), to_string(expr.right)
        if expr.op == "^":
            # base slot is atom-only; exponent slot accepts any factor
            if _prec(expr.left) < 9:
                left = f"({left})"
            if _prec(expr.right) < 3:
                right = f"({right})"
        else:
            if _prec(expr.left) < p:
                left = f"({left})"
            if _prec(expr.right) <= p:
                right = f"({right})"
        return f"{left}{expr.op}{right}"
    raise TypeError(f"not an expression node: {expr!r}")


def contains_time(expr: Expression) -> bool:
    """True when the tree references the variable t."""
    if isinstance(expr, TimeVar):
        return True
    if isinstance(expr, Neg):
        return contains_time(expr.operand)
    if isinstance(expr, BinOp):
        return contains_time(expr.left) or contains_time(expr.right)
    if isinstance(expr, Call):
        return contains_time(expr.arg)
    return False
