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

evaluate() is the one evaluator.  It walks the tree once per call, and each
node is one numpy operation over the whole array of times; a list of
expressions gives one column per expression, which is how a system matrix
or a disturbance vector is read.  Values follow numpy's ufuncs, which can
differ from the math module in the last bit.  A float t is evaluated as a
length-1 array and unwrapped to a float, never as a numpy scalar: numpy's
scalar power takes other code paths than its array loop and differs from
it in the last bit on some inputs (e.g. t^-1 at t = -6.4963873904055935),
while element i of an array call equals the call at its time i alone.
Leaves are arrays of the full length, not broadcast scalars, for the same
reason: np.power with a scalar exponent of 2 squares instead of calling pow.

Every intermediate value must be finite at every time: division by zero,
ln or sqrt outside their domain, 0 to a negative power, a negative base
with a fractional exponent and overflow all raise EvalError, even where a
later operation would have hidden them (exp(-1/t) at t = 0).  No nan, inf
or floating-point warning leaves evaluate().
"""

import re
from typing import NamedTuple, Union

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


# Tree nodes are named tuples: immutable, hashable, compared by value and cheap to build
# at import.  evaluate tells a node from a sequence of nodes by its type.  Child nodes
# are annotated tuple, which every node is; a string annotation such as "Expression"
# would be compiled each time its class is built.
class Num(NamedTuple):
    value: float


class TimeVar(NamedTuple):
    pass


class Const(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: tuple


class BinOp(NamedTuple):
    op: str
    left: tuple
    right: tuple


class Call(NamedTuple):
    func: str
    arg: tuple


Expression = Union[Num, TimeVar, Const, Neg, BinOp, Call]
_NODES = (Num, TimeVar, Const, Neg, BinOp, Call)

CONSTANTS = {"pi": np.pi, "e": np.e}
_UNARY = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
          "ln": np.log, "sqrt": np.sqrt, "abs": np.abs}


# ---------------------------------------------------------------- tokenizer

# One alternative per token kind, after any (Unicode) whitespace.  Digits and
# names are ASCII; a number's exponent part counts only when digits follow
# it, so '2*e' still reads the constant e.  'bad' takes any other character.
_TOKEN = re.compile(r"""\s*(?:
      (?P<num> (?:[0-9]+(?:\.[0-9]*)? | \.[0-9]+) (?:[eE][-+]?[0-9]+)? )
    | (?P<name> [A-Za-z]+ ) | (?P<op> [-+*/^] ) | (?P<lp> \( ) | (?P<rp> \) )
    | (?P<end> \Z ) | (?P<bad> . ))""", re.VERBOSE)


def _tokenize(text):
    toks, pos = [], 0
    while True:
        m = _TOKEN.match(text, pos)
        kind, value, pos = m.lastgroup, m[m.lastgroup], m.end()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", m.start(kind))
        toks.append((kind, float(value) if kind == "num" else value, m.start(kind)))
        if kind == "end":
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
            if val in _UNARY:
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

_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def evaluate(expr, t):
    """Values of one expression, or of a sequence of k expressions, at time t.

    A float t gives a float, or an array of shape (k,) for a sequence; an
    array of times gives an array of t's shape, or of t.shape + (k,).  Raises
    EvalError when any intermediate value of any expression is not finite at
    some time; it names the first such time in row-major order of t, and the
    node and reason found by walking the trees again at that time alone.
    """
    many = not isinstance(expr, _NODES)  # nodes are tuples too
    exprs = tuple(expr) if many else (expr,)
    array = isinstance(t, np.ndarray)
    ts = np.ascontiguousarray(t, dtype=float).ravel() if array else np.array([float(t)])
    out = np.empty(ts.shape + (len(exprs),))
    hidden = []
    with np.errstate(all="ignore"):
        for j, e in enumerate(exprs):
            out[:, j] = _walk(e, ts, hidden)
        # one pass over everything first: a per-time reduction costs as much as the walk
        if not (np.isfinite(out).all() and all(np.isfinite(v).all() for v in hidden)):
            ok = np.isfinite(out).all(axis=-1)
            for v in hidden:
                ok &= np.isfinite(v)
            i = int(ok.argmin())
            for e in exprs:
                _walk(e, ts[i:i + 1], [], float(ts[i]))
            raise EvalError("non-finite value", None, float(ts[i]))
    if array:
        out = out.reshape(t.shape + (len(exprs),))
        return out if many else out[..., 0]
    return out[0] if many else float(out[0, 0])


def _walk(node, t, hidden, at=None):
    # node's values at the 1-d array of times t, one numpy operation per node.
    # A non-finite operand gives a non-finite value through every operation
    # but exp, '/' and '^' (exp(-inf) = 0, 1/inf = 0, 1^nan = 1), so their
    # operands go to hidden for the caller to check with the final values.
    # With the time `at` given, the first node whose value is not finite raises.
    args = ()
    if isinstance(node, BinOp):
        args = (_walk(node.left, t, hidden, at), _walk(node.right, t, hidden, at))
        v = _BINARY[node.op](*args)
        if node.op in "/^":
            hidden += args
    elif isinstance(node, Num):
        v = np.empty(t.shape)  # np.full costs twice as much on short arrays
        v.fill(node.value)
    elif isinstance(node, TimeVar):
        v = t
    elif isinstance(node, Call):
        args = (_walk(node.arg, t, hidden, at),)
        v = _UNARY[node.func](*args)
        if node.func == "exp":
            hidden += args
    elif isinstance(node, Neg):
        v = np.negative(_walk(node.operand, t, hidden, at))
    elif isinstance(node, Const):
        v = np.empty(t.shape)
        v.fill(CONSTANTS[node.name])
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if at is not None and not np.isfinite(v).all():
        raise EvalError(_why(node, args), node, at)
    return v


def _why(node, args):
    # why node is not finite at one time, its operands (length-1 arrays) being finite
    if isinstance(node, BinOp):
        a, b = float(args[0][0]), float(args[1][0])
        if node.op == "/" and b == 0.0:
            return "division by zero"
        if node.op == "^" and a == 0.0 and b < 0.0:
            return "zero raised to a negative power"
        if node.op == "^" and a < 0.0 and not b.is_integer():
            return "fractional power of a negative base"
        return f"'{node.op}' overflowed to a non-finite value"
    if isinstance(node, Call):
        if node.func in ("ln", "sqrt"):
            return f"{node.func} domain violation: argument {float(args[0][0])!r}"
        return f"{node.func} overflowed to a non-finite value"
    return "non-finite value"


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
