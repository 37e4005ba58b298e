"""Expression language for time-dependent matrix entries.

Grammar (no implicit multiplication):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          right associative
    atom   := NUMBER | 't' | 'pi' | 'e' | FUNC '(' expr ')' | '(' expr ')'

so '^' binds tighter than unary minus, which binds tighter than '*' and '/',
which bind tighter than '+' and '-'.  '+', '-', '*', '/' associate left.
FUNC is one of sin, cos, tan, exp, ln, sqrt, abs; the only variable is t.
The parser is a binding-power (Pratt) loop rather than one function per
rule: the operator table _BINARY gives each binary operator its binding
power (1 for '+' '-', 2 for '*' '/', 4 for '^'; unary minus is 3) and its
ufunc, and parse, to_string and evaluate all read it.

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

import math
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

# The one operator table: each binary operator's binding power and ufunc, read by parse,
# to_string and evaluate.  Unary minus binds at _NEG, between '*' and '^'; every node
# that is not a BinOp or a Neg is an atom and binds at _ATOM, tighter than any operator.
_BINARY = {"+": (1, np.add), "-": (1, np.subtract), "*": (2, np.multiply), "/": (2, np.divide),
           "^": (4, np.power)}
_NEG, _ATOM = 3, 5


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


def _parse(toks, i, floor):
    # the expression at toks[i] whose binary operators bind tighter than floor, and the
    # index of the token after it.  A '-' where an operand starts is unary minus, whose
    # operand takes only '^'; a binary operator's right operand takes those that bind
    # tighter than it, or as tight for the right associative '^'.  So the base of '^'
    # is always an atom: anything else read before a '^' has already taken it.
    kind, val, _ = toks[i]
    if kind == "op" and val == "-":
        operand, i = _parse(toks, i + 1, _NEG)
        node = Neg(operand)
    else:
        node, i = _atom(toks, i)
    while True:
        kind, op, _ = toks[i]
        if kind != "op" or _BINARY[op][0] <= floor:
            return node, i
        right, i = _parse(toks, i + 1, _BINARY[op][0] - (op == "^"))
        node = BinOp(op, node, right)


def _atom(toks, i):
    kind, val, pos = toks[i]
    if kind == "num":
        return Num(val), i + 1
    if kind == "name":
        if val == "t":
            return TimeVar(), i + 1
        if val in CONSTANTS:
            return Const(val), i + 1
        if val in _UNARY:
            if toks[i + 1][0] != "lp":
                raise ParseError(f"{val} needs a parenthesized argument", toks[i + 1][2])
            arg, i = _group(toks, i + 2)
            return Call(val, arg), i
        raise ParseError(f"unknown name {val!r}", pos)
    if kind == "lp":
        return _group(toks, i + 1)
    if kind == "end":
        raise ParseError("unexpected end of input", pos)
    raise ParseError(f"expected a value, got {val!r}", pos)


def _group(toks, i):
    # a whole expression at toks[i] and the ')' that closes it
    node, i = _parse(toks, i, 0)
    kind, _, pos = toks[i]
    if kind != "rp":
        raise ParseError("missing ')'", pos)
    return node, i + 1


def parse(text: str) -> Expression:
    """Parse source text into an expression tree."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", 0)
    toks = _tokenize(text)
    node, i = _parse(toks, 0, 0)
    kind, val, pos = toks[i]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return node


# ---------------------------------------------------------------- evaluation

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
        v = _BINARY[node.op][1](*args)
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

def _bp(node):
    if isinstance(node, BinOp):
        return _BINARY[node.op][0]
    return _NEG if isinstance(node, Neg) else _ATOM


def _bracket(node, least):
    # node's text, in parentheses unless it binds at least as tight as least
    text = to_string(node)
    return text if _bp(node) >= least else f"({text})"


def to_string(expr: Expression) -> str:
    """Serialize with minimal parentheses; parse(to_string(e)) == e.

    Round-trip identity holds for every tree the parser can produce.  The
    grammar has no negative literals (unary minus is a Neg node), so a
    hand-built Num with a negative value comes back as Neg of its absolute
    value instead.
    """
    if isinstance(expr, Num):
        v = expr.value
        if math.isinf(v):  # a literal past the float range reads as inf
            return "-1e999" if v < 0 else "1e999"
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
        return f"-{_bracket(expr.operand, _NEG)}"
    if isinstance(expr, BinOp):
        p = _BINARY[expr.op][0]
        # the base of '^' is an atom and its exponent starts an operand, as unary minus's
        # does; a left associative operator's right operand must bind tighter than it
        least = (_ATOM, _NEG) if expr.op == "^" else (p, p + 1)
        return f"{_bracket(expr.left, least[0])}{expr.op}{_bracket(expr.right, least[1])}"
    raise TypeError(f"not an expression node: {expr!r}")


def contains_time(expr: Expression) -> bool:
    """True when the tree references the variable t."""
    return isinstance(expr, TimeVar) or any(isinstance(c, _NODES) and contains_time(c) for c in expr)
