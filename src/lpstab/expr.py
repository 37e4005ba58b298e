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

evaluate() is the one evaluator.  It runs a plan that plan() builds once
for a list of expressions (a SystemDef plans its entries when it is made),
one column per expression, which is how a system matrix or a disturbance
vector is read.  Each step is one numpy operation over the whole array of
times, in the order a depth-first walk first reaches each subtree.  A call,
a power, the time, and + - * / or negation of such values are computed once
and read by every later use; literals are keyed by float.hex, as Num(0.0)
== Num(-0.0).  Literals joined by + - * / and negation are folded to one
float, which stays a float as the left operand of these, since IEEE rounds
them alike on floats and arrays; such a cheap step is repeated at each use
rather than held.  A value is dropped after its last use.  Values follow
numpy's ufuncs, which can differ from the math module in the last bit.  A
float t is evaluated as a length-1 array, never as a numpy scalar: numpy's
scalar power takes other code paths than its array loop and differs from it
in the last bit on some inputs (e.g. t^-1 at t = -6.4963873904055935), while
element i of an array call equals the call at its time i alone.  The
operands of a function or of '^' are arrays of the full length for the same
reason: np.power with a scalar exponent of 2 squares instead of calling pow.

Every intermediate value must be finite at every time: division by zero,
ln or sqrt outside their domain, 0 to a negative power, a negative base
with a fractional exponent and overflow all raise EvalError, even where a
later operation would have hidden them (exp(-1/t) at t = 0).  No nan, inf
or floating-point warning leaves evaluate().
"""

import itertools
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

# the ufuncs that IEEE rounds alike on floats and on arrays
_EXACT = (np.add, np.subtract, np.multiply, np.divide, np.negative)


class Plan(tuple):
    """(steps, slots, k): f, a, b, dest, columns, check and node of each step in turn (see
    _run), the number of value slots and the number of columns."""


def plan(exprs) -> Plan:
    """The steps evaluate runs for a sequence of expressions; see the module docstring."""
    held, ops, cols = {}, [], {}
    with np.errstate(all="ignore"):  # folding literals may overflow
        for c, e in enumerate(exprs):
            j = _array(*_visit(e, held, ops), e, held, ops)
            cols[j] = cols.get(j, ()) + (c,)
    # slots from the last step back: a value takes one at its last read and frees it where
    # it is made, so that a step may write over what it reads
    slot, free, new, hide, steps = {-1: 0}, [], itertools.count(1), set(), []
    for j in reversed(range(len(ops))):
        node, f, c, *ks = ops[j]
        free.append(slot.pop(j) if j in slot else free.pop() if free else next(new))
        dest = free[-1]
        for k in ks:
            if k not in slot:
                slot[k] = free.pop() if free else next(new)
            if f in (np.exp, np.divide, np.power):
                hide.add(k)
        steps += node, j in hide, cols.get(j, ()), dest, slot[ks[1]] if ks[1:] else c, slot[ks[0]], f
    steps.reverse()
    return Plan((steps, next(new), len(exprs)))


def _full(value, t):
    v = np.empty(t.shape)  # np.full costs twice as much on short arrays
    v.fill(value)
    return v


def _array(key, ref, node, held, ops):
    # the step of ref, a folded value being filled in at every time
    if type(ref) is float and ("fill", key) not in held:
        held["fill", key] = len(ops)
        ops.append((node, _full, ref, -1))
    return held["fill", key] if type(ref) is float else ref


def _visit(node, held, ops):
    # the subtree's key, and its folded value or its step (node, ufunc, constant left
    # operand, operand steps or -1 for the times), which is added to ops
    if isinstance(node, (Num, Const)):
        v = float(node.value) if isinstance(node, Num) else CONSTANTS[node.name]
        return v.hex(), v if math.isfinite(v) else _array(v.hex(), v, node, held, ops)
    if isinstance(node, BinOp):
        f, kids = _BINARY[node.op][1], node[1:]
    elif isinstance(node, Call):
        f, kids = _UNARY[node.func], node[1:]
    elif isinstance(node, (Neg, TimeVar)):
        f, kids = np.negative if isinstance(node, Neg) else np.asarray, node
    else:
        raise TypeError(f"not an expression node: {node!r}")
    mark = len(ops)
    keys, refs = zip(*[_visit(kid, held, ops) for kid in kids]) if kids else ((), ())
    key = (f, *keys)
    if key in held:  # computed before: drop the steps its operands added again
        del ops[mark:]
        return held[key], held[key]
    floats = [type(r) is float for r in refs]
    if f in _EXACT and all(floats) and math.isfinite(v := float(f(*refs))):
        return key, v
    # a float left operand of + - * / stays a float, as IEEE rounds these alike on arrays
    c = refs[0] if len(refs) == 2 and floats[0] and f is not np.power else None
    args = [_array(k, r, kid, held, ops) for k, r, kid in list(zip(keys, refs, kids))[c is not None:]]
    ops.append((node, f, c, *(args or [-1])))
    if f in _EXACT and set(map(type, keys)) != {int}:
        return key, len(ops) - 1  # cheap: repeated at each use
    held[key] = len(ops) - 1
    return held[key], held[key]


def evaluate(expr, t):
    """Values of one expression, or of a sequence of k expressions, at time t.

    A float t gives a float, or an array of shape (k,) for a sequence; an
    array of times gives an array of t's shape, or of t.shape + (k,).  A
    sequence may come as its plan.  Raises EvalError when any intermediate
    value of any expression is not finite at some time; it names the first
    such time in row-major order of t, and the node and reason found by
    running the plan again at that time alone.
    """
    many = not isinstance(expr, _NODES)  # nodes are tuples too
    p = expr if isinstance(expr, Plan) else plan(tuple(expr) if many else (expr,))
    array = isinstance(t, np.ndarray)
    ts = np.ascontiguousarray(t, dtype=float).ravel() if array else np.array([float(t)])
    out = np.empty(ts.shape + (p[2],))
    with np.errstate(all="ignore"):
        hidden = _run(p, ts, out)
        # the sum allocates nothing; finite values may sum past the float range
        if hidden or not math.isfinite(out.sum()):
            ok = np.isfinite(out).all(axis=-1)
            for v in hidden:
                ok &= np.isfinite(v)
            if not ok.all():
                i = int(ok.argmin())
                _run(p, ts[i:i + 1], out[i:i + 1], float(ts[i]))
                raise EvalError("non-finite value", None, float(ts[i]))
    if array:
        out = out.reshape(t.shape + (p[2],))
        return out if many else out[..., 0]
    return out[0] if many else float(out[0, 0])


def _run(p, ts, out, at=None):
    # p's steps over the times ts, each column of out written when it is ready.  A
    # non-finite operand gives a non-finite value through every operation but exp, '/'
    # and '^' (exp(-inf) = 0, 1/inf = 0, 1^nan = 1), so values that feed them and are not
    # finite everywhere are returned for the caller to check with the columns.  With the
    # time `at` given, the first non-finite value raises.
    vals, hidden = [ts] * p[1], []
    for f, a, b, dest, cols, check, node in zip(*[iter(p[0])] * 7):
        x, y = vals[a], vals[b] if type(b) is int else b
        v = f(x) if b is None else f(x, y) if type(b) is int else f(y, x)
        if (check or at is not None) and not np.isfinite(v).all():
            if at is not None:
                raise EvalError(_why(node, x, y if type(b) is int else x), node, at)
            hidden.append(v)
        vals[dest] = v
        for c in cols:
            out[:, c] = v
    return hidden


def _why(node, x, y):
    # why node is not finite at one time, its array operands x and y (length-1 arrays; y is
    # the divisor or the exponent) being finite
    if isinstance(node, BinOp):
        a, b = float(x[0]), float(y[0])
        if node.op == "/" and b == 0.0:
            return "division by zero"
        if node.op == "^" and a == 0.0 and b < 0.0:
            return "zero raised to a negative power"
        if node.op == "^" and a < 0.0 and not b.is_integer():
            return "fractional power of a negative base"
        return f"'{node.op}' overflowed to a non-finite value"
    if isinstance(node, Call):
        if node.func in ("ln", "sqrt"):
            return f"{node.func} domain violation: argument {float(x[0])!r}"
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
