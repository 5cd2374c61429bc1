"""Expression DSL for parametric surface immersions.

A small recursive-descent parser plus a third-order forward-mode
evaluator: every expression is evaluated together with its exact first,
second and third derivatives in the two surface parameters (a 3-jet).
The geometry layer builds tangents, second fundamental forms and the
gradient of the gauge angle from these jets directly, never from finite
differences of the coordinate maps.

Grammar (EBNF)::

    expr  := term (("+"|"-") term)*
    term  := unary (("*"|"/") unary)*
    unary := "-" unary | power
    power := atom ("^" unary)?
    atom  := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

``^`` is right-associative and binds tighter than unary minus.  The only
named constant is ``pi``; angles are radians.  Functions are restricted
to smooth ones so that 3-jets exist everywhere in their domain.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass


__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "DomainEvalError",
    "ImmersionFileError",
    "Num",
    "Const",
    "Param",
    "Neg",
    "BinOp",
    "Call",
    "Jet2",
    "ImmersionSpec",
    "parse_expression",
    "eval_jet2",
    "unparse",
    "parse_immersion_file",
    "load_immersion",
]


class ExprError(ValueError):
    """Base class for expression and immersion-file errors."""


class ExprSyntaxError(ExprError):
    """Parse failure, reported with a 1-based column."""

    def __init__(self, detail: str, column: int):
        self.column = column
        super().__init__(f"syntax error at column {column}: {detail}")


class DomainEvalError(ExprError):
    """Evaluation outside a function's real domain (log, sqrt, division)."""

    def __init__(self, detail: str, node: "ExprAst"):
        self.node = node
        super().__init__(f"domain error in '{unparse(node)}': {detail}")


class ImmersionFileError(ExprError):
    """Malformed immersion definition file."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # only "pi"


@dataclass(frozen=True)
class Param:
    index: int  # 0 or 1


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


ExprAst = Num | Const | Param | Neg | BinOp | Call

# name -> arity; all are smooth on their real domain
FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "sinh": 1,
    "cosh": 1,
    "tanh": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "atan": 1,
    "atan2": 2,
}


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", col)
        col = m.start(m.lastgroup) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, param_names):
        self.tokens = tokens
        self.pos = 0
        self.param_names = tuple(param_names)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text):
        kind, val, col = self.peek()
        if kind != "op" or val != text:
            shown = val if val else "end of input"
            raise ExprSyntaxError(f"expected {text!r}, found {shown!r}", col)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {val!r}", col)
        return node

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
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", node, self.unary())  # right-associative
        return node

    def atom(self):
        kind, val, col = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                return self.call(val, col)
            if val == "pi":
                return Const("pi")
            if val in self.param_names:
                return Param(self.param_names.index(val))
            raise ExprSyntaxError(f"unknown identifier {val!r}", col)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        shown = val if val else "end of input"
        raise ExprSyntaxError(f"unexpected {shown!r}", col)

    def call(self, name, col):
        if name not in FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {name!r}", col)
        self.expect("(")
        args = [self.expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect(")")
        if len(args) != FUNCTIONS[name]:
            raise ExprSyntaxError(
                f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}", col
            )
        return Call(name, tuple(args))


def parse_expression(text: str, param_names) -> ExprAst:
    """Parse ``text`` into an AST over the two named parameters."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 1)
    return _Parser(_tokenize(text), param_names).parse()


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def unparse(ast: ExprAst, param_names=("u", "v")) -> str:
    """Canonical, fully parenthesized rendering; parses back to an equal AST."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Const):
        return ast.name
    if isinstance(ast, Param):
        return param_names[ast.index]
    if isinstance(ast, Neg):
        return f"(-{unparse(ast.arg, param_names)})"
    if isinstance(ast, BinOp):
        return (
            f"({unparse(ast.lhs, param_names)} {ast.op} "
            f"{unparse(ast.rhs, param_names)})"
        )
    if isinstance(ast, Call):
        inner = ", ".join(unparse(a, param_names) for a in ast.args)
        return f"{ast.name}({inner})"
    raise TypeError(f"not an expression node: {ast!r}")


# ---------------------------------------------------------------------------
# Third-order forward-mode evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Value and exact partials up to order three at a parameter point.

    ``hess`` stores the three independent second partials (h11, h12, h22)
    and ``third`` the four independent third partials (t111, t112, t122,
    t222); both are symmetric by construction.
    """

    value: float
    grad: tuple
    hess: tuple
    third: tuple


# internal jet representation: (v, g0, g1, h00, h01, h11, t000, t001, t011, t111)


def _j_const(c):
    return (c, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _j_add(a, b):
    return tuple(map(operator.add, a, b))


def _j_sub(a, b):
    return tuple(map(operator.sub, a, b))


def _j_neg(a):
    return tuple(map(operator.neg, a))


def _j_mul(a, b):
    av, a0, a1, a00, a01, a11, a000, a001, a011, a111 = a
    bv, b0, b1, b00, b01, b11, b000, b001, b011, b111 = b
    return (
        av * bv,
        a0 * bv + av * b0,
        a1 * bv + av * b1,
        a00 * bv + 2.0 * a0 * b0 + av * b00,
        a01 * bv + a0 * b1 + a1 * b0 + av * b01,
        a11 * bv + 2.0 * a1 * b1 + av * b11,
        a000 * bv + 3.0 * (a00 * b0 + a0 * b00) + av * b000,
        a001 * bv + a00 * b1 + 2.0 * (a01 * b0 + a0 * b01) + a1 * b00 + av * b001,
        a011 * bv + a11 * b0 + 2.0 * (a01 * b1 + a1 * b01) + a0 * b11 + av * b011,
        a111 * bv + 3.0 * (a11 * b1 + a1 * b11) + av * b111,
    )


def _j_chain(a, f, df, d2f, d3f):
    """Compose a scalar function with jet ``a`` by the chain rule."""
    av, a0, a1, a00, a01, a11, a000, a001, a011, a111 = a
    return (
        f,
        df * a0,
        df * a1,
        d2f * a0 * a0 + df * a00,
        d2f * a0 * a1 + df * a01,
        d2f * a1 * a1 + df * a11,
        d3f * a0 * a0 * a0 + 3.0 * d2f * a00 * a0 + df * a000,
        d3f * a0 * a0 * a1 + d2f * (a00 * a1 + 2.0 * a01 * a0) + df * a001,
        d3f * a0 * a1 * a1 + d2f * (a11 * a0 + 2.0 * a01 * a1) + df * a011,
        d3f * a1 * a1 * a1 + 3.0 * d2f * a11 * a1 + df * a111,
    )


def _j_recip(a, node):
    av = a[0]
    if av == 0.0:
        raise DomainEvalError("division by zero", node)
    inv = 1.0 / av
    return _j_chain(a, inv, -inv * inv, 2.0 * inv ** 3, -6.0 * inv ** 4)


def _j_atan(a):
    x = a[0]
    d = 1.0 / (1.0 + x * x)
    return _j_chain(a, math.atan(x), d, -2.0 * x * d * d, (6.0 * x * x - 2.0) * d ** 3)


def _j_int_pow(a, n, node):
    if n == 0:
        return _j_const(1.0)
    if n < 0:
        return _j_recip(_j_int_pow(a, -n, node), node)
    out = a
    for _ in range(n - 1):
        out = _j_mul(out, a)
    return out


def _eval(node, s):
    if isinstance(node, Num):
        return _j_const(node.value)
    if isinstance(node, Const):
        return _j_const(math.pi)
    if isinstance(node, Param):
        g = (1.0, 0.0) if node.index == 0 else (0.0, 1.0)
        return (s[node.index], g[0], g[1], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    if isinstance(node, Neg):
        return _j_neg(_eval(node.arg, s))
    if isinstance(node, BinOp):
        if node.op == "^":
            return _eval_pow(node, s)
        a = _eval(node.lhs, s)
        b = _eval(node.rhs, s)
        if node.op == "+":
            return _j_add(a, b)
        if node.op == "-":
            return _j_sub(a, b)
        if node.op == "*":
            return _j_mul(a, b)
        if node.op == "/":
            return _j_mul(a, _j_recip(b, node))
        raise TypeError(f"unknown operator {node.op!r}")
    if isinstance(node, Call):
        return _eval_call(node, s)
    raise TypeError(f"not an expression node: {node!r}")


def _eval_pow(node, s):
    a = _eval(node.lhs, s)
    b = _eval(node.rhs, s)
    # constant integer exponents go through repeated multiplication: exact
    # for cases like 2^3^2 and legal for negative bases like u^2 at u < 0
    if all(x == 0.0 for x in b[1:]):
        e = b[0]
        if abs(e - round(e)) < 1e-12 and abs(e) <= 512:
            n = int(round(e))
            if a[0] == 0.0 and n <= 0:
                raise DomainEvalError("zero base with non-positive exponent", node)
            return _j_int_pow(a, n, node)
    if a[0] <= 0.0:
        raise DomainEvalError(
            "non-integer power of a non-positive base", node
        )
    loga = _j_chain(a, math.log(a[0]), 1.0 / a[0], -1.0 / a[0] ** 2, 2.0 / a[0] ** 3)
    prod = _j_mul(b, loga)
    val = math.exp(prod[0])
    return _j_chain(prod, val, val, val, val)


def _eval_call(node, s):
    if node.name == "atan2":
        return _eval_atan2(node, s)
    a = _eval(node.args[0], s)
    x = a[0]
    name = node.name
    if name == "sin":
        return _j_chain(a, math.sin(x), math.cos(x), -math.sin(x), -math.cos(x))
    if name == "cos":
        return _j_chain(a, math.cos(x), -math.sin(x), -math.cos(x), math.sin(x))
    if name == "tan":
        t = math.tan(x)
        d = 1.0 + t * t
        return _j_chain(a, t, d, 2.0 * t * d, 2.0 * d * (3.0 * d - 2.0))
    if name == "sinh":
        return _j_chain(a, math.sinh(x), math.cosh(x), math.sinh(x), math.cosh(x))
    if name == "cosh":
        return _j_chain(a, math.cosh(x), math.sinh(x), math.cosh(x), math.sinh(x))
    if name == "tanh":
        t = math.tanh(x)
        d = 1.0 - t * t
        return _j_chain(a, t, d, -2.0 * t * d, 2.0 * d * (2.0 - 3.0 * d))
    if name == "exp":
        e = math.exp(x)
        return _j_chain(a, e, e, e, e)
    if name == "log":
        if x <= 0.0:
            raise DomainEvalError("log of a non-positive value", node)
        return _j_chain(a, math.log(x), 1.0 / x, -1.0 / (x * x), 2.0 / (x * x * x))
    if name == "sqrt":
        if x < 0.0:
            raise DomainEvalError("sqrt of a negative value", node)
        if x == 0.0:
            raise DomainEvalError("sqrt derivative singular at zero", node)
        r = math.sqrt(x)
        return _j_chain(a, r, 0.5 / r, -0.25 / (r * x), 0.375 / (r * x * x))
    if name == "atan":
        return _j_atan(a)
    raise TypeError(f"unknown function {node.name!r}")


def _eval_atan2(node, s):
    y = _eval(node.args[0], s)
    x = _eval(node.args[1], s)
    if x[0] == 0.0 and y[0] == 0.0:
        raise DomainEvalError("atan2 at the origin", node)
    # atan(y/x) and -atan(x/y) differ from atan2 by constants; take the one
    # whose quotient stays bounded
    if abs(x[0]) >= abs(y[0]):
        jet = _j_atan(_j_mul(y, _j_recip(x, node)))
    else:
        jet = _j_neg(_j_atan(_j_mul(x, _j_recip(y, node))))
    return (math.atan2(y[0], x[0]),) + jet[1:]


def eval_jet2(ast: ExprAst, s) -> Jet2:
    """Evaluate ``ast`` with its exact partials up to order three at ``s``."""
    jet = _eval(ast, (float(s[0]), float(s[1])))
    return Jet2(jet[0], jet[1:3], jet[3:6], jet[6:])


# ---------------------------------------------------------------------------
# Immersion files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImmersionSpec:
    """A parsed surface definition: four coordinate maps of two parameters."""

    name: str
    param_names: tuple
    coord_exprs: tuple  # four ExprAst, x1..x4
    domain: tuple  # ((lo1, hi1), (lo2, hi2))
    periodic: tuple  # (bool, bool)
    frame_rotation: ExprAst | None = None  # None means the constant 0


_REQUIRED_KEYS = ("name", "params", "x1", "x2", "x3", "x4", "domain", "periodic")


def _const_value(text: str, line_no: int) -> float:
    """Parse a parameter-free constant expression (used for domain bounds)."""
    try:
        ast = parse_expression(text, ("_a", "_b"))
        return eval_jet2(ast, (0.0, 0.0)).value
    except ExprError as exc:
        raise ImmersionFileError(f"line {line_no}: bad constant {text!r}: {exc}")


def parse_immersion_file(text: str) -> ImmersionSpec:
    """Parse the line-oriented ``key: value`` immersion format."""
    entries = {}
    lines = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ImmersionFileError(f"line {line_no}: expected 'key: value'")
        key, value = (part.strip() for part in line.split(":", 1))
        if key in entries:
            raise ImmersionFileError(f"line {line_no}: duplicate key: {key}")
        entries[key] = value
        lines[key] = line_no

    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise ImmersionFileError(f"missing key: {key}")
    known = set(_REQUIRED_KEYS) | {"frame_rotation"}
    for key in entries:
        if key not in known:
            raise ImmersionFileError(f"line {lines[key]}: unknown key: {key}")

    params = tuple(entries["params"].split())
    if len(params) != 2 or len(set(params)) != 2:
        raise ImmersionFileError("params must name two distinct identifiers")
    for p in params:
        if p == "pi" or not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", p):
            raise ImmersionFileError(f"bad parameter name: {p!r}")

    coords = []
    for key in ("x1", "x2", "x3", "x4"):
        try:
            coords.append(parse_expression(entries[key], params))
        except ExprError as exc:
            raise ImmersionFileError(f"line {lines[key]}: {key}: {exc}")

    dom_tokens = entries["domain"].split()
    if len(dom_tokens) != 6:
        raise ImmersionFileError(
            "malformed domain: expected '<p1> lo hi <p2> lo hi'"
        )
    if (dom_tokens[0], dom_tokens[3]) != params:
        raise ImmersionFileError(
            f"domain names {dom_tokens[0]!r}, {dom_tokens[3]!r} do not match params"
        )
    dom_line = lines["domain"]
    lo1, hi1 = (_const_value(t, dom_line) for t in dom_tokens[1:3])
    lo2, hi2 = (_const_value(t, dom_line) for t in dom_tokens[4:6])
    for lo, hi in ((lo1, hi1), (lo2, hi2)):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ImmersionFileError("malformed domain: need finite lo < hi")

    per_tokens = entries["periodic"].split()
    if len(per_tokens) != 2 or any(t not in ("true", "false") for t in per_tokens):
        raise ImmersionFileError("periodic must be 'true|false true|false'")
    periodic = tuple(t == "true" for t in per_tokens)

    rotation = None
    if "frame_rotation" in entries:
        try:
            rotation = parse_expression(entries["frame_rotation"], params)
        except ExprError as exc:
            raise ImmersionFileError(
                f"line {lines['frame_rotation']}: frame_rotation: {exc}"
            )

    return ImmersionSpec(
        name=entries["name"],
        param_names=params,
        coord_exprs=tuple(coords),
        domain=((lo1, hi1), (lo2, hi2)),
        periodic=periodic,
        frame_rotation=rotation,
    )


def load_immersion(path) -> ImmersionSpec:
    """Read and parse an immersion file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_immersion_file(text)
    except ImmersionFileError as exc:
        raise ImmersionFileError(f"{path}: {exc}") from exc
