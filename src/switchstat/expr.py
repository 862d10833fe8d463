"""Problem files and expression trees with forward-mode derivatives.

Problem-file grammar (UTF-8 text, ``#`` starts a comment, one declaration
per line, whitespace is insignificant):

    vars: x1 x2
    objective: (x1-1)^2 + (x2-1)^2
    eq: x1 + x2 - 1          # equality constraint, = 0
    ineq: x1                 # inequality constraint, >= 0
    switch: x1 | x2          # switching pair, product must vanish

Expressions use ``+ - * / ^`` with the usual precedence, parentheses, the
functions ``sin cos exp log`` and decimal literals.  Exponents after ``^``
must be integers (possibly negative, possibly parenthesised); general powers
can be written through exp/log.

Evaluation propagates (value, gradient, Hessian) triples through the tree,
so all derivatives are exact up to floating rounding; no finite differences
are involved.  Hessians are assembled so that transposed entries are the
bitwise-identical floats.  ``eval_batch`` walks the tree once for a whole
array of points and reproduces the scalar results bit for bit, lane by lane.
Expressions and problems are immutable after construction and all
evaluation entry points are reentrant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Func",
    "Problem",
    "ParseError",
    "EvalDomainError",
    "parse_problem",
    "parse_expression",
    "format_expr",
    "format_problem",
    "eval_value",
    "eval_gradient",
    "eval_hessian",
    "eval_batch",
]


class ParseError(ValueError):
    """Syntax or name error in a problem file; carries line/column (1-based)."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if col is not None:
                loc += f", column {col}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.col = col


class EvalDomainError(ValueError):
    """Evaluation outside a partial function's domain (log <= 0, division by
    0) or beyond the float range (exp or an integer power overflowing, sin or
    cos of an infinite value)."""


def _zeros(n):
    return [0.0] * n


def _zmat(n):
    return [[0.0] * n for _ in range(n)]


class Expr:
    """Base class for expression nodes.  Subclasses implement the plain-list
    evaluation API ``val`` / ``val_grad`` / ``val_grad_hess``."""

    __slots__ = ()

    def val(self, x):
        raise NotImplementedError

    def val_grad(self, x):
        raise NotImplementedError

    def val_grad_hess(self, x):
        raise NotImplementedError

    def max_var_index(self):
        """Largest 0-based variable index referenced, or -1 if none."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def val(self, x):
        return self.value

    def val_grad(self, x):
        return self.value, _zeros(len(x))

    def val_grad_hess(self, x):
        n = len(x)
        return self.value, _zeros(n), _zmat(n)

    def max_var_index(self):
        return -1


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based

    def val(self, x):
        return x[self.index]

    def val_grad(self, x):
        g = _zeros(len(x))
        g[self.index] = 1.0
        return x[self.index], g

    def val_grad_hess(self, x):
        n = len(x)
        g = _zeros(n)
        g[self.index] = 1.0
        return x[self.index], g, _zmat(n)

    def max_var_index(self):
        return self.index


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def val(self, x):
        return self.a.val(x) + self.b.val(x)

    def val_grad(self, x):
        va, ga = self.a.val_grad(x)
        vb, gb = self.b.val_grad(x)
        return va + vb, [ga[i] + gb[i] for i in range(len(x))]

    def val_grad_hess(self, x):
        n = len(x)
        va, ga, Ha = self.a.val_grad_hess(x)
        vb, gb, Hb = self.b.val_grad_hess(x)
        g = [ga[i] + gb[i] for i in range(n)]
        H = [[Ha[i][j] + Hb[i][j] for j in range(n)] for i in range(n)]
        return va + vb, g, H

    def max_var_index(self):
        return max(self.a.max_var_index(), self.b.max_var_index())


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def val(self, x):
        return self.a.val(x) - self.b.val(x)

    def val_grad(self, x):
        va, ga = self.a.val_grad(x)
        vb, gb = self.b.val_grad(x)
        return va - vb, [ga[i] - gb[i] for i in range(len(x))]

    def val_grad_hess(self, x):
        n = len(x)
        va, ga, Ha = self.a.val_grad_hess(x)
        vb, gb, Hb = self.b.val_grad_hess(x)
        g = [ga[i] - gb[i] for i in range(n)]
        H = [[Ha[i][j] - Hb[i][j] for j in range(n)] for i in range(n)]
        return va - vb, g, H

    def max_var_index(self):
        return max(self.a.max_var_index(), self.b.max_var_index())


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def val(self, x):
        return self.a.val(x) * self.b.val(x)

    def val_grad(self, x):
        va, ga = self.a.val_grad(x)
        vb, gb = self.b.val_grad(x)
        return va * vb, [va * gb[i] + vb * ga[i] for i in range(len(x))]

    def val_grad_hess(self, x):
        n = len(x)
        va, ga, Ha = self.a.val_grad_hess(x)
        vb, gb, Hb = self.b.val_grad_hess(x)
        g = [va * gb[i] + vb * ga[i] for i in range(n)]
        # the rank-one cross term is parenthesised so that (i,j) and (j,i)
        # run through bitwise-identical operations
        H = [
            [
                (va * Hb[i][j] + vb * Ha[i][j]) + (ga[i] * gb[j] + gb[i] * ga[j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        return va * vb, g, H

    def max_var_index(self):
        return max(self.a.max_var_index(), self.b.max_var_index())


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def val(self, x):
        vb = self.b.val(x)
        if vb == 0.0:
            raise EvalDomainError("division by zero")
        return self.a.val(x) / vb

    def val_grad(self, x):
        va, ga = self.a.val_grad(x)
        vb, gb = self.b.val_grad(x)
        if vb == 0.0:
            raise EvalDomainError("division by zero")
        w = va / vb
        return w, [(ga[i] - w * gb[i]) / vb for i in range(len(x))]

    def val_grad_hess(self, x):
        n = len(x)
        va, ga, Ha = self.a.val_grad_hess(x)
        vb, gb, Hb = self.b.val_grad_hess(x)
        if vb == 0.0:
            raise EvalDomainError("division by zero")
        w = va / vb
        g = [(ga[i] - w * gb[i]) / vb for i in range(n)]
        H = [
            [
                ((Ha[i][j] - w * Hb[i][j]) - (g[i] * gb[j] + gb[i] * g[j])) / vb
                for j in range(n)
            ]
            for i in range(n)
        ]
        return w, g, H

    def max_var_index(self):
        return max(self.a.max_var_index(), self.b.max_var_index())


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def _pow(self, u, m):
        if u == 0.0 and m < 0:
            raise EvalDomainError("zero raised to a negative power")
        try:
            return u ** m
        except OverflowError:
            raise EvalDomainError("power overflows") from None

    def val(self, x):
        return self._pow(self.base.val(x), self.exponent)

    def val_grad(self, x):
        m = self.exponent
        u, gu = self.base.val_grad(x)
        if m == 0:
            return 1.0, _zeros(len(x))
        a = m * self._pow(u, m - 1)
        return self._pow(u, m), [a * gu[i] for i in range(len(x))]

    def val_grad_hess(self, x):
        n = len(x)
        m = self.exponent
        u, gu, Hu = self.base.val_grad_hess(x)
        if m == 0:
            return 1.0, _zeros(n), _zmat(n)
        a = m * self._pow(u, m - 1)
        b = 0.0 if m * (m - 1) == 0 else m * (m - 1) * self._pow(u, m - 2)
        g = [a * gu[i] for i in range(n)]
        H = [
            [a * Hu[i][j] + b * (gu[i] * gu[j]) for j in range(n)]
            for i in range(n)
        ]
        return self._pow(u, m), g, H

    def max_var_index(self):
        return self.base.max_var_index()


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr

    def val(self, x):
        return -self.a.val(x)

    def val_grad(self, x):
        v, g = self.a.val_grad(x)
        return -v, [-gi for gi in g]

    def val_grad_hess(self, x):
        n = len(x)
        v, g, H = self.a.val_grad_hess(x)
        return -v, [-gi for gi in g], [[-H[i][j] for j in range(n)] for i in range(n)]

    def max_var_index(self):
        return self.a.max_var_index()


def _fn_sin(u):
    try:
        return math.sin(u), math.cos(u), -math.sin(u)
    except ValueError:
        raise EvalDomainError("sin of an infinite value") from None


def _fn_cos(u):
    try:
        c = math.cos(u)
        return c, -math.sin(u), -c
    except ValueError:
        raise EvalDomainError("cos of an infinite value") from None


def _fn_exp(u):
    try:
        w = math.exp(u)
    except OverflowError:
        raise EvalDomainError("exp overflows") from None
    return w, w, w


def _fn_log(u):
    if u <= 0.0:
        raise EvalDomainError("log of a nonpositive value")
    return math.log(u), 1.0 / u, -1.0 / (u * u)


# name -> function of the argument value returning (value, d/du, d2/du2)
FUNCTIONS = {"sin": _fn_sin, "cos": _fn_cos, "exp": _fn_exp, "log": _fn_log}


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr

    def val(self, x):
        return FUNCTIONS[self.name](self.arg.val(x))[0]

    def val_grad(self, x):
        u, gu = self.arg.val_grad(x)
        w, d1, _ = FUNCTIONS[self.name](u)
        return w, [d1 * gi for gi in gu]

    def val_grad_hess(self, x):
        n = len(x)
        u, gu, Hu = self.arg.val_grad_hess(x)
        w, d1, d2 = FUNCTIONS[self.name](u)
        g = [d1 * gi for gi in gu]
        H = [
            [d1 * Hu[i][j] + d2 * (gu[i] * gu[j]) for j in range(n)]
            for i in range(n)
        ]
        return w, g, H

    def max_var_index(self):
        return self.arg.max_var_index()


@dataclass(frozen=True)
class Problem:
    """Immutable description of a switching-constrained program.

    Minimise ``objective`` over points where every equality vanishes, every
    inequality is nonnegative and in every switching pair at least one
    member vanishes.
    """

    n: int
    var_names: tuple[str, ...]
    objective: Expr
    equalities: tuple[Expr, ...] = ()
    inequalities: tuple[Expr, ...] = ()
    switches: tuple[tuple[Expr, Expr], ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a problem needs at least one variable, n={self.n}")
        exprs = (self.objective,) + self.equalities + self.inequalities
        for pair in self.switches:
            exprs += pair
        worst = max(e.max_var_index() for e in exprs)
        if worst >= self.n:
            raise ValueError(
                f"expression references variable index {worst} but n={self.n}"
            )

    @property
    def k(self):
        return len(self.switches)


# ---------------------------------------------------------------------------
# evaluation entry points (numpy-facing)
# ---------------------------------------------------------------------------


def eval_value(e: Expr, x: Sequence[float]) -> float:
    """Value of ``e`` at ``x``; raises EvalDomainError outside the domain."""
    return float(e.val([float(v) for v in x]))


def eval_gradient(e: Expr, x: Sequence[float]) -> np.ndarray:
    """Exact gradient of ``e`` at ``x`` (forward-propagated, length n)."""
    _, g = e.val_grad([float(v) for v in x])
    return np.array(g, dtype=float)


def eval_hessian(e: Expr, x: Sequence[float]) -> np.ndarray:
    """Exact Hessian of ``e`` at ``x``; transposed entries are bitwise equal."""
    _, _, H = e.val_grad_hess([float(v) for v in x])
    return np.array(H, dtype=float)


# ---------------------------------------------------------------------------
# batched evaluation: many points through one tree walk
# ---------------------------------------------------------------------------


def eval_batch(e: Expr, X, hessian: bool = False):
    """Value, gradient and (when ``hessian``) Hessian of ``e`` at every row of
    ``X[B, n]``; returns ``(v[B], g[B, n], H[B, n, n] or None, bad[B])``.

    Every lane runs the floating-point operations of ``val_grad`` (or
    ``val_grad_hess``) in the same order, so the lanes not marked in ``bad``
    are bitwise equal to the scalar results.  ``bad`` marks exactly the lanes
    where the scalar walk raises :class:`EvalDomainError`; their entries are
    meaningless.  Transcendental functions run lane by lane through the
    scalar :mod:`math`-based table and powers through ``np.float_power``
    (the platform ``pow``, as Python's ``**``), because numpy's own ``exp``,
    ``log`` and ``power`` round differently.
    """
    X = np.asarray(X, dtype=float)
    bad = np.zeros(X.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        v, g, H = _walk(e, X, hessian, bad)
    return v, g, H, bad


def _cross(a, b):
    """Per lane ``a[i]*b[j] + b[i]*a[j]``: symmetric bit for bit."""
    return a[:, :, None] * b[:, None, :] + b[:, :, None] * a[:, None, :]


def _func_lanes(fn, u, bad):
    """The scalar ``fn`` of FUNCTIONS applied lane by lane: arrays of the
    value and the first and second derivative; lanes where it raises are
    marked in ``bad``."""
    out = []
    for i, ui in enumerate(u.tolist()):
        try:
            out.append(fn(ui))
        except EvalDomainError:
            bad[i] = True
            out.append((math.nan, math.nan, math.nan))
    return np.array(out, dtype=float).reshape(-1, 3).T


def _walk(e, X, hess, bad):
    """(v, g, H or None) of ``e`` over the rows of ``X``; see eval_batch."""
    B, n = X.shape
    t = type(e)
    if t is Var:
        g = np.zeros((B, n))
        g[:, e.index] = 1.0
        return X[:, e.index].copy(), g, np.zeros((B, n, n)) if hess else None
    if t is Const:
        return (np.full(B, e.value), np.zeros((B, n)),
                np.zeros((B, n, n)) if hess else None)
    if t is Neg:
        v, g, H = _walk(e.a, X, hess, bad)
        return -v, -g, -H if hess else None
    if t is Func:
        u, gu, Hu = _walk(e.arg, X, hess, bad)
        w, d1, d2 = _func_lanes(FUNCTIONS[e.name], u, bad)
        H = None
        if hess:
            H = d1[:, None, None] * Hu + d2[:, None, None] * (
                gu[:, :, None] * gu[:, None, :]
            )
        return w, d1[:, None] * gu, H
    if t is Pow:
        m = e.exponent
        u, gu, Hu = _walk(e.base, X, hess, bad)
        if m == 0:
            return np.ones(B), np.zeros((B, n)), np.zeros((B, n, n)) if hess else None
        if m < 0:
            bad |= u == 0.0
        finite = np.isfinite(u)

        def power(k):
            # u ** k bit for bit; a finite u with an infinite result is the
            # scalar walk's OverflowError
            r = np.float_power(u, float(k))
            bad[finite & ~np.isfinite(r)] = True
            return r

        a = m * power(m - 1)
        H = None
        if hess:
            b = np.zeros(B) if m * (m - 1) == 0 else m * (m - 1) * power(m - 2)
            H = a[:, None, None] * Hu + b[:, None, None] * (
                gu[:, :, None] * gu[:, None, :]
            )
        return power(m), a[:, None] * gu, H

    va, ga, Ha = _walk(e.a, X, hess, bad)
    vb, gb, Hb = _walk(e.b, X, hess, bad)
    if t is Add:
        return va + vb, ga + gb, Ha + Hb if hess else None
    if t is Sub:
        return va - vb, ga - gb, Ha - Hb if hess else None
    if t is Mul:
        H = None
        if hess:
            H = (va[:, None, None] * Hb + vb[:, None, None] * Ha) + _cross(ga, gb)
        return va * vb, va[:, None] * gb + vb[:, None] * ga, H
    if t is Div:
        bad |= vb == 0.0
        w = va / vb
        g = (ga - w[:, None] * gb) / vb[:, None]
        H = None
        if hess:
            H = ((Ha - w[:, None, None] * Hb) - _cross(g, gb)) / vb[:, None, None]
        return w, g, H
    raise TypeError(f"unknown node {t.__name__}")  # pragma: no cover


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^()|")

_DIRECTIVES = ("vars", "objective", "eq", "ineq", "switch")


def _tokenize(text, line_no, col_offset):
    """Tokenize one expression body.  Columns are 1-based within the raw line."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = col_offset + i + 1
        if ch in _OPS:
            tokens.append(("op", ch, col))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(("number", m.group(0), col))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(("ident", m.group(0), col))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, col)
    tokens.append(("end", "", col_offset + len(text) + 1))
    return tokens


class _ExprParser:
    """Recursive-descent parser over one tokenized expression."""

    def __init__(self, tokens, names, line_no):
        self.tokens = tokens
        self.pos = 0
        self.names = names  # var name -> 0-based index
        self.line = line_no

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, self.line, tok[2])

    def parse(self):
        e = self.expression()
        kind, text, _ = self.peek()
        if kind != "end":
            self.error(f"unexpected {text!r} after expression")
        return e

    def expression(self):
        e = self.term()
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "op":
            op = self.next()[1]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek()[1] in ("*", "/") and self.peek()[0] == "op":
            op = self.next()[1]
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self):
        e = self.atom()
        while self.peek()[0] == "op" and self.peek()[1] == "^":
            self.next()
            e = Pow(e, self.exponent())
        return e

    def exponent(self):
        """An integer literal, optionally negated and/or parenthesised."""
        parens = False
        if self.peek()[0] == "op" and self.peek()[1] == "(":
            self.next()
            parens = True
        sign = 1
        if self.peek()[0] == "op" and self.peek()[1] == "-":
            self.next()
            sign = -1
        kind, text, col = self.next()
        if kind != "number" or not re.fullmatch(r"\d+", text):
            raise ParseError("exponent must be an integer", self.line, col)
        if parens:
            kind, text2, col2 = self.next()
            if kind != "op" or text2 != ")":
                raise ParseError("expected ')' after exponent", self.line, col2)
        return sign * int(text)

    def atom(self):
        kind, text, col = self.next()
        if kind == "number":
            return Const(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                kind2, text2, col2 = self.next()
                if kind2 != "op" or text2 != "(":
                    raise ParseError(f"expected '(' after {text}", self.line, col2)
                arg = self.expression()
                kind3, text3, col3 = self.next()
                if kind3 != "op" or text3 != ")":
                    raise ParseError("expected ')'", self.line, col3)
                return Func(text, arg)
            if text not in self.names:
                raise ParseError(f"unknown identifier {text!r}", self.line, col)
            return Var(self.names[text])
        if kind == "op" and text == "(":
            e = self.expression()
            kind2, text2, col2 = self.next()
            if kind2 != "op" or text2 != ")":
                raise ParseError("expected ')'", self.line, col2)
            return e
        raise ParseError(
            "expected a number, variable, function or '('", self.line, col
        )


def parse_expression(text, names, line_no=None, col_offset=0):
    """Parse one expression against a name table {name: 0-based index}."""
    tokens = _tokenize(text, line_no, col_offset)
    return _ExprParser(tokens, names, line_no).parse()


def _strip_comment(line):
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def parse_problem(text: str) -> Problem:
    """Parse problem-definition text into an immutable :class:`Problem`.

    Raises :class:`ParseError` (with line/column) on syntax errors, unknown
    identifiers, a missing ``vars`` or ``objective`` declaration, or
    duplicate declarations of either.
    """
    var_names = None
    names = {}
    objective = None
    objective_line = None
    equalities = []
    inequalities = []
    switches = []
    deferred = []  # (directive, body, line, col) parsed after vars are known

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        head, sep, body = line.partition(":")
        directive = head.strip()
        if not sep or directive not in _DIRECTIVES:
            raise ParseError(
                f"expected one of {', '.join(_DIRECTIVES)} followed by ':'",
                line_no,
                len(line) - len(line.lstrip()) + 1,
            )
        col_offset = line.index(":") + 1
        if directive == "vars":
            if var_names is not None:
                raise ParseError("duplicate 'vars' declaration", line_no, 1)
            var_names = []
            for m in re.finditer(r"\S+", body):
                name = m.group(0)
                if not _IDENT_RE.fullmatch(name):
                    raise ParseError(
                        f"invalid variable name {name!r}",
                        line_no,
                        col_offset + m.start() + 1,
                    )
                if name in FUNCTIONS:
                    raise ParseError(
                        f"variable name {name!r} is reserved",
                        line_no,
                        col_offset + m.start() + 1,
                    )
                if name in names:
                    raise ParseError(
                        f"duplicate variable {name!r}",
                        line_no,
                        col_offset + m.start() + 1,
                    )
                names[name] = len(var_names)
                var_names.append(name)
            if not var_names:
                raise ParseError("'vars' declares no variables", line_no, 1)
        else:
            deferred.append((directive, body, line_no, col_offset))

    if var_names is None:
        raise ParseError("missing 'vars' declaration")

    for directive, body, line_no, col_offset in deferred:
        if directive == "objective":
            if objective is not None:
                raise ParseError("duplicate 'objective' declaration", line_no, 1)
            objective = parse_expression(body, names, line_no, col_offset)
            objective_line = line_no
        elif directive == "eq":
            equalities.append(parse_expression(body, names, line_no, col_offset))
        elif directive == "ineq":
            inequalities.append(parse_expression(body, names, line_no, col_offset))
        elif directive == "switch":
            if body.count("|") != 1:
                raise ParseError(
                    "a switch declaration needs exactly one '|'", line_no, col_offset
                )
            pipe = body.index("|")
            first = parse_expression(body[:pipe], names, line_no, col_offset)
            second = parse_expression(
                body[pipe + 1 :], names, line_no, col_offset + pipe + 1
            )
            switches.append((first, second))

    if objective is None:
        raise ParseError("missing 'objective' declaration")
    del objective_line

    return Problem(
        n=len(var_names),
        var_names=tuple(var_names),
        objective=objective,
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
        switches=tuple(switches),
    )


# ---------------------------------------------------------------------------
# printer (round-trip stable: parse(format(parse(text))) == parse(text))
# ---------------------------------------------------------------------------

_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


def _fmt(e, names, min_level):
    if isinstance(e, Const):
        text, level = repr(e.value), _LEVEL_ATOM
        if e.value < 0:  # parser never produces these, but normalise anyway
            level = _LEVEL_NEG
    elif isinstance(e, Var):
        text, level = names[e.index], _LEVEL_ATOM
    elif isinstance(e, Add):
        text = f"{_fmt(e.a, names, _LEVEL_ADD)} + {_fmt(e.b, names, _LEVEL_MUL)}"
        level = _LEVEL_ADD
    elif isinstance(e, Sub):
        text = f"{_fmt(e.a, names, _LEVEL_ADD)} - {_fmt(e.b, names, _LEVEL_MUL)}"
        level = _LEVEL_ADD
    elif isinstance(e, Mul):
        text = f"{_fmt(e.a, names, _LEVEL_MUL)}*{_fmt(e.b, names, _LEVEL_NEG)}"
        level = _LEVEL_MUL
    elif isinstance(e, Div):
        text = f"{_fmt(e.a, names, _LEVEL_MUL)}/{_fmt(e.b, names, _LEVEL_NEG)}"
        level = _LEVEL_MUL
    elif isinstance(e, Neg):
        text = f"-{_fmt(e.a, names, _LEVEL_NEG)}"
        level = _LEVEL_NEG
    elif isinstance(e, Pow):
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        text = f"{_fmt(e.base, names, _LEVEL_ATOM)}^{exp}"
        level = _LEVEL_POW
    elif isinstance(e, Func):
        text, level = f"{e.name}({_fmt(e.arg, names, _LEVEL_ADD)})", _LEVEL_ATOM
    else:  # pragma: no cover
        raise TypeError(f"unknown node {type(e).__name__}")
    if level < min_level:
        return f"({text})"
    return text


def format_expr(e: Expr, var_names: Sequence[str]) -> str:
    """Render an expression so that reparsing reproduces the same tree."""
    return _fmt(e, list(var_names), _LEVEL_ADD)


def format_problem(p: Problem) -> str:
    """Render a problem in the input grammar (round-trip stable)."""
    lines = ["vars: " + " ".join(p.var_names)]
    lines.append("objective: " + format_expr(p.objective, p.var_names))
    for e in p.equalities:
        lines.append("eq: " + format_expr(e, p.var_names))
    for e in p.inequalities:
        lines.append("ineq: " + format_expr(e, p.var_names))
    for f1, f2 in p.switches:
        lines.append(
            "switch: "
            + format_expr(f1, p.var_names)
            + " | "
            + format_expr(f2, p.var_names)
        )
    return "\n".join(lines) + "\n"
