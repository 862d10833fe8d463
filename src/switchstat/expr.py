"""Problem files and expression trees with forward-mode derivatives.

Problem-file grammar (UTF-8 text, ``#`` starts a comment, one declaration
per line, whitespace is insignificant):

    vars: x1 x2
    objective: (x1-1)^2 + (x2-1)^2
    eq: x1 + x2 - 1          # equality constraint, = 0
    ineq: x1                 # inequality constraint, >= 0
    switch: x1 | x2          # switching pair, product must vanish

Expressions use ``+ - * / ^`` with the usual precedence, parentheses, the
functions ``sin cos exp log`` and decimal literals, whose floats must be
finite.  Exponents after ``^`` must be integers m (possibly negative,
possibly parenthesised) with m*(m-1) a finite float; general powers can be
written through exp/log.

Evaluation propagates (value, gradient, Hessian) triples through the tree,
so all derivatives are exact up to floating rounding; no finite differences
are involved.  Each node states its rules once, in one walk
``_derivatives(x, order)`` that computes the gradient only from order 1 and
the Hessian only at order 2: ``val``, ``val_grad`` and ``val_grad_hess`` are
that walk at orders 0, 1 and 2.  Hessians are assembled so that transposed
entries are the bitwise-identical floats.  ``eval_batch`` walks the tree once
for a whole array of points and reproduces the scalar walk bit for bit, lane
by lane.  The scalar walk also runs on carriers in place of floats:
``_StraightLine`` writes straight-line Python for a tree's shape (its nodes
without their constant values) by running it on code terms, so the code
gives its bits by construction; it serves callers that evaluate one point at
a time many times.  ``_affine_form`` runs it at order 0 on exact affine
carriers for a tree's coefficients and rounding bound.
Expressions and problems are immutable after construction and all
evaluation entry points are reentrant.
"""

from __future__ import annotations

import math
import operator
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


def _constant(v, n, order):
    """``_derivatives``' triple to ``order`` of a value ``v`` over ``n``
    variables whose derivatives vanish."""
    return (v, [0.0] * n if order else None,
            [[0.0] * n for _ in range(n)] if order > 1 else None)


class Expr:
    """Base class for expression nodes.  Each subclass states its rules once,
    in ``_derivatives(x, order)``: one walk of the tree that returns the
    value, the gradient when ``order`` >= 1 and the Hessian when ``order``
    is 2, as lists (else None); whatever only a higher order needs runs only
    then.  ``val``, ``val_grad`` and ``val_grad_hess`` are that walk at
    orders 0, 1 and 2.

    The walk also runs on carriers in place of floats: :class:`_Term` (code),
    ``topology._Mesh`` (arrays over a mesh) and :class:`_Affine` (exact
    affine values).  A carrier has ``+ - * /`` with floats and carriers on
    both sides, unary ``-``, ``**`` by an int (in :func:`_pow`) and
    ``call(name)`` for ``FUNCTIONS[name]`` (:func:`_apply`), and it equals
    only itself, so the zero tests in :class:`Div` and :func:`_pow` are false
    on it."""

    __slots__ = ()

    def _derivatives(self, x, order):
        raise NotImplementedError

    def val(self, x):
        return self._derivatives(x, 0)[0]

    def val_grad(self, x):
        v, g, _ = self._derivatives(x, 1)
        return v, g

    def val_grad_hess(self, x):
        return self._derivatives(x, 2)

    def max_var_index(self):
        """Largest 0-based variable index referenced, or -1 if none: the
        largest over the node's subtrees."""
        return max([f.max_var_index() for f in vars(self).values()
                    if isinstance(f, Expr)], default=-1)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def _derivatives(self, x, order):
        return _constant(self.value, len(x), order)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based

    def _derivatives(self, x, order):
        v, g, H = _constant(x[self.index], len(x), order)
        if order:
            g[self.index] = 1.0
        return v, g, H

    def max_var_index(self):
        return self.index


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def _derivatives(self, x, order):
        n = len(x)
        va, ga, Ha = self.a._derivatives(x, order)
        vb, gb, Hb = self.b._derivatives(x, order)
        H = None
        if order > 1:
            H = [[Ha[i][j] + Hb[i][j] for j in range(n)] for i in range(n)]
        return va + vb, [ga[i] + gb[i] for i in range(n)] if order else None, H


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def _derivatives(self, x, order):
        n = len(x)
        va, ga, Ha = self.a._derivatives(x, order)
        vb, gb, Hb = self.b._derivatives(x, order)
        H = None
        if order > 1:
            H = [[Ha[i][j] - Hb[i][j] for j in range(n)] for i in range(n)]
        return va - vb, [ga[i] - gb[i] for i in range(n)] if order else None, H


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def _derivatives(self, x, order):
        n = len(x)
        va, ga, Ha = self.a._derivatives(x, order)
        vb, gb, Hb = self.b._derivatives(x, order)
        H = None
        if order > 1:
            # the rank-one cross term is parenthesised so that (i,j) and (j,i)
            # run through bitwise-identical operations
            H = [
                [
                    (va * Hb[i][j] + vb * Ha[i][j]) + (ga[i] * gb[j] + gb[i] * ga[j])
                    for j in range(n)
                ]
                for i in range(n)
            ]
        w = va * vb
        return w, [va * gb[i] + vb * ga[i] for i in range(n)] if order else None, H


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def _derivatives(self, x, order):
        n = len(x)
        va, ga, Ha = self.a._derivatives(x, order)
        vb, gb, Hb = self.b._derivatives(x, order)
        if vb == 0.0:
            raise EvalDomainError("division by zero")
        w = va / vb
        g = [(ga[i] - w * gb[i]) / vb for i in range(n)] if order else None
        H = None
        if order > 1:
            H = [
                [
                    ((Ha[i][j] - w * Hb[i][j]) - (g[i] * gb[j] + gb[i] * g[j])) / vb
                    for j in range(n)
                ]
                for i in range(n)
            ]
        return w, g, H


def _pow(u, m):
    """``u ** m`` for an integer ``m``, raising EvalDomainError for zero to a
    negative power and for an overflowing result."""
    if u == 0.0 and m < 0:
        raise EvalDomainError("zero raised to a negative power")
    try:
        return u ** m
    except OverflowError:
        raise EvalDomainError("power overflows") from None


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def _derivatives(self, x, order):
        n = len(x)
        m = self.exponent
        u, gu, Hu = self.base._derivatives(x, order)
        if m == 0 or not order:
            return _constant(_pow(u, m), n, order)
        a = m * _pow(u, m - 1)
        H = None
        if order > 1:
            # u^(m-2) may overflow where u^(m-1) does not
            b = 0.0 if m * (m - 1) == 0 else m * (m - 1) * _pow(u, m - 2)
            H = [
                [a * Hu[i][j] + b * (gu[i] * gu[j]) for j in range(n)]
                for i in range(n)
            ]
        return _pow(u, m), [a * gu[i] for i in range(n)], H


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr

    def _derivatives(self, x, order):
        v, g, H = self.a._derivatives(x, order)
        return (-v, [-gi for gi in g] if order else None,
                [[-h for h in row] for row in H] if order > 1 else None)


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
    uu = u * u
    # below about 1.5e-154 u*u underflows to 0.0, where IEEE -1.0/0.0 is -inf
    return math.log(u), 1.0 / u, -1.0 / uu if uu else -math.inf


# name -> function of the argument value returning (value, d/du, d2/du2)
FUNCTIONS = {"sin": _fn_sin, "cos": _fn_cos, "exp": _fn_exp, "log": _fn_log}


def _apply(name, u):
    """``FUNCTIONS[name](u)``, or ``u.call(name)`` for a carrier ``u``."""
    if type(u) is float or not hasattr(u, "call"):
        return FUNCTIONS[name](u)
    return u.call(name)


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr

    def _derivatives(self, x, order):
        n = len(x)
        u, gu, Hu = self.arg._derivatives(x, order)
        w, d1, d2 = _apply(self.name, u)
        H = None
        if order > 1:
            H = [
                [d1 * Hu[i][j] + d2 * (gu[i] * gu[j]) for j in range(n)]
                for i in range(n)
            ]
        return w, [d1 * gi for gi in gu] if order else None, H


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
    _, g, _ = e._derivatives([float(v) for v in x], 1)
    return np.array(g, dtype=float)


def eval_hessian(e: Expr, x: Sequence[float]) -> np.ndarray:
    """Exact Hessian of ``e`` at ``x``; transposed entries are bitwise equal."""
    _, _, H = e._derivatives([float(v) for v in x], 2)
    return np.array(H, dtype=float)


# ---------------------------------------------------------------------------
# batched evaluation: many points through one tree walk
# ---------------------------------------------------------------------------


def eval_batch(e: Expr, X, hessian: bool = False):
    """Value, gradient and (when ``hessian``) Hessian of ``e`` at every row of
    ``X[B, n]``; returns ``(v[B], g[B, n], H[B, n, n] or None, bad[B])``.

    Every lane runs the floating-point operations of the scalar walk
    (``val_grad``, or ``val_grad_hess`` when ``hessian``) in the same order,
    so the lanes not marked in ``bad`` are bitwise equal to its results.  ``bad`` marks exactly the lanes
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
# affine forms: exact coefficients and a rounding bound of a tree's value
# ---------------------------------------------------------------------------

# the unit roundoff, and the largest absolute error of a product or quotient
# that underflows (half the subnormal spacing, rounded up to it)
_UNIT_ROUNDOFF = 2.0 ** -53
_UNDERFLOW = 2.0 ** -1074


def _up(v):
    """The next float above ``v``: an upper bound of every real number that
    rounds to ``v``."""
    return math.nextafter(v, math.inf)


class _NotAffine(Exception):
    """Raised by an :class:`_Affine` operation whose result is not affine."""


def _operator(rule, arg):
    """A binary operator of a carrier and its reflected twin:
    ``rule(self, other, arg, flip)`` with ``flip`` false and true."""
    return (
        lambda self, other: rule(self, other, arg, False),
        lambda self, other: rule(self, other, arg, True),
    )


class _Affine:
    """The exact value (A·x + B) / D of an affine tree, n ints ``A`` and
    ints ``B`` and ``D > 0``, with the floats ``mag`` bounding its absolute
    value and ``err`` its float rounding: :func:`_affine_form`'s carrier."""

    __slots__ = ("A", "B", "D", "mag", "err")

    def __init__(self, A, B, D, mag, err):
        self.A, self.B, self.D, self.mag, self.err = A, B, D, mag, err

    @staticmethod
    def constant(k, n):
        """The float ``k`` over ``n`` variables, exact, if it is finite."""
        k = float(k)
        if not math.isfinite(k):
            raise _NotAffine
        num, den = k.as_integer_ratio()
        return _Affine([0] * n, num, den, abs(k), 0.0)

    def _sum(self, g, s, flip):
        """``self + s·g``, or ``g + s·self`` when ``flip``: the bounds add,
        and ``err`` gains u·(mag + err)."""
        f = self
        if type(g) is not _Affine:
            g = _Affine.constant(g, len(f.A))
        if flip:
            f, g = g, f
        mag, err = _up(f.mag + g.mag), _up(f.err + g.err)
        err = _up(err + _up(_UNIT_ROUNDOFF * _up(mag + err)))
        A = [c * g.D + s * c2 * f.D for c, c2 in zip(f.A, g.A)]
        return _Affine(A, f.B * g.D + s * g.B * f.D, f.D * g.D, mag, err)

    def _scaled(self, k, divide, flip):
        """``self * k``, or ``self / k`` when ``divide``, for a float ``k``:
        ``err`` gains u·(mag + err), the bounds scale by |k| and ``err``
        gains η.  ``k / self`` is not affine."""
        if type(k) is _Affine or divide and flip:
            raise _NotAffine
        k = _Affine.constant(k, 0)  # k = num / den exactly, |k| = s
        num, den, s, mag = k.B, k.D, k.mag, self.mag
        err = _up(self.err + _up(_UNIT_ROUNDOFF * _up(mag + self.err)))
        if divide:
            # times den / num, the denominator kept positive
            sign = 1 if num > 0 else -1
            num, den = sign * den, sign * num
            mag, err = _up(mag / s), _up(err / s)
        else:
            mag, err = _up(mag * s), _up(err * s)
        A = [c * num for c in self.A]
        return _Affine(A, self.B * num, self.D * den, mag, _up(err + _UNDERFLOW))

    __add__, __radd__ = _operator(_sum, 1)
    __sub__, __rsub__ = _operator(_sum, -1)
    __mul__, __rmul__ = _operator(_scaled, False)
    __truediv__, __rtruediv__ = _operator(_scaled, True)

    def __neg__(self):
        return _Affine([-c for c in self.A], -self.B, self.D, self.mag, self.err)

    def _not_affine(self, *_):
        raise _NotAffine

    __pow__ = call = _not_affine


def _affine_form(e: Expr, n: int, radius: float):
    """``(A, B, D, err)`` when ``e`` is affine, else None.

    ``e`` is affine when it is built from Var, Const, Neg, Add, Sub, products
    with a Var-free subtree and quotients by a nonzero Var-free subtree.  A
    Var-free subtree reads no ``x``, so every walk gives it one float, its
    ``val``.  With those floats as constants, e(x) = (A·x + B) / D exactly,
    and the float ``err`` bounds |ê(x) - e(x)| for the float walk ê at every
    ``x`` with max |x_j| <= ``radius`` where ê is finite.  None also when no
    finite bound results.

    This is ``e.val`` run on one :class:`_Affine` per variable, the unit row
    with ``mag = radius``.  Each operation of the carrier applies the
    standard model fl(u op v) = (u op v)(1 + δ) + η, |δ| <= u = 2^-53, η = 0
    for sums and |η| <= 2^-1074 for products and quotients (Higham,
    *Accuracy and Stability of Numerical Algorithms*, §2.2), each float
    operation of its bounds rounded up.  So ``err`` is at most
    γ_N · |e|(radius), with N the rounding operations of the tree,
    γ_N = N·u / (1 - N·u) and |e| the tree with absolute constants (the
    floats of Var-free subtrees), + for - and |x_j| = ``radius``, plus each
    underflow term carried through the scalings above it.
    """
    x = [_Affine([int(i == j) for i in range(n)], 0, 1, float(radius), 0.0)
         for j in range(n)]
    try:
        v = e.val(x)
        if type(v) is not _Affine:
            v = _Affine.constant(v, n)
    except (_NotAffine, EvalDomainError):
        return None
    if not v.err < math.inf:
        return None
    g = math.gcd(*v.A, v.B, v.D)
    return tuple(c // g for c in v.A), v.B // g, v.D // g, v.err


# ---------------------------------------------------------------------------
# straight-line code: a tree's derivatives compiled to Python statements
# ---------------------------------------------------------------------------


def _expr_shape(e: Expr, consts: list):
    """The shape of ``e``: a nested tuple of node classes with their variable
    indices, exponents and function names, holding no constant value.  The
    values of the ``Const`` nodes are appended to ``consts`` in the order
    :class:`_StraightLine` numbers them, so trees that differ only in their
    constants share one shape and one compiled function."""
    t = type(e)
    if t is Const:
        consts.append(e.value)
        return (Const,)
    if t is Var:
        return (Var, operator.index(e.index))
    if t is Neg:
        return (Neg, _expr_shape(e.a, consts))
    if t is Pow:
        return (Pow, _expr_shape(e.base, consts), operator.index(e.exponent))
    if t is Func:
        return (Func, e.name, _expr_shape(e.arg, consts))
    if t in (Add, Sub, Mul, Div):
        return (t, _expr_shape(e.a, consts), _expr_shape(e.b, consts))
    raise TypeError(f"unknown node {t.__name__}")


def _rebuild(shape, consts):
    """The tree of ``shape`` whose constants are the next items of the
    iterator ``consts``, in the order of :func:`_expr_shape`."""
    tag, *fields = shape
    if tag is Const:
        return Const(next(consts))
    return tag(*(_rebuild(f, consts) if type(f) is tuple else f for f in fields))


# the float b for which ``a op b`` is ``a`` bit for bit, and the float a for
# which it is ``b``, as reprs: the sign of a zero matters
_RIGHT_IDENTITY = {"+": "-0.0", "-": "0.0", "*": "1.0"}
_LEFT_IDENTITY = {"+": "-0.0", "*": "1.0"}

_TEMP_NAME = re.compile(r"\bt\d+\b")


class _Term:
    """A value of :class:`_StraightLine` code, held by the name ``name``: a
    carrier (see :class:`Expr`), also with ints, each of whose operations
    writes one line and returns the term of its result; a power writes the
    checked ``_pow``.  ``a + (-0.0)``, ``a - 0.0`` and ``a * 1.0``, which
    give ``a`` bit for bit, write nothing, and a division writes the zero
    test of its divisor first.  An operation on floats alone is Python's own
    and so done while writing; the walks' tests of a value, false on a term,
    run in the code instead."""

    __slots__ = ("code", "name")

    def __init__(self, code, name):
        self.code = code
        self.name = name

    def _write(self, other, op, flip):
        """The term of ``self op other``, or ``other op self`` when ``flip``."""
        a, b = (other, self) if flip else (self, other)
        if type(b) is float and repr(b) == _RIGHT_IDENTITY.get(op):
            return a
        if type(a) is float and repr(a) == _LEFT_IDENTITY.get(op):
            return b
        code = self.code
        if op == "/":
            code.zero_test(b)
        return code.temp(f"{code.ref(a)} {op} {code.ref(b)}")

    __add__, __radd__ = _operator(_write, "+")
    __sub__, __rsub__ = _operator(_write, "-")
    __mul__, __rmul__ = _operator(_write, "*")
    __truediv__, __rtruediv__ = _operator(_write, "/")

    def __neg__(self):
        return self.code.temp(f"-{self.name}")

    def __pow__(self, m):
        return self.code.temp(f"_pow({self.name}, ({m}))", call=True)

    def call(self, name):
        """The terms of ``FUNCTIONS[name]`` at this term."""
        return self.code.temp(f"_f_{name}({self.name})", width=3, call=True)


class _StraightLine:
    """Writes functions ``name(Z, C)`` of straight-line Python that compute
    the values, gradients and Hessians of expression shapes.

    ``Z`` holds the point ``x0 .. x{n-1}`` followed by ``extra`` further
    floats ``y0 ..``; ``C`` holds the shapes' constants in the order of
    :func:`_expr_shape`.  The code of a shape is the tree's own scalar walk
    (``_derivatives`` at order 1 or 2) run on :class:`_Term`
    values: the tree is rebuilt from the shape with one term per constant
    and walked at the point of the terms ``x0 ..``.  So the code runs the
    walk's floating-point operations and raises :class:`EvalDomainError`
    where it raises, by construction: its powers go through the same checked
    power, its functions through the same :data:`FUNCTIONS` entries, and a
    division tests its divisor first.  A right-hand side already written is
    not written again, and :meth:`end` drops the arithmetic whose result
    nothing reads, such as the Hessian entries below the diagonal and values
    a function does not return; calls and tests, which can raise, stay.

    The source holds node operations, integer variable indices and
    exponents, and the names of :data:`FUNCTIONS`; constants of the trees
    arrive in ``C`` and the derivative constants as names bound at compile
    time, so no float is ever written as text.
    """

    def __init__(self, n: int):
        self.n = n
        self._pool = {}  # float.hex() -> (name, value)
        self._functions = []
        self._lines = None

    # -- functions ----------------------------------------------------------

    def begin(self, name: str, extra: int = 0):
        """Start the function ``name`` of ``n + extra`` values in ``Z``."""
        self._name = name
        self._lines = []  # (depth, temporaries assigned, text, droppable)
        self._temps = 0
        self._consts = 0
        self._extra = extra
        self._written = {}  # right-hand side or test -> its term(s)

    def end(self, result: str):
        """Finish the function, returning the expression ``result``.  A line
        of arithmetic whose temporary nothing reads is dropped.  A call
        keeps its line, since it can raise: its unread results are assigned
        to ``_``, or nothing is assigned when none is read."""
        live = set(_TEMP_NAME.findall(result))
        body = []
        for depth, temps, text, droppable in reversed(self._lines):
            targets = [t if t in live else "_" for t in temps]
            if targets.count("_") == len(targets):
                if temps and droppable:
                    continue
                targets = []
            live.update(_TEMP_NAME.findall(text))
            lead = f"{', '.join(targets)} = " if targets else ""
            body.append("    " * depth + lead + text)
        names = [f"x{i}" for i in range(self.n)] + [
            f"y{i}" for i in range(self._extra)
        ]
        head = [f"def {self._name}(Z, C):", f"    {', '.join(names)}, = Z"]
        if self._consts:
            consts = ", ".join(f"c{k}" for k in range(self._consts))
            head.append(f"    {consts}, = C")
        self._functions.append(
            "\n".join(head + body[::-1] + [f"    return {result}"])
        )
        self._lines = None

    def line(self, text: str, depth: int = 1):
        self._lines.append((depth, (), text, False))

    def source(self) -> str:
        """The source text of the finished functions."""
        return "\n\n".join(self._functions) + "\n"

    def compile(self):
        """The finished functions by name."""
        namespace = {
            "_pow": _pow,
            "EvalDomainError": EvalDomainError,
            **{f"_f_{name}": fn for name, fn in FUNCTIONS.items()},
            **dict(self._pool.values()),
        }
        exec(compile(self.source(), "<straight-line code>", "exec"), namespace)
        return namespace

    # -- terms --------------------------------------------------------------

    def ref(self, term) -> str:
        """The source text of a term, an int or a float."""
        if type(term) is _Term:
            return term.name
        if type(term) is int:
            return f"({term})"
        key = term.hex()
        if key not in self._pool:
            self._pool[key] = (f"k{len(self._pool)}", term)
        return self._pool[key][0]

    def temp(self, text, width=1, call=False):
        """The term (``width`` > 1: a list of them) of the temporary holding
        ``text``, arithmetic unless ``call``; a right-hand side already
        written is not written again."""
        if text not in self._written:
            names = [f"t{self._temps + k}" for k in range(width)]
            self._temps += width
            self._lines.append((1, names, text, not call))
            terms = [_Term(self, name) for name in names]
            self._written[text] = terms if width > 1 else terms[0]
        return self._written[text]

    def zero_test(self, divisor):
        """Write the test that raises where ``divisor`` is zero, once."""
        test = f"if not {self.ref(divisor)}:"
        if test not in self._written:
            self._written[test] = None
            self.line(test)
            self.line('raise EvalDomainError("division by zero")', depth=2)

    # -- trees --------------------------------------------------------------

    def derivatives(self, shape, hess: bool):
        """Write the code of one tree's scalar walk at order ``1 + hess``;
        returns the terms (the derivative constants as floats) of its value,
        its gradient and (when ``hess``) its Hessian, else None."""
        x = [_Term(self, f"x{i}") for i in range(self.n)]
        return _rebuild(shape, self._constant_terms())._derivatives(x, 1 + hess)

    def _constant_terms(self):
        """The terms ``c<k>`` of the constants from the next one on."""
        while True:
            self._consts += 1
            yield _Term(self, f"c{self._consts - 1}")


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

    def accept(self, op):
        """Whether the operator ``op`` comes next; it is consumed if so."""
        found = self.peek()[:2] == ("op", op)
        if found:
            self.next()
        return found

    def expect(self, op, message):
        """Consume the operator ``op``; raise ``message`` at any other token."""
        kind, text, col = self.next()
        if (kind, text) != ("op", op):
            raise ParseError(message, self.line, col)

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
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            e = (Add if self.next()[1] == "+" else Sub)(e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            e = (Mul if self.next()[1] == "*" else Div)(e, self.factor())
        return e

    def factor(self):
        if self.accept("-"):
            return Neg(self.factor())
        return self.power()

    def power(self):
        e = self.atom()
        while self.accept("^"):
            e = Pow(e, self.exponent())
        return e

    def exponent(self):
        """An integer literal, optionally negated and/or parenthesised, whose
        m*(m-1) is a finite float."""
        parens = self.accept("(")
        sign = -1 if self.accept("-") else 1
        kind, text, col = self.next()
        if kind != "number" or not re.fullmatch(r"\d+", text):
            raise ParseError("exponent must be an integer", self.line, col)
        try:
            m = sign * int(text)  # beyond int's digit limit: ValueError
            float(m * (m - 1))  # the factor of the Hessian's u^(m-2)
        except (ValueError, OverflowError):
            raise ParseError(
                "exponent beyond the float range", self.line, col
            ) from None
        if parens:
            self.expect(")", "expected ')' after exponent")
        return m

    def atom(self):
        kind, text, col = self.next()
        if kind == "number":
            if not math.isfinite(float(text)):
                raise ParseError("number beyond the float range", self.line, col)
            return Const(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect("(", f"expected '(' after {text}")
                arg = self.expression()
                self.expect(")", "expected ')'")
                return Func(text, arg)
            if text not in self.names:
                raise ParseError(f"unknown identifier {text!r}", self.line, col)
            return Var(self.names[text])
        if kind == "op" and text == "(":
            e = self.expression()
            self.expect(")", "expected ')'")
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
    identifiers, numbers beyond the float range, a missing ``vars`` or
    ``objective`` declaration, or duplicate declarations of either.
    """
    var_names = None
    names = {}
    objective = None
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
                fault = (
                    "invalid variable name {!r}" if not _IDENT_RE.fullmatch(name)
                    else "variable name {!r} is reserved" if name in FUNCTIONS
                    else "duplicate variable {!r}" if name in names else None
                )
                if fault:
                    col = col_offset + m.start() + 1
                    raise ParseError(fault.format(name), line_no, col)
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
    names = p.var_names
    lines = ["vars: " + " ".join(names)]
    lines.append("objective: " + format_expr(p.objective, names))
    lines += ["eq: " + format_expr(e, names) for e in p.equalities]
    lines += ["ineq: " + format_expr(e, names) for e in p.inequalities]
    lines += [f"switch: {format_expr(f1, names)} | {format_expr(f2, names)}"
              for f1, f2 in p.switches]
    return "\n".join(lines) + "\n"
