"""Parser, printer and forward-mode derivative tests."""

import math
import re
import struct

import numpy as np
import pytest

from switchstat.expr import (
    Add,
    Const,
    Div,
    EvalDomainError,
    Func,
    FUNCTIONS,
    Mul,
    Neg,
    ParseError,
    Problem,
    Pow,
    Sub,
    Var,
    _UNDERFLOW,
    _UNIT_ROUNDOFF,
    _affine_form,
    _apply,
    _expr_shape,
    _pow,
    _StraightLine,
    _up,
    eval_batch,
    eval_gradient,
    eval_hessian,
    eval_value,
    format_expr,
    format_problem,
    parse_expression,
    parse_problem,
)
from switchstat.relaxation import relax
from switchstat.stationarity import _problem_slots, _slot_expr
from tests.conftest import (
    CROSS_LINEAR,
    CROSS_QUADRATIC,
    INSTABILITY_BOTH,
    INSTABILITY_ONE,
    STABLE_WITHOUT_ND2,
)


class TestParseProblem:
    def test_cross_problem(self):
        p = parse_problem("vars: x1 x2\nobjective: x1 + x2\nswitch: x1 | x2\n")
        assert p.n == 2
        assert p.k == 1
        assert p.equalities == ()
        assert p.inequalities == ()
        assert eval_value(p.objective, (1.0, 2.0)) == 3.0

    def test_minimal(self):
        p = parse_problem("vars: x1\nobjective: x1\n")
        assert p.n == 1
        assert p.k == 0
        assert not p.equalities and not p.inequalities

    def test_quadratic_switch_problem(self):
        p = parse_problem(
            "vars: x1 x2\nobjective: (x1-1)^2 + (x2-1)^2\nswitch: x1 | x2\n"
        )
        assert p.k == 1
        assert eval_value(p.objective, (0.0, 0.0)) == 2.0
        f1, f2 = p.switches[0]
        assert eval_value(f1, (3.0, 7.0)) == 3.0
        assert eval_value(f2, (3.0, 7.0)) == 7.0

    def test_comments_and_blank_lines(self):
        p = parse_problem(
            "# a comment\nvars: x y  # trailing\n\nobjective: x*y + 1\nineq: x\n"
        )
        assert p.n == 2
        assert len(p.inequalities) == 1

    def test_vars_after_objective_is_fine(self):
        p = parse_problem("objective: u^2\nvars: u\n")
        assert p.n == 1

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse_problem("vars: x1\nobjective: x1 + x2\n")
        assert "x2" in str(err.value)
        assert err.value.line == 2

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_problem("vars: x1\nobjective: x1 + + )\n")
        assert err.value.line == 2
        assert err.value.col is not None

    def test_missing_objective(self):
        with pytest.raises(ParseError, match="objective"):
            parse_problem("vars: x1\nineq: x1\n")

    def test_missing_vars(self):
        with pytest.raises(ParseError, match="vars"):
            parse_problem("objective: 1\n")

    def test_duplicate_objective(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_problem("vars: x\nobjective: x\nobjective: x\n")

    def test_duplicate_variable(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_problem("vars: x x\nobjective: x\n")

    def test_bad_directive(self):
        with pytest.raises(ParseError):
            parse_problem("vars: x\nobjective: x\nminimize: x\n")

    def test_switch_needs_one_pipe(self):
        with pytest.raises(ParseError):
            parse_problem("vars: x\nobjective: x\nswitch: x\n")

    def test_reserved_name(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_problem("vars: sin\nobjective: sin\n")

    def test_noninteger_exponent(self):
        with pytest.raises(ParseError, match="integer"):
            parse_problem("vars: x\nobjective: x^2.5\n")

    @pytest.mark.parametrize(
        "text, col",
        [("1e999*x1 + x2^2", 12), ("x1 + 2e308", 17), ("9" * 400 + "*x1", 12)],
        ids=["1e999", "2e308", "400 digits"],
    )
    def test_literal_beyond_the_float_range(self, text, col):
        # a literal that reads as inf would be echoed as "inf", which no
        # problem file can say
        with pytest.raises(ParseError, match="float range") as err:
            parse_problem(f"vars: x1 x2\nobjective: {text}\n")
        assert (err.value.line, err.value.col) == (2, col)

    @pytest.mark.parametrize(
        "exponent, col",
        [("1" * 400, 15), ("1" * 160, 15), ("(-" + "1" * 160 + ")", 17),
         ("1" * 5000, 15)],
        ids=["400 digits", "160 digits", "-160 digits", "5000 digits"],
    )
    def test_exponent_beyond_the_float_range(self, exponent, col):
        # the Hessian of u^m multiplies by the float of m*(m-1)
        with pytest.raises(ParseError, match="float range") as err:
            parse_problem(f"vars: x1 x2\nobjective: x1^{exponent} + x2\n")
        assert (err.value.line, err.value.col) == (2, col)

    def test_extreme_numbers_inside_the_float_range(self):
        m = int("1" * 154)  # m*(m-1) is about 1.2e307
        p = parse_problem(f"vars: x1\nobjective: 1e-400*x1 + x1^{m}\n")
        assert p.objective.a.a == Const(0.0)
        assert p.objective.val_grad_hess([1.0]) == (1.0, [float(m)],
                                                    [[float(m * (m - 1))]])


class TestEvalValue:
    def test_zero_factor(self):
        names = {"x1": 0, "x2": 1}
        e = parse_expression("x1*x2", names)
        assert eval_value(e, (3.0, 0.0)) == 0.0

    def test_direct_substitution(self):
        names = {"x1": 0, "x2": 1}
        e = parse_expression("(x1-1)^2 + (x2-1)^2", names)
        assert eval_value(e, (0.0, 0.0)) == 2.0
        e2 = parse_expression("x1 + x2", names)
        assert eval_value(e2, (-1.0, -1.0)) == -2.0

    def test_functions(self):
        names = {"x": 0}
        assert eval_value(parse_expression("sin(x)", names), (0.0,)) == 0.0
        assert eval_value(parse_expression("exp(x)", names), (0.0,)) == 1.0
        assert eval_value(parse_expression("log(x)", names), (1.0,)) == 0.0
        assert eval_value(parse_expression("cos(x)", names), (0.0,)) == 1.0

    def test_functions_of_numpy_and_int_values(self):
        # a walk at numpy scalars, or over int constants, applies the math
        # functions as it does at floats; only a carrier has a call method
        e = parse_expression("sin(x) + exp(x)*log(x)", {"x": 0})
        ref = e.val_grad_hess([0.5])
        assert e.val([np.float64(0.5)]) == ref[0]
        assert e.val_grad_hess([np.float64(0.5)]) == ref
        assert Func("cos", Const(2)).val(()) == math.cos(2.0)

    def test_precedence(self):
        names = {"x": 0}
        assert eval_value(parse_expression("2 + 3*x^2", names), (2.0,)) == 14.0
        assert eval_value(parse_expression("-x^2", names), (2.0,)) == -4.0
        assert eval_value(parse_expression("(2 + 3)*x", names), (2.0,)) == 10.0
        assert eval_value(parse_expression("2^-1", names), (0.0,)) == 0.5

    def test_domain_errors(self):
        names = {"x": 0}
        with pytest.raises(EvalDomainError):
            eval_value(parse_expression("log(x)", names), (0.0,))
        with pytest.raises(EvalDomainError):
            eval_value(parse_expression("log(x)", names), (-1.0,))
        with pytest.raises(EvalDomainError):
            eval_value(parse_expression("1/x", names), (0.0,))
        with pytest.raises(EvalDomainError):
            eval_value(parse_expression("x^(-2)", names), (0.0,))

    def test_range_errors_are_domain_errors(self):
        names = {"x": 0}
        with pytest.raises(EvalDomainError):
            eval_value(parse_expression("exp(x)", names), (1000.0,))
        with pytest.raises(EvalDomainError):
            eval_value(parse_expression("x^3", names), (1e200,))
        with pytest.raises(EvalDomainError):
            eval_value(parse_expression("sin(x*x)", names), (1e200,))
        with pytest.raises(EvalDomainError):
            eval_gradient(parse_expression("cos(x*x)", names), (1e200,))
        # only the derivative's power u^-4 overflows
        e = parse_expression("x^(-3)", names)
        assert eval_value(e, (1e-78,)) == 1e-78 ** -3
        with pytest.raises(EvalDomainError):
            eval_gradient(e, (1e-78,))
        # only the Hessian's power u^-3 overflows
        e = Pow(Var(0), -1)
        assert e.val_grad([1e-103]) == (1e103, [-1e206])
        with pytest.raises(EvalDomainError, match="power overflows"):
            e.val_grad_hess([1e-103])


class TestGradientsAndHessians:
    names = {"x1": 0, "x2": 1}

    def test_polynomial_gradient(self):
        e = parse_expression("(x1-1)^2 + (x2-1)^2", self.names)
        assert np.array_equal(eval_gradient(e, (0.0, 0.0)), [-2.0, -2.0])

    def test_product_rule(self):
        e = parse_expression("x1*x2", self.names)
        assert np.array_equal(eval_gradient(e, (3.0, 5.0)), [5.0, 3.0])
        assert np.array_equal(eval_gradient(e, (0.0, 0.0)), [0.0, 0.0])

    def test_linear_gradient(self):
        e = parse_expression("x1 + x2", self.names)
        assert np.array_equal(eval_gradient(e, (-7.0, 11.0)), [1.0, 1.0])

    def test_quadratic_hessian(self):
        e = parse_expression("(x1-1)^2 + (x2-1)^2", self.names)
        assert np.array_equal(eval_hessian(e, (0.3, -0.7)), np.diag([2.0, 2.0]))

    def test_bilinear_hessian(self):
        e = parse_expression("x1*x2", self.names)
        assert np.array_equal(
            eval_hessian(e, (4.0, -2.0)), np.array([[0.0, 1.0], [1.0, 0.0]])
        )

    def test_linear_hessian_is_zero(self):
        e = parse_expression("x1 + x2", self.names)
        assert np.array_equal(eval_hessian(e, (1.0, 2.0)), np.zeros((2, 2)))

    def test_quotient(self):
        e = parse_expression("x1/x2", self.names)
        x = (3.0, 2.0)
        assert eval_value(e, x) == 1.5
        assert np.allclose(eval_gradient(e, x), [0.5, -0.75])
        assert np.allclose(
            eval_hessian(e, x), [[0.0, -0.25], [-0.25, 0.75]]
        )

    def test_transcendental_chain(self):
        e = parse_expression("exp(sin(x1) + log(x2))", self.names)
        x = (0.7, 1.3)
        w = math.exp(math.sin(0.7) + math.log(1.3))
        assert eval_value(e, x) == pytest.approx(w, rel=1e-15)
        g = eval_gradient(e, x)
        assert g[0] == pytest.approx(w * math.cos(0.7), rel=1e-14)
        assert g[1] == pytest.approx(w / 1.3, rel=1e-14)

    def test_each_node_states_its_derivatives_once(self):
        for node in (Const, Var, Add, Sub, Mul, Div, Pow, Neg, Func):
            assert "_derivatives" in vars(node), node
            assert not {"val", "val_grad", "val_grad_hess"} & set(vars(node)), node
            assert ("max_var_index" in vars(node)) is (node is Var), node


def _random_polynomial(rng, n, max_terms=6, max_degree=3):
    """Monomial-sum polynomial as an expression tree."""
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        coef = Const(round(float(rng.uniform(-2, 2)), 3))
        term = coef
        degree = int(rng.integers(0, max_degree + 1))
        exponents = [0] * n
        for _ in range(degree):
            exponents[rng.integers(0, n)] += 1
        for i, e in enumerate(exponents):
            if e == 1:
                term = Mul(term, Var(i))
            elif e > 1:
                term = Mul(term, Pow(Var(i), e))
        terms.append(term)
    expr = terms[0]
    for t in terms[1:]:
        expr = Add(expr, t)
    return expr


def _random_tree(rng, n, depth):
    """Random tree over the full node set (for printer round-trips)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Var(int(rng.integers(0, n)))
        return Const(round(float(rng.uniform(0, 3)), 3))
    pick = rng.integers(0, 7)
    if pick == 0:
        return Add(_random_tree(rng, n, depth - 1), _random_tree(rng, n, depth - 1))
    if pick == 1:
        return Sub(_random_tree(rng, n, depth - 1), _random_tree(rng, n, depth - 1))
    if pick == 2:
        return Mul(_random_tree(rng, n, depth - 1), _random_tree(rng, n, depth - 1))
    if pick == 3:
        return Div(_random_tree(rng, n, depth - 1), _random_tree(rng, n, depth - 1))
    if pick == 4:
        return Neg(_random_tree(rng, n, depth - 1))
    if pick == 5:
        return Pow(_random_tree(rng, n, depth - 1), int(rng.integers(-3, 4)))
    return Func(
        ("sin", "cos", "exp", "log")[rng.integers(0, 4)],
        _random_tree(rng, n, depth - 1),
    )


class TestDerivativeProperties:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            e = _random_polynomial(rng, n)
            x = rng.uniform(-2, 2, size=n)
            g = eval_gradient(e, x)
            for i in range(n):
                h = 1e-5 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (eval_value(e, xp) - eval_value(e, xm)) / (2 * h)
                assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))

    def test_hessian_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            e = _random_polynomial(rng, n)
            x = rng.uniform(-2, 2, size=n)
            H = eval_hessian(e, x)
            for i in range(n):
                h = 1e-5 * max(1.0, abs(x[i]))
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (eval_gradient(e, xp) - eval_gradient(e, xm)) / (2 * h)
                assert np.all(
                    np.abs(fd - H[i]) <= 1e-5 * np.maximum(1.0, np.abs(H[i]))
                )

    def test_hessian_bitwise_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 4))
            e = _random_tree(rng, n, 4)
            x = rng.uniform(0.3, 2.0, size=n)  # keep log/div inside domains
            try:
                H = eval_hessian(e, x)
            except EvalDomainError:
                continue
            if not np.all(np.isfinite(H)):
                continue
            assert np.array_equal(H, H.T)


class TestPrinterRoundTrip:
    def test_problem_round_trip(self, cross_quadratic):
        text = format_problem(cross_quadratic)
        assert parse_problem(text) == cross_quadratic
        assert parse_problem(format_problem(parse_problem(text))) == parse_problem(
            text
        )

    def test_full_problem_round_trip(self):
        text = (
            "vars: a b c\n"
            "objective: a^2 - 2*b/c + sin(a*b)\n"
            "eq: a + b - 1\n"
            "ineq: c - 1\n"
            "ineq: 4 - a^2\n"
            "switch: a - b | c - 1\n"
        )
        p = parse_problem(text)
        assert parse_problem(format_problem(p)) == p

    def test_random_trees_round_trip(self):
        rng = np.random.default_rng(10)
        names = ["x1", "x2", "x3"]
        table = {name: i for i, name in enumerate(names)}
        for _ in range(400):
            e = _random_tree(rng, 3, 4)
            printed = format_expr(e, names)
            # printed constants are nonnegative here, so reparse is structural
            reparsed = parse_expression(printed, table)
            assert parse_expression(format_expr(reparsed, names), table) == reparsed
            values = np.array([0.7, 1.1, 1.9])
            try:
                v1 = eval_value(e, values)
            except EvalDomainError:
                continue
            v2 = eval_value(reparsed, values)
            if math.isfinite(v1):
                assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


def _bits(a):
    """Bytes of a float array with every nan made the same nan, so that
    equality below means bitwise equality, signed zeros included."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def _check_batch(e, points):
    """eval_batch against eval_value / eval_gradient / eval_hessian, lane by
    lane: the same failures, and bitwise-equal results elsewhere."""
    X = np.array(points, dtype=float)
    for hessian in (False, True):
        v, g, H, bad = eval_batch(e, X, hessian=hessian)
        assert v.shape == (len(X),) and g.shape == X.shape and bad.shape == v.shape
        assert (H is None) is not hessian
        for k, x in enumerate(X):
            try:
                sg = eval_gradient(e, x)
                sH = eval_hessian(e, x) if hessian else None
            except EvalDomainError:
                assert bad[k], (e, x, hessian)
                continue
            assert not bad[k], (e, x, hessian)
            assert _bits(v[k]) == _bits(eval_value(e, x))
            assert np.array_equal(g[k], sg, equal_nan=True)
            assert _bits(g[k]) == _bits(sg)
            if hessian:
                assert np.array_equal(H[k], sH, equal_nan=True)
                assert _bits(H[k]) == _bits(sH)
                assert _bits(H[k]) == _bits(H[k].T)


# outside a node's domain at every x, since x^0 is 1.0: compiled code must
# raise when it runs, not while it is written
FOLDS_TO_A_DOMAIN_ERROR = ["x1/(x1^0 - x2^0)", "log(x1^0 - x2^0)",
                           "(x1^0 - x2^0)^(-1)"]

# expressions over x1, x2 with every node type, for the evaluators compared
# with the tree methods
TEXTS = [
    "2.5",
    "x2",
    "x1 + x2",
    "x1 - 3*x2",
    "x1*x2*x1",
    "(x1 - 1)*(x2 + 2)",
    "x1/x2",
    "(x1*x2 + 1)/(x1 - x2)",
    "x1^0",
    "x1^1",
    "(x1 + x2)^2",
    "x1^7 - x2^5",
    "x1^(-1)",
    "x1^(-3) + x2^(-2)",
    "(x1*x2)^12",
    "-x1",
    "-(x1*x2)^3",
    "sin(x1*x2)",
    "cos(x1 - x2^2)",
    "exp(x1)",
    "exp(x1*x2/2)",
    "log(x1)",
    "log(x1*x2 + 1)",
    "sin(x1*x1) + cos(x2*x2)",
    "exp(sin(x1) + log(x2))/(1 + x1^2)",
    "x2/log(x1)^(-2)",
] + FOLDS_TO_A_DOMAIN_ERROR


class TestBatchedEvaluation:
    names = {"x1": 0, "x2": 1}
    # points in and out of every partial function's domain
    points = [
        (0.7, 1.3), (-1.2, 0.4), (0.0, 0.0), (0.0, 2.0), (-0.0, -1.0),
        (2.0, -0.0), (1e-78, 1.0), (1e-160, -3.0), (-1e-77, 2.5),
        (1000.0, 1.0), (-1000.0, 0.5), (710.0, 0.0), (1e200, 1.0),
        (1e155, -1e155), (np.inf, 1.0), (-np.inf, 0.3), (np.nan, 1.0),
    ]

    @pytest.mark.parametrize("text", TEXTS)
    def test_matches_scalar_evaluation(self, text):
        _check_batch(parse_expression(text, self.names), self.points)

    def test_random_trees(self):
        rng = np.random.default_rng(21)
        X = np.concatenate(
            [rng.uniform(-2, 2, size=(12, 3)), [[0.0, 1.0, -1.0], [3.0, -0.0, 0.5]]]
        )
        for _ in range(150):
            _check_batch(_random_tree(rng, 3, 4), X)

    @pytest.mark.parametrize("text", ["exp(x1)", "log(x2)", "sin(x1)", "cos(x2)"])
    def test_transcendentals_on_many_points(self, text):
        # numpy's own exp and log differ from libm in the last bit on a
        # small share of arguments; many arguments make a difference show
        rng = np.random.default_rng(22)
        X = np.column_stack(
            [rng.uniform(-30.0, 30.0, 20000), rng.uniform(1e-3, 60.0, 20000)]
        )
        e = parse_expression(text, self.names)
        v, g, _, bad = eval_batch(e, X)
        assert not bad.any()
        assert _bits(v) == _bits([eval_value(e, x) for x in X])
        assert _bits(g[:2000]) == _bits([eval_gradient(e, x) for x in X[:2000]])

    def test_failures_stay_in_their_lane(self):
        e = parse_expression("log(x1) + 1/x2", self.names)
        X = np.array([(1.0, 1.0), (0.0, 1.0), (2.0, 0.0), (3.0, 4.0)])
        v, _, _, bad = eval_batch(e, X)
        assert bad.tolist() == [False, True, True, False]
        assert v[0] == 1.0 and v[3] == math.log(3.0) + 0.25

    def test_empty_batch(self):
        e = parse_expression("sin(x1)*x2", self.names)
        v, g, H, bad = eval_batch(e, np.zeros((0, 2)), hessian=True)
        assert v.shape == (0,) and g.shape == (0, 2) and H.shape == (0, 2, 2)
        assert bad.shape == (0,)


def _straight_line(e, n, hess):
    """``e`` as one compiled straight-line function of a point returning
    (value, gradient) or (value, gradient, Hessian), and its source."""
    consts = []
    code = _StraightLine(n)
    code.begin("f")
    v, g, H = code.derivatives(_expr_shape(e, consts), hess)
    parts = [code.ref(v), "[" + ", ".join(map(code.ref, g)) + "]"]
    if hess:
        rows = ("[" + ", ".join(map(code.ref, row)) + "]" for row in H)
        parts.append("[" + ", ".join(rows) + "]")
    code.end(", ".join(parts))
    f = code.compile()["f"]
    return (lambda x: f(list(x), consts)), code.source()


def _outcome(fn, x):
    """What ``fn(x)`` gives: EvalDomainError, or the bytes of every float it
    returns; any other exception propagates."""
    try:
        out = fn(x)
    except EvalDomainError:
        return EvalDomainError
    v, g, *H = out
    return _bits([v, *g, *(np.ravel(H) if H else [])])


def _check_straight_line(e, n, points):
    """The compiled code of ``e`` against val_grad and val_grad_hess: the
    same failures, and bitwise-equal results elsewhere."""
    grad, _ = _straight_line(e, n, hess=False)
    hess, _ = _straight_line(e, n, hess=True)
    raised = 0
    for x in points:
        x = [float(v) for v in x]
        assert _outcome(grad, x) == _outcome(e.val_grad, x), (e, x)
        assert _outcome(hess, x) == _outcome(e.val_grad_hess, x), (e, x)
        raised += not isinstance(_outcome(grad, x), bytes)
    return raised


class TestStraightLine:
    """The code compiled from an expression's shape runs the tree methods'
    operations: equal bits, and the same failures at the same points."""

    @pytest.mark.parametrize("text", TEXTS)
    def test_matches_tree_methods(self, text):
        e = parse_expression(text, TestBatchedEvaluation.names)
        _check_straight_line(e, 2, TestBatchedEvaluation.points)

    def test_random_trees(self):
        rng = np.random.default_rng(23)
        # signed zeros, and points outside the domains of log, division,
        # negative powers, exp and sin/cos
        special = [0.0, -0.0, 1e-160, -2.5, 710.0, 1e200, np.inf, np.nan]
        points = [tuple(rng.uniform(-2, 2, 3)) for _ in range(10)] + [
            tuple(rng.choice(special + [0.5, -1.0], 3)) for _ in range(12)
        ]
        raised = 0
        for _ in range(150):
            raised += _check_straight_line(_random_tree(rng, 3, 4), 3, points)
        assert raised > 100

    def test_negative_variable_index_wraps_as_in_the_walk(self):
        e = Mul(Pow(Var(-1), 2), Add(Var(0), Const(0.5)))
        assert _check_straight_line(e, 2, TestBatchedEvaluation.points) > 0
        with pytest.raises(IndexError):
            _straight_line(Var(-3), 2, hess=False)

    def test_constants_are_arguments(self):
        names = {"x1": 0, "x2": 1}
        a = parse_expression("0.375*x1^2 - exp(1.625*x2)/(x1 + 2.75)", names)
        b = parse_expression("4.5*x1^2 - exp(0.125*x2)/(x1 + 8.25)", names)
        ca, cb = [], []
        assert _expr_shape(a, ca) == _expr_shape(b, cb)
        assert (ca, cb) == ([0.375, 1.625, 2.75], [4.5, 0.125, 8.25])
        _, source = _straight_line(a, 2, hess=True)
        assert not any(repr(c) in source for c in ca)
        assert not re.search(r"\d\.|\.\d|\d[eE]", source)  # no float literal


# signed zeros, the smallest subnormal, values whose square underflows to
# 0.0 (1e-200) or just does not (1.5e-154), values whose square or cube
# overflows, the infinities and nan
FLOAT_EDGES = [0.0, -0.0, 5e-324, 1e-200, 1.5e-154, 1e154, 1e308,
               math.inf, -math.inf, math.nan]


def _node_trees():
    """Every node type over x1 and x2, the unary ones (powers of several
    exponents and every function) also over the product x1*x2, whose
    derivatives are not constants."""
    x1, x2 = Var(0), Var(1)
    trees = [Const(2.5), x2, Add(x1, x2), Sub(x1, x2), Mul(x1, x2), Div(x1, x2)]
    for u in (x1, Mul(x1, x2)):
        trees += [Neg(u)] + [Pow(u, m) for m in range(-3, 4)]
        trees += [Func(name, u) for name in FUNCTIONS]
    return trees


def _leaves(out):
    """The entries of nested tuples and lists, in order."""
    if isinstance(out, (tuple, list)):
        return [v for item in out for v in _leaves(item)]
    return [out]


class TestFloatEdges:
    """At the edges of the float range every evaluator returns floats or
    raises EvalDomainError, never another exception, and the tree methods,
    eval_batch and the straight-line code agree bit for bit on the values
    and on where they raise."""

    points = [(a, b) for a in FLOAT_EDGES for b in FLOAT_EDGES]

    @pytest.mark.parametrize("e", _node_trees(), ids=repr)
    def test_every_node_type(self, e):
        for x in self.points:
            for method in (e.val, e.val_grad, e.val_grad_hess):
                try:
                    out = method(list(x))
                except EvalDomainError:
                    continue
                assert all(type(v) is float for v in _leaves(out)), (e, x, out)
        _check_batch(e, self.points)
        _check_straight_line(e, 2, self.points)

    def test_log_of_a_value_whose_square_underflows(self):
        e = parse_expression("log(x1)", {"x1": 0})
        assert eval_value(e, [1e-200]) == math.log(1e-200)
        _, g, H = e.val_grad_hess([1e-200])
        assert g == [1.0 / 1e-200] and H == [[-math.inf]]


def _reference_affine_form(e, n, radius):
    """The node-by-node walk that ``_affine_form``'s carrier replaced, kept
    as the reference: it dispatches on the node types and folds each
    Var-free subtree to the float of its ``val``."""
    u, eta = _UNIT_ROUNDOFF, _UNDERFLOW

    def constant(c):
        try:
            k = float(c.val(()))
        except EvalDomainError:
            return None
        return k if math.isfinite(k) else None

    def walk(e):
        """``(A, B, D, mag, err)``, ``mag`` bounding |e(x)|, or None."""
        t = type(e)
        if e.max_var_index() < 0:
            k = constant(e)
            if k is None:
                return None
            num, den = k.as_integer_ratio()
            return [0] * n, num, den, abs(k), 0.0
        if t is Var:
            a = [0] * n
            a[e.index] = 1
            return a, 0, 1, float(radius), 0.0
        if t is Neg:
            f = walk(e.a)
            return f and ([-c for c in f[0]], -f[1]) + f[2:]
        if t in (Add, Sub):
            f, g = walk(e.a), walk(e.b)
            if f is None or g is None:
                return None
            s = 1 if t is Add else -1
            (a, b, d), (a2, b2, d2) = f[:3], g[:3]
            mag, err = _up(f[3] + g[3]), _up(f[4] + g[4])
            return (
                [c * d2 + s * c2 * d for c, c2 in zip(a, a2)],
                b * d2 + s * b2 * d,
                d * d2,
                mag,
                _up(err + _up(u * _up(mag + err))),
            )
        if t is Mul and e.a.max_var_index() < 0:
            k, f = constant(e.a), walk(e.b)
        elif t in (Mul, Div) and e.b.max_var_index() < 0:
            k, f = constant(e.b), walk(e.a)
        else:
            return None  # Pow, Func, or a product of two variable factors
        if k is None or f is None or (t is Div and k == 0.0):
            return None
        a, b, d, mag, err = f
        num, den = k.as_integer_ratio()
        err = _up(err + _up(u * _up(mag + err)))
        s = abs(k)
        if t is Div:
            # times den / num, the denominator kept positive
            sign = 1 if num > 0 else -1
            num, den = sign * den, sign * num
            mag, err = _up(mag / s), _up(err / s)
        else:
            mag, err = _up(mag * s), _up(err * s)
        return [c * num for c in a], b * num, d * den, mag, _up(err + eta)

    form = walk(e)
    if form is None or not form[4] < math.inf:
        return None
    a, b, d, _, err = form
    g = math.gcd(*a, b, d)
    return tuple(c // g for c in a), b // g, d // g, err


def _problem_functions():
    """``(tree, n)`` for the objective and every slot function of the five
    examples, mid3, levelsets-3d and the 100 criterion-7 corpus problems,
    each plain and relaxed at t = 0.1 and t = 0.01."""
    from tests.test_stationarity import LEVELSETS_3D, MID3, _corpus

    texts = [CROSS_LINEAR, CROSS_QUADRATIC, INSTABILITY_BOTH, INSTABILITY_ONE,
             STABLE_WITHOUT_ND2, MID3, LEVELSETS_3D]
    texts += [text for text, _ in _corpus()]
    out = []
    for text in texts:
        p = parse_problem(text)
        for q in (p, relax(p, 0.1).problem, relax(p, 0.01).problem):
            out.append((q.objective, q.n))
            out += [(_slot_expr(q, s), q.n) for s in _problem_slots(q)]
    return out


# signed zeros, a subnormal, a tiny, a huge and the largest finite constant,
# and some ordinary ones, for random trees of mostly affine nodes
AFFINE_CONSTANTS = [0.0, -0.0, 2.5e-310, 1e-300, 0.1, 1.5, -3.0, 7.0, 1e300,
                    1e308, -1e308]


def _random_affine_tree(rng, n, depth):
    """Random tree of mostly affine nodes over :data:`AFFINE_CONSTANTS`, with
    powers, functions and products of two variable factors among them."""
    def const():
        return Const(AFFINE_CONSTANTS[rng.integers(0, len(AFFINE_CONSTANTS))])

    def sub():
        return _random_affine_tree(rng, n, depth - 1)

    if depth == 0 or rng.random() < 0.25:
        return Var(int(rng.integers(0, n))) if rng.random() < 0.5 else const()
    pick = rng.integers(0, 9)
    if pick < 4:
        return (Add, Sub, Mul, Div)[pick](sub(), sub())
    if pick == 4:
        return Mul(const(), sub())
    if pick == 5:
        return Div(sub(), const())
    if pick == 6:
        return Neg(sub())
    if pick == 7:
        return Pow(sub(), int(rng.integers(-2, 3)))
    return Func(("sin", "cos", "exp", "log")[rng.integers(0, 4)], sub())


class TestAffineForm:
    """``_affine_form``, the tree's own ``val`` run on exact affine carriers,
    gives the repr of the node-by-node walk it replaced: the same
    ``(A, B, D, err)`` bits or None, at small, huge and tiny radii."""

    radii = (2.4, 1e300, 1e-300)

    def _compare(self, e, n):
        """The forms of ``e`` at every radius, each equal to the reference's."""
        forms = [_affine_form(e, n, r) for r in self.radii]
        ref = [_reference_affine_form(e, n, r) for r in self.radii]
        assert repr(forms) == repr(ref), format_expr(e, [f"x{i + 1}" for i in range(n)])
        return forms

    def test_problem_functions_match_the_reference(self):
        functions = _problem_functions()
        forms = [f for e, n in functions for f in self._compare(e, n)]
        assert len(forms) == 3 * len(functions) > 3000
        assert sum(f is not None for f in forms) > 1000

    def test_random_trees_match_the_reference(self):
        rng = np.random.default_rng(20261020)
        forms = [f for _ in range(10000)
                 for f in self._compare(_random_affine_tree(rng, 3, 5), 3)]
        assert sum(f is not None for f in forms) > 1000

    @pytest.mark.parametrize("text, radius, form", [
        ("2 - x1", 2.4, ((-1, 0), 2, 1, 4.884981308350693e-16)),
        ("x1/(0-4) - 2*x2", 2.4, ((-1, -8), 0, 4, 1.1990408665951703e-15)),
        ("3/x1", 2.4, None),  # a carrier divisor
        ("x1*x2", 2.4, None),  # a product of two carriers
        ("x1^1", 2.4, None),
        ("x1^0", 2.4, None),
        ("sin(x1)", 2.4, None),
        ("x1/(1-1)", 2.4, None),  # a zero divisor: EvalDomainError
        ("exp(800)*x1", 2.4, None),  # exp overflows: EvalDomainError
        ("(1e300*1e300)*x1", 2.4, None),  # inf meets a carrier
        ("(1e300*1e300 - 1e300*1e300) + x1", 2.4, None),  # nan meets one
        ("1e308*x1", 1e300, None),  # the bound is not finite
        ("3", 2.4, ((0, 0), 3, 1, 0.0)),  # a Var-free tree
        ("-0.0*x1", 2.4, ((0, 0), 0, 1, 1.5e-323)),
        ("log(0-1) + x1", 2.4, None),
    ])
    def test_edge_inputs(self, text, radius, form):
        e = parse_expression(text, {"x1": 0, "x2": 1})
        self._compare(e, 2)
        assert repr(_affine_form(e, 2, radius)) == repr(form)
        assert repr(_reference_affine_form(e, 2, radius)) == repr(form)


def _reference_val(e, x):
    """The nine ``val`` methods that the walk at order 0 replaced, kept
    verbatim as the reference and dispatched on the node type."""
    t = type(e)
    if t is Const:
        return e.value
    if t is Var:
        return x[e.index]
    if t is Add:
        return _reference_val(e.a, x) + _reference_val(e.b, x)
    if t is Sub:
        return _reference_val(e.a, x) - _reference_val(e.b, x)
    if t is Mul:
        return _reference_val(e.a, x) * _reference_val(e.b, x)
    if t is Div:
        vb = _reference_val(e.b, x)
        if vb == 0.0:
            raise EvalDomainError("division by zero")
        return _reference_val(e.a, x) / vb
    if t is Pow:
        return _pow(_reference_val(e.base, x), e.exponent)
    if t is Neg:
        return -_reference_val(e.a, x)
    if t is Func:
        return _apply(e.name, _reference_val(e.arg, x))[0]
    raise TypeError(f"unknown node {t.__name__}")


def _reference_max_var_index(e):
    """The ``max_var_index`` methods that the one over the node's fields
    replaced, kept verbatim as the reference."""
    t = type(e)
    if t is Const:
        return -1
    if t is Var:
        return e.index
    if t in (Add, Sub, Mul, Div):
        return max(_reference_max_var_index(e.a), _reference_max_var_index(e.b))
    if t is Pow:
        return _reference_max_var_index(e.base)
    if t is Neg:
        return _reference_max_var_index(e.a)
    if t is Func:
        return _reference_max_var_index(e.arg)
    raise TypeError(f"unknown node {t.__name__}")


def _value_outcome(fn, x):
    """The bytes of the float ``fn(x)``, or the type of what it raises.  A
    nan counts as one nan: the sign of ``nan * -nan`` in CPython 3.11 depends
    on whether the interpreter has specialised the instruction yet."""
    try:
        v = fn(x)
    except Exception as exc:  # the type is compared
        return type(exc)
    return struct.pack("d", math.nan if v != v else v)


class TestValueIsTheWalkAtOrderZero:
    """``val``, the walk at order 0, gives the bits and the exception type of
    the per-node ``val`` methods it replaced, and ``max_var_index`` over the
    node's fields gives their index."""

    def _compare(self, e, points):
        """Compares ``e`` at every point; returns the number that raised."""
        assert e.max_var_index() == _reference_max_var_index(e), e
        raised = 0
        for x in points:
            x = [float(v) for v in x]
            got = _value_outcome(e.val, x)
            assert got == _value_outcome(lambda x: _reference_val(e, x), x), (e, x)
            raised += not isinstance(got, bytes)
        return raised

    @pytest.mark.parametrize("text", TEXTS)
    def test_texts(self, text):
        e = parse_expression(text, TestBatchedEvaluation.names)
        self._compare(e, TestBatchedEvaluation.points)

    def test_random_trees(self):
        # TestStraightLine's trees at its points
        rng = np.random.default_rng(23)
        special = [0.0, -0.0, 1e-160, -2.5, 710.0, 1e200, np.inf, np.nan]
        points = [tuple(rng.uniform(-2, 2, 3)) for _ in range(10)] + [
            tuple(rng.choice(special + [0.5, -1.0], 3)) for _ in range(12)
        ]
        raised = sum(self._compare(_random_tree(rng, 3, 4), points)
                     for _ in range(150))
        assert raised > 100

    def test_problem_functions(self):
        rng = np.random.default_rng(28)
        functions = _problem_functions()
        raised = 0
        for e, n in functions:
            points = [rng.uniform(-2.4, 2.4, n) for _ in range(4)]
            points += [[v] * n for v in (0.0, -0.0, -1.0, 1e-160, 1e200, np.inf)]
            raised += self._compare(e, points)
        assert len(functions) > 1300 and raised > 0

    @pytest.mark.parametrize("text, x, value", [
        ("x1^(-2)", [1e-103], 1e-103 ** -2),  # val_grad's u^-3 overflows
        ("x1^0", [0.0], 1.0),
        ("1/x1", [0.0], EvalDomainError),
        ("0^(-1)", [0.0], EvalDomainError),
    ])
    def test_edge_inputs(self, text, x, value):
        e = parse_expression(text, {"x1": 0})
        self._compare(e, [x])
        if value is EvalDomainError:
            with pytest.raises(EvalDomainError):
                e.val(x)
        else:
            assert struct.pack("d", e.val(x)) == struct.pack("d", value)

    def test_order_zero_runs_no_derivative_power(self):
        e = Pow(Var(0), -2)
        assert e.val([1e-103]) == 1e-103 ** -2 == 1e206
        with pytest.raises(EvalDomainError, match="power overflows"):
            e.val_grad([1e-103])

    def test_a_quotient_evaluates_its_numerator_first(self):
        e = parse_expression("log(x1)/x2", {"x1": 0, "x2": 1})
        with pytest.raises(EvalDomainError, match="log of a nonpositive value"):
            e.val([-1.0, 0.0])
        with pytest.raises(EvalDomainError, match="division by zero"):
            _reference_val(e, [-1.0, 0.0])

    def test_problems_check_every_field(self):
        # a variable read only under a function, a power or a negation
        for text in ("sin(x3)", "x3^2", "-x3", "x1 + exp(x3 - x2)"):
            e = parse_expression(text, {"x1": 0, "x2": 1, "x3": 2})
            assert e.max_var_index() == 2
            with pytest.raises(ValueError, match="index 2 but n=2"):
                Problem(n=2, var_names=("x1", "x2"), objective=e)
        assert Const(1.5).max_var_index() == -1
