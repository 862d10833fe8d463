"""Parser, printer and forward-mode derivative tests."""

import math

import numpy as np
import pytest

from switchstat.expr import (
    Add,
    Const,
    Div,
    EvalDomainError,
    Func,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
    eval_batch,
    eval_gradient,
    eval_hessian,
    eval_value,
    format_expr,
    format_problem,
    parse_expression,
    parse_problem,
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


class TestBatchedEvaluation:
    names = {"x1": 0, "x2": 1}
    # points in and out of every partial function's domain
    points = [
        (0.7, 1.3), (-1.2, 0.4), (0.0, 0.0), (0.0, 2.0), (-0.0, -1.0),
        (2.0, -0.0), (1e-78, 1.0), (1e-160, -3.0), (-1e-77, 2.5),
        (1000.0, 1.0), (-1000.0, 0.5), (710.0, 0.0), (1e200, 1.0),
        (1e155, -1e155), (np.inf, 1.0), (-np.inf, 0.3), (np.nan, 1.0),
    ]

    @pytest.mark.parametrize(
        "text",
        [
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
        ],
    )
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
