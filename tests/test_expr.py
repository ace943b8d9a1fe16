import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from delay_noether import (
    DomainError,
    ExpressionError,
    ParseError,
    UnboundVariableError,
    UnknownFunctionError,
    VocabularyError,
    canonicalize,
    diff,
    evaluate,
    parse,
    to_source,
    total_derivative,
    variables,
)
from delay_noether.expr import (
    Binary,
    Constant,
    EvalError,
    Unary,
    Variable,
    check_vocabulary,
    compile,
    coordinate_name,
    lagrangian_vocabulary,
    point_vocabulary,
)


class TestParsing:
    def test_structure(self):
        assert parse("q0_d1^2") == Binary("pow", Variable("q0_d1"), Constant(2.0))
        assert parse("sin(t)") == Unary("sin", Variable("t"))
        assert parse("sint") == Variable("sint")

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("2+3*4", 14.0),
            ("2*3^2", 18.0),
            ("2^3^2", 512.0),  # right-associative
            ("-2^2", -4.0),  # unary minus binds looser than ^
            ("6/3/2", 1.0),  # left-associative
            ("(2+3)*4", 20.0),
            ("--3", 3.0),
            ("1.5e2", 150.0),
            (".5+2.", 2.5),
            ("2 ^ -1", 0.5),
        ],
    )
    def test_precedence(self, source, expected):
        assert evaluate(parse(source), {}) == pytest.approx(expected, abs=1e-15)

    def test_named_constants_fold(self):
        assert parse("pi") == Constant(math.pi)
        assert evaluate(parse("e^2"), {}) == pytest.approx(math.e**2)
        # pi/e are constants, not reserved function names
        assert parse("pie") == Variable("pie")

    @pytest.mark.parametrize(
        "source, offset",
        [
            ("2 + * 3", 4),
            ("(1+2", 4),
            ("", 0),
            ("2 $ 2", 2),
            ("1 2", 2),
        ],
    )
    def test_errors_carry_offset(self, source, offset):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.offset == offset

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError, match="foo"):
            parse("foo(1)")
        assert issubclass(UnknownFunctionError, ParseError)


class TestEvaluation:
    def test_unbound_variable_is_an_error(self):
        with pytest.raises(UnboundVariableError, match="'y'"):
            evaluate(parse("x + y"), {"x": 1.0})

    def test_extra_bindings_are_fine(self):
        assert evaluate(parse("x"), {"x": 2.0, "unused": 9.9}) == 2.0

    def test_purity(self):
        expr = parse("t^2 + t")
        bindings = {"t": 3.0}
        first = evaluate(expr, bindings)
        second = evaluate(expr, bindings)
        assert first == second == 12.0
        assert bindings == {"t": 3.0}

    @pytest.mark.parametrize(
        "source, bindings, fragment",
        [
            ("log(t - 2)", {"t": 1.0}, "log(t - 2)"),
            ("sqrt(-1 - t)", {"t": 1.0}, "sqrt"),
            ("1/(t - 1)", {"t": 1.0}, "1 / (t - 1)"),
            ("(0 - 2)^0.5", {}, "invalid power"),
        ],
    )
    def test_domain_errors_name_subexpression(self, source, bindings, fragment):
        with pytest.raises(DomainError) as err:
            evaluate(parse(source), bindings)
        assert fragment in str(err.value)


class TestDifferentiation:
    def test_power_rule_and_folding(self):
        assert diff(parse("q0_d1^2"), "q0_d1") == parse("2 * q0_d1")
        assert to_source(diff(parse("q0_d1^2"), "q0_d1")) == "2 * q0_d1"

    def test_wrt_absent_variable(self):
        assert diff(parse("sin(x) * x^3"), "t") == Constant(0.0)

    def test_constant_fold_in_sums(self):
        assert diff(parse("t + 5"), "t") == Constant(1.0)
        assert diff(parse("-q0_d0"), "q0_d0") == Constant(-1.0)

    def test_delayed_quadratic_partial(self):
        partial = diff(parse("(q0_d1 + q0_d1_tau)^2"), "q0_d1_tau")
        for u, v in [(0.3, -1.2), (2.0, 2.0), (-0.5, 0.0)]:
            value = evaluate(partial, {"q0_d1": u, "q0_d1_tau": v})
            assert value == pytest.approx(2 * (u + v), abs=1e-12)

    @pytest.mark.parametrize(
        "source, var, point, expected",
        [
            ("sin(t)", "t", 0.7, math.cos(0.7)),
            ("exp(2*t)", "t", 0.3, 2 * math.exp(0.6)),
            ("log(t)", "t", 2.5, 0.4),
            ("sqrt(t)", "t", 4.0, 0.25),
            ("tanh(t)", "t", 0.4, 1 / math.cosh(0.4) ** 2),
            ("t/x", "x", 2.0, -3.0 / 4.0),
            ("x^x", "x", 1.5, 1.5**1.5 * (math.log(1.5) + 1)),
        ],
    )
    def test_closed_forms(self, source, var, point, expected):
        bindings = {"t": 3.0, "x": 2.0}
        bindings[var] = point
        value = evaluate(diff(parse(source), var), bindings)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_total_derivative_advances_every_coordinate(self):
        node = total_derivative(parse("t * q0_d1 + q1_d0_tau"))
        assert to_source(node) == "q0_d1 + t * q0_d2 + q1_d1_tau"
        assert total_derivative(parse("3 * pi")) == Constant(0.0)

    def test_total_derivative_rejects_names_off_the_trajectory(self):
        with pytest.raises(ExpressionError, match="'x' does not move"):
            total_derivative(parse("x * t"))

    def test_against_finite_differences(self):
        for tree, var, bindings in helpers.random_diff_pairs(seed=101, count=100):
            symbolic = evaluate(diff(tree, var), bindings)
            numeric = helpers.fd_derivative(tree, var, bindings)
            assert abs(symbolic - numeric) <= 1e-6 * max(1.0, abs(symbolic)), (
                to_source(tree),
                var,
            )


_names = st.sampled_from(["t", "q0_d0", "q0_d1", "x_1"])


def _trees(min_const: float):
    leaves = st.one_of(
        st.floats(min_value=min_const, max_value=4.0, allow_nan=False).map(
            lambda v: Constant(float(v))
        ),
        _names.map(Variable),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(
                st.sampled_from(["add", "sub", "mul", "div"]), children, children
            ).map(lambda t: Binary(*t)),
            st.tuples(children, st.sampled_from([2.0, 3.0])).map(
                lambda t: Binary("pow", t[0], Constant(t[1]))
            ),
            st.tuples(
                st.sampled_from(helpers.UNARY_OPS), children
            ).map(lambda t: Unary(*t)),
        ),
        max_leaves=20,
    )


@given(tree=_trees(min_const=0.0))
@settings(max_examples=300, deadline=None)
def test_print_parse_is_tree_exact_without_negative_literals(tree):
    assert parse(to_source(tree)) == tree


@given(
    tree=_trees(min_const=-4.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=300, deadline=None)
def test_print_parse_preserves_values(tree, seed):
    rng = random.Random(seed)
    bindings = {n: rng.uniform(0.3, 1.7) for n in ["t", "q0_d0", "q0_d1", "x_1"]}
    try:
        expected = evaluate(tree, bindings)
    except DomainError:
        return
    if not math.isfinite(expected):
        return
    actual = evaluate(parse(to_source(tree)), bindings)
    # bitwise identity: printing preserves the tree up to sign nodes
    assert actual == expected


def _outcome(fn):
    """(value, None) or (None, the EvalError raised)."""
    try:
        return fn(), None
    except EvalError as error:
        return None, error


def _same_error(expected, actual):
    assert type(actual) is type(expected)
    assert str(actual) == str(expected)
    assert getattr(actual, "source", None) == getattr(expected, "source", None)
    assert getattr(actual, "name", None) == getattr(expected, "name", None)


def _same_value(expected, actual):
    assert actual == expected or (math.isnan(actual) and math.isnan(expected))


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_compile_agrees_with_evaluate(seed):
    rng = random.Random(seed)
    names = ["t", "q0_d0", "q0_d1_tau", "unbound"]
    tree = helpers.random_tree(rng, names, 4)
    points = [{n: rng.uniform(-2.0, 2.0) for n in names[:3]} for _ in range(4)]
    if rng.random() < 0.7:
        for point in points:
            point["unbound"] = rng.uniform(-2.0, 2.0)
    compiled = compile(tree)
    expected = [_outcome(lambda: evaluate(tree, point)) for point in points]

    # One-point batches: the same value, or the same error naming the same
    # subexpression (or variable).
    for point, (value, error) in zip(points, expected):
        batch = {n: np.array([v]) for n, v in point.items()}
        actual, actual_error = _outcome(lambda: compiled(batch))
        if error is not None:
            _same_error(error, actual_error)
        else:
            assert actual_error is None
            _same_value(value, float(np.broadcast_to(actual, (1,))[0]))

    # The whole batch raises if any point does, and never hands back a NaN
    # or inf in place of an error.
    batch = {n: np.array([p[n] for p in points]) for n in points[0]}
    actual, actual_error = _outcome(lambda: compiled(batch))
    if any(error is not None for _, error in expected):
        assert actual_error is not None
    else:
        assert actual_error is None
        for (value, _), got in zip(expected, np.broadcast_to(actual, (4,))):
            _same_value(value, float(got))


class TestCompile:
    @pytest.mark.parametrize(
        "source, value, message, culprit",
        [
            ("1 + log(x)", 0.0, "log of non-positive value", "log(x)"),
            ("sqrt(x - 1)", 0.5, "sqrt of negative value", "sqrt(x - 1)"),
            ("2 / (x - 1)", 1.0, "division by zero", "2 / (x - 1)"),
            ("x^0.5", -1.0, "invalid power", "x ^ 0.5"),
            ("x^-1", 0.0, "invalid power", "x ^ -1"),
            ("exp(x)", 1000.0, "exp out of range", "exp(x)"),
            ("cosh(x)", -1000.0, "cosh out of range", "cosh(x)"),
            ("sin(x)", math.inf, "sin out of range", "sin(x)"),
        ],
    )
    def test_domain_errors_name_the_subexpression(
        self, source, value, message, culprit
    ):
        tree = parse(source)
        with pytest.raises(DomainError, match=message) as scalar:
            evaluate(tree, {"x": value})
        with pytest.raises(DomainError, match=message) as batch:
            compile(tree)({"x": np.array([2.0, value, 3.0])})
        assert batch.value.source == scalar.value.source == culprit

    def test_unbound_variables_raise_in_evaluation_order(self):
        compiled = compile(parse("y + log(x)"))
        with pytest.raises(UnboundVariableError) as err:
            compiled({"x": np.array([1.0])})
        assert err.value.name == "y"
        with pytest.raises(DomainError):  # log(x) is reached before z
            compile(parse("log(x) * z"))({"x": np.array([-1.0])})

    def test_batch_names_the_first_failing_node_in_evaluation_order(self):
        # At x = 1, y = -1 evaluate fails at sqrt(y); at x = -1, y = 1 at
        # log(x).  The batch checks log(x) over both points first.
        tree = parse("log(x) + sqrt(y)")
        points = [{"x": 1.0, "y": -1.0}, {"x": -1.0, "y": 1.0}]
        sources = []
        for point in points:
            with pytest.raises(DomainError) as err:
                evaluate(tree, point)
            sources.append(err.value.source)
        assert sources == ["sqrt(y)", "log(x)"]
        with pytest.raises(DomainError, match="log of non-positive") as batch:
            compile(tree)({"x": np.array([1.0, -1.0]), "y": np.array([-1.0, 1.0])})
        assert batch.value.source == "log(x)"

    def test_functions_round_as_math(self):
        # numpy's own tan, exp, log, sinh, cosh and tanh kernels may differ
        # from libm in the last bit; the compiled closure calls math.
        x = np.random.default_rng(5).uniform(0.01, 5.0, 5000)
        for name in [op for op in helpers.UNARY_OPS if op != "neg"]:
            out = compile(Unary(name, Variable("x")))({"x": x})
            assert out.dtype == float
            assert out.tolist() == [getattr(math, name)(v) for v in x]

    def test_broadcasts_arrays_and_floats(self):
        compiled = compile(parse("q0_d0 * t + 2"))
        out = compiled({"q0_d0": np.array([1.0, 2.0, 3.0]), "t": 0.5})
        assert out.tolist() == [2.5, 3.0, 3.5]
        assert compile(parse("2 * pi"))({}) == 2 * math.pi
        assert compile(parse("x^2"))({"x": 3.0}) == 9.0

    @pytest.mark.parametrize("exponent", [2.0, 3.0, 0.5, -1.5])
    def test_powers_round_as_math_pow(self, exponent):
        # libm's pow and numpy's power kernels (even its x * x for x^2)
        # disagree in the last bit on a fraction of inputs.
        x = np.random.default_rng(3).uniform(0.0, 5.0, 20000)
        out = compile(Binary("pow", Variable("x"), Constant(exponent)))({"x": x})
        assert out.tolist() == [math.pow(v, exponent) for v in x]

    def test_overflow_in_arithmetic_is_a_value_as_in_evaluate(self):
        # Python floats overflow to inf without raising, and so does numpy.
        tree = parse("x * x")
        assert evaluate(tree, {"x": 1e200}) == math.inf
        assert compile(tree)({"x": np.array([1e200])})[0] == math.inf


class TestVocabulary:
    def test_coordinate_names(self):
        assert coordinate_name(0) == "q0_d0"
        assert coordinate_name(2, 1) == "q2_d1"
        assert coordinate_name(1, 3, delayed=True) == "q1_d3_tau"

    def test_alias_rewrite(self):
        tree = canonicalize(parse("q0 + q1_d0 + q10 * q2_d1_tau"))
        assert variables(tree) == frozenset(
            {"q0_d0", "q1_d0", "q10_d0", "q2_d1_tau"}
        )

    def test_delayed_shorthand_is_not_aliased(self):
        tree = canonicalize(parse("q0_tau"))
        assert variables(tree) == frozenset({"q0_tau"})
        with pytest.raises(VocabularyError, match="q0_tau"):
            check_vocabulary(tree, lagrangian_vocabulary(1, 1), "lagrangian")

    def test_vocabularies(self):
        assert lagrangian_vocabulary(1, 1) == frozenset(
            {"t", "q0_d0", "q0_d1", "q0_d0_tau", "q0_d1_tau"}
        )
        assert point_vocabulary(2) == frozenset({"t", "q0_d0", "q1_d0"})

    def test_violations_are_listed_sorted(self):
        with pytest.raises(VocabularyError, match="a_var, z_var"):
            check_vocabulary(parse("z_var + a_var"), frozenset({"t"}), "thing")
