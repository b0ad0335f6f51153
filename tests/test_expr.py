"""Unit tests: the expression AST, evaluation, and NULL semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.functions import FunctionRegistry
from repro.errors import ExecutionError, PlanError
from repro.expr.expressions import (
    BinaryOp,
    Column,
    Comparison,
    Const,
    FuncCall,
    Logical,
    Not,
    Scope,
    compile_kernel,
    conjuncts,
)


@pytest.fixture()
def env():
    scope = Scope([("t", "a"), ("t", "b"), ("s", "a")])
    registry = FunctionRegistry()
    registry.register("double", lambda x: 2 * x, cost_per_call=1.0)
    registry.register("is_even", lambda x: x % 2 == 0, cost_per_call=1.0)
    row = (5, None, 7)
    return row, scope, registry


class TestScope:
    def test_slots(self):
        scope = Scope([("t", "a"), ("s", "b")])
        assert scope.slot("t", "a") == 0
        assert scope.slot("s", "b") == 1

    def test_missing_column_raises(self):
        with pytest.raises(PlanError):
            Scope([("t", "a")]).slot("t", "b")

    def test_duplicate_rejected(self):
        with pytest.raises(PlanError):
            Scope([("t", "a"), ("t", "a")])

    def test_concat(self):
        left = Scope([("t", "a")])
        right = Scope([("s", "a")])
        combined = left.concat(right)
        assert combined.slot("s", "a") == 1
        assert ("t", "a") in combined

    def test_equality(self):
        assert Scope([("t", "a")]) == Scope([("t", "a")])
        assert Scope([("t", "a")]) != Scope([("s", "a")])


class TestEvaluation:
    def test_const(self, env):
        row, scope, registry = env
        assert Const(42).evaluate(row, scope, registry) == 42

    def test_column(self, env):
        row, scope, registry = env
        assert Column("s", "a").evaluate(row, scope, registry) == 7

    def test_func_call_counts_invocations(self, env):
        row, scope, registry = env
        expr = FuncCall("double", (Column("t", "a"),))
        assert expr.evaluate(row, scope, registry) == 10
        assert registry.get("double").calls == 1

    def test_comparison(self, env):
        row, scope, registry = env
        assert Comparison("<", Column("t", "a"), Const(6)).evaluate(
            row, scope, registry
        ) is True
        assert Comparison("=", Column("t", "a"), Column("s", "a")).evaluate(
            row, scope, registry
        ) is False

    def test_comparison_null_propagates(self, env):
        row, scope, registry = env
        assert Comparison("=", Column("t", "b"), Const(1)).evaluate(
            row, scope, registry
        ) is None

    def test_arithmetic(self, env):
        row, scope, registry = env
        expr = BinaryOp("+", Column("t", "a"), Const(3))
        assert expr.evaluate(row, scope, registry) == 8

    def test_arithmetic_null(self, env):
        row, scope, registry = env
        expr = BinaryOp("*", Column("t", "b"), Const(3))
        assert expr.evaluate(row, scope, registry) is None

    def test_and_three_valued(self, env):
        row, scope, registry = env
        null = Comparison("=", Column("t", "b"), Const(1))
        false = Const(False)
        true = Const(True)
        assert Logical("AND", (null, false)).evaluate(row, scope, registry) is False
        assert Logical("AND", (null, true)).evaluate(row, scope, registry) is None
        assert Logical("AND", (true, true)).evaluate(row, scope, registry) is True

    def test_or_three_valued(self, env):
        row, scope, registry = env
        null = Comparison("=", Column("t", "b"), Const(1))
        assert Logical("OR", (null, Const(True))).evaluate(
            row, scope, registry
        ) is True
        assert Logical("OR", (null, Const(False))).evaluate(
            row, scope, registry
        ) is None

    def test_not(self, env):
        row, scope, registry = env
        assert Not(Const(False)).evaluate(row, scope, registry) is True
        null = Comparison("=", Column("t", "b"), Const(1))
        assert Not(null).evaluate(row, scope, registry) is None

    def test_nested_function(self, env):
        row, scope, registry = env
        expr = FuncCall("is_even", (FuncCall("double", (Column("t", "a"),)),))
        assert expr.evaluate(row, scope, registry) is True
        assert registry.get("double").calls == 1
        assert registry.get("is_even").calls == 1


class TestStructure:
    def test_columns_traversal(self):
        expr = Logical(
            "AND",
            (
                Comparison("=", Column("t", "a"), Column("s", "b")),
                FuncCall("f", (Column("t", "c"),)),
            ),
        )
        assert list(expr.columns()) == [("t", "a"), ("s", "b"), ("t", "c")]
        assert expr.tables() == frozenset({"t", "s"})

    def test_function_names(self):
        expr = FuncCall("f", (FuncCall("g", ()), FuncCall("f", ())))
        assert sorted(expr.function_names()) == ["f", "f", "g"]

    def test_invalid_operators_rejected(self):
        with pytest.raises(PlanError):
            Comparison("~", Const(1), Const(2))
        with pytest.raises(PlanError):
            BinaryOp("%", Const(1), Const(2))
        with pytest.raises(PlanError):
            Logical("XOR", (Const(True), Const(False)))
        with pytest.raises(PlanError):
            Logical("AND", (Const(True),))

    def test_str_rendering(self):
        expr = Comparison(
            "=", FuncCall("f", (Column("t", "a"),)), Const("red")
        )
        assert str(expr) == "f(t.a) = 'red'"


class TestInapplicableOperators:
    """An operator that cannot apply to its operands is a structured
    error naming the expression — never a bare ZeroDivisionError or
    TypeError — from the reference and from the compiled kernel alike."""

    @pytest.mark.parametrize(
        "expr, message",
        [
            (
                Comparison(
                    "=", BinaryOp("/", Column("t", "a"), Const(0)), Const(1)
                ),
                "cannot evaluate (t.a / 0): division by zero",
            ),
            (
                Comparison("<", Column("t", "a"), Const("x")),
                "cannot evaluate t.a < 'x': '<' not supported",
            ),
        ],
    )
    def test_reference_and_kernel_raise_the_same_error(
        self, env, expr, message
    ):
        row, scope, registry = env
        with pytest.raises(ExecutionError) as reference:
            expr.evaluate(row, scope, registry)
        with pytest.raises(ExecutionError) as compiled:
            compile_kernel(expr, scope, registry)(row)
        assert str(reference.value) == str(compiled.value)
        assert str(reference.value).startswith(message)

    def test_a_function_body_error_is_not_converted(self, env):
        row, scope, registry = env
        registry.register("boom", lambda x: x / 0, cost_per_call=1.0)
        expr = Comparison(
            "=", FuncCall("boom", (Column("t", "a"),)), Const(1)
        )
        with pytest.raises(ZeroDivisionError):
            expr.evaluate(row, scope, registry)
        with pytest.raises(ZeroDivisionError):
            compile_kernel(expr, scope, registry)(row)


_SCOPE = Scope([("t", "a"), ("t", "b"), ("s", "a")])

# Small values only: ``'ab' * n`` nests, and must stay small.
_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["", "ab", "x"]),
    st.booleans(),
    st.none(),
)
_leaves = st.one_of(
    _values.map(Const),
    st.sampled_from(_SCOPE.columns).map(lambda column: Column(*column)),
)


def _trees(children):
    comparators = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
    arithmetic = st.sampled_from(["+", "-", "*", "/"])
    operands = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        st.builds(Comparison, comparators, children, children),
        st.builds(BinaryOp, arithmetic, children, children),
        st.builds(Logical, st.sampled_from(["AND", "OR"]), operands),
        st.builds(Not, children),
    )


def _outcome(thunk):
    try:
        return ("value", thunk())
    except Exception as error:  # the property is "same exception type"
        return ("raised", type(error), str(error))


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        expr=st.recursive(_leaves, _trees, max_leaves=12),
        row=st.tuples(_values, _values, _values),
    )
    def test_compiled_kernel_equals_evaluate(self, expr, row):
        """``compile_kernel`` is ``Expr.evaluate`` with the slots resolved
        early: same value (and type — ``True`` is not ``1``) or the same
        exception, on NULLs, ``/ 0`` and mixed-type operands included."""
        registry = FunctionRegistry()
        reference = _outcome(lambda: expr.evaluate(row, _SCOPE, registry))
        compiled = _outcome(
            lambda: compile_kernel(expr, _SCOPE, registry)(row)
        )
        assert compiled == reference
        assert type(compiled[1]) is type(reference[1])


class TestConjuncts:
    def test_flattens_nested_and(self):
        a, b, c = Const(True), Const(False), Const(True)
        expr = Logical("AND", (Logical("AND", (a, b)), c))
        assert conjuncts(expr) == [a, b, c]

    def test_or_not_split(self):
        expr = Logical("OR", (Const(True), Const(False)))
        assert conjuncts(expr) == [expr]

    def test_none_is_empty(self):
        assert conjuncts(None) == []

    def test_single_predicate(self):
        expr = Comparison("=", Const(1), Const(1))
        assert conjuncts(expr) == [expr]
