"""Unit tests: UDF registry, synthetic booleans, invocation accounting."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.catalog.functions import (
    FunctionRegistry,
    UserFunction,
    synthetic_boolean,
)
from repro.errors import DuplicateNameError, UnknownFunctionError


class TestSyntheticBoolean:
    def test_deterministic(self):
        fn = synthetic_boolean(0.5, seed=3)
        assert [fn(i) for i in range(50)] == [fn(i) for i in range(50)]

    def test_extremes(self):
        always = synthetic_boolean(1.0)
        never = synthetic_boolean(0.0)
        assert all(always(i) for i in range(100))
        assert not any(never(i) for i in range(100))

    def test_out_of_range_selectivity_rejected(self):
        with pytest.raises(ValueError):
            synthetic_boolean(1.5)

    def test_seed_changes_outcomes(self):
        a = synthetic_boolean(0.5, seed=1)
        b = synthetic_boolean(0.5, seed=2)
        assert [a(i) for i in range(200)] != [b(i) for i in range(200)]

    @given(st.floats(0.05, 0.95), st.integers(0, 10))
    @settings(max_examples=20)
    def test_measured_selectivity_converges(self, selectivity, seed):
        fn = synthetic_boolean(selectivity, seed=seed)
        passes = sum(fn(i) for i in range(4000))
        assert abs(passes / 4000 - selectivity) < 0.05

    def test_multi_argument(self):
        fn = synthetic_boolean(0.5, seed=9)
        assert isinstance(fn(1, "x", None), bool)


#: Argument values a binding can carry (and a few it cannot, yet): the
#: forms must agree wherever ``repr`` is defined, not just on column ints.
_VALUES = st.recursive(
    st.one_of(
        st.integers(-(2**70), 2**70),
        st.text(max_size=6),
        st.none(),
        st.floats(),
        st.booleans(),
    ),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=4,
)


def _bindings(inner, outer_value, position):
    if position == 0:
        return [(value, outer_value) for value in inner]
    return [(outer_value, value) for value in inner]


class TestCallForms:
    """The scalar form is the definition; ``batch`` and the curried
    ``pairs`` form are the same function evaluated many bindings at a
    time."""

    @given(
        inner=st.lists(_VALUES, max_size=6),
        outer=st.lists(_VALUES, min_size=1, max_size=4),
        seed=st.sampled_from((0, 42, -1)),
        # 0.5 beside the issue's 0.0 / 0.01 / 1.0: at the extremes every
        # form answers the same constant whatever it hashes.
        selectivity=st.sampled_from((0.0, 0.01, 0.5, 1.0)),
        position=st.sampled_from((0, 1)),
    )
    @example(
        inner=[-1, 2**63 + 1, "it's \"quoted\"", "naïve \u2603", None],
        outer=[(1, ("a", None)), 0.1, True, -(2**64), "\\"],
        seed=-1, selectivity=0.5, position=0,
    )
    @example(
        inner=[-1, 2**63 + 1, "it's \"quoted\"", "naïve \u2603", None],
        outer=[(1, ("a", None)), 0.1, True, -(2**64), "\\"],
        seed=42, selectivity=0.5, position=1,
    )
    @example(inner=[], outer=[7], seed=0, selectivity=0.01, position=0)
    @example(inner=[], outer=[7], seed=0, selectivity=0.01, position=1)
    def test_scalar_batch_and_pair_forms_agree(
        self, inner, outer, seed, selectivity, position
    ):
        fn = synthetic_boolean(selectivity, seed=seed)
        verdicts = fn.pairs(inner, position)
        for outer_value in outer:
            bindings = _bindings(inner, outer_value, position)
            scalar = [fn(*args) for args in bindings]
            assert fn.batch(bindings) == scalar
            assert verdicts(outer_value) == scalar

    @pytest.mark.parametrize("position", [2, -1])
    def test_pair_form_refuses_other_arities(self, position):
        # An inner column at a third argument position means the call has
        # more than two arguments: no prefix/suffix split covers that.
        with pytest.raises(ValueError, match="two-argument"):
            synthetic_boolean(0.5).pairs([1, 2], position)

    @pytest.mark.parametrize("position", [0, 1])
    def test_user_function_forms_count_every_pair(self, position):
        function = UserFunction(
            "f", synthetic_boolean(0.5, seed=3), cost_per_call=10.0
        )
        inner = list(range(40))
        scalar = [function(*args) for args in _bindings(inner, 9, position)]
        assert function.calls == 40
        assert function.call_batch(_bindings(inner, 9, position)) == scalar
        assert function.calls == 80
        verdicts = function.pair_form(inner, position)
        assert function.calls == 80  # preparing calls nothing
        assert verdicts(9) == scalar
        assert verdicts(9) == scalar
        assert function.calls == 160

    def test_replacing_fn_strips_the_forms(self):
        """Forms live on ``fn``: a wrapper (what a fault injector
        installs) or a plain callable gets per-call dispatch, where
        ``calls`` is the 1-based index of the running invocation."""
        function = UserFunction(
            "f", synthetic_boolean(0.5, seed=3), cost_per_call=1.0
        )
        assert function.batch_form is not None
        original = function.fn
        seen = []

        def wrapper(*args):
            seen.append(function.calls)
            return original(*args)

        function.fn = wrapper
        assert function.batch_form is None
        assert function.pair_form([1, 2, 3], 0) is None
        bindings = [(1, 5), (2, 5), (3, 5)]
        assert function.call_batch(bindings) == [original(*b) for b in bindings]
        assert seen == [1, 2, 3]

    def test_batch_only_implementation_has_no_pair_form(self):
        def tenth(value):
            return value % 10 == 0

        tenth.batch = lambda bindings: [v % 10 == 0 for (v,) in bindings]
        function = UserFunction("tenth", tenth, cost_per_call=1.0)
        assert function.pair_form([1, 2], 0) is None
        assert function.call_batch([(10,), (11,)]) == [True, False]
        assert function.calls == 2


class TestFunctionRegistry:
    def test_register_and_call_counts(self):
        registry = FunctionRegistry()
        f = registry.register("f", cost_per_call=10.0, selectivity=0.4)
        f(1)
        f(2)
        assert f.calls == 2
        assert f.charged == 20.0

    def test_costly_shorthand(self):
        registry = FunctionRegistry()
        registry.register_costly(100)
        f = registry.get("costly100")
        assert f.cost_per_call == 100.0

    def test_duplicate_rejected(self):
        registry = FunctionRegistry()
        registry.register("f", cost_per_call=1.0)
        with pytest.raises(DuplicateNameError):
            registry.register("f", cost_per_call=1.0)

    def test_unknown_raises(self):
        with pytest.raises(UnknownFunctionError):
            FunctionRegistry().get("nope")

    def test_contains_and_names(self):
        registry = FunctionRegistry()
        registry.register("b", cost_per_call=1.0)
        registry.register("a", cost_per_call=1.0)
        assert "a" in registry and "nope" not in registry
        assert registry.names() == ["a", "b"]

    def test_reset_counters(self):
        registry = FunctionRegistry()
        f = registry.register("f", cost_per_call=5.0)
        f(1)
        registry.reset_counters()
        assert f.calls == 0
        assert registry.total_charged() == 0.0

    def test_totals(self):
        registry = FunctionRegistry()
        f = registry.register("f", cost_per_call=5.0)
        g = registry.register("g", cost_per_call=2.0)
        f(1), g(1), g(2)
        assert registry.total_calls() == 3
        assert registry.total_charged() == 9.0

    def test_custom_python_function(self):
        registry = FunctionRegistry()
        registry.register("double", lambda x: 2 * x, cost_per_call=1.0)
        assert registry.get("double")(21) == 42
