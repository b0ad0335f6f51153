"""A small expression AST shared by the SQL front-end, optimizer, executor.

Nodes are immutable dataclasses. Evaluation binds column references through
a :class:`Scope` (a mapping from qualified column to slot in the current
composite row) and resolves function names through the catalog's
:class:`~repro.catalog.functions.FunctionRegistry`, which also counts
invocations — the paper's measurement methodology hinges on those counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator

from repro.catalog.functions import FunctionRegistry
from repro.errors import ExecutionError, PlanError

#: A qualified column: (table name, attribute name).
QualifiedColumn = tuple[str, str]


class Scope:
    """Maps qualified columns to slots in a composite row."""

    def __init__(self, columns: list[QualifiedColumn]) -> None:
        self.columns = list(columns)
        self._slots = {column: slot for slot, column in enumerate(columns)}
        if len(self._slots) != len(columns):
            raise PlanError(f"duplicate columns in scope: {columns}")

    def slot(self, table: str, attribute: str) -> int:
        try:
            return self._slots[(table, attribute)]
        except KeyError:
            raise PlanError(
                f"column {table}.{attribute} not in scope {self.columns}"
            ) from None

    def __contains__(self, column: QualifiedColumn) -> bool:
        return column in self._slots

    def concat(self, other: "Scope") -> "Scope":
        return Scope(self.columns + other.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scope) and self.columns == other.columns

    def __repr__(self) -> str:
        return f"Scope({self.columns!r})"


@dataclass(frozen=True)
class Expr:
    """Abstract base for expression nodes."""

    def columns(self) -> Iterator[QualifiedColumn]:
        """Yield every qualified column referenced (with repeats)."""
        raise NotImplementedError

    def function_names(self) -> Iterator[str]:
        """Yield every function name invoked (with repeats)."""
        raise NotImplementedError

    def evaluate(
        self, row: tuple, scope: Scope, functions: FunctionRegistry
    ) -> object:
        raise NotImplementedError

    def tables(self) -> frozenset[str]:
        return frozenset(table for table, _ in self.columns())


@dataclass(frozen=True)
class Const(Expr):
    value: object

    def columns(self) -> Iterator[QualifiedColumn]:
        return iter(())

    def function_names(self) -> Iterator[str]:
        return iter(())

    def evaluate(
        self, row: tuple, scope: Scope, functions: FunctionRegistry
    ) -> object:
        return self.value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


@dataclass(frozen=True)
class Column(Expr):
    table: str
    attribute: str

    def columns(self) -> Iterator[QualifiedColumn]:
        yield (self.table, self.attribute)

    def function_names(self) -> Iterator[str]:
        return iter(())

    def evaluate(
        self, row: tuple, scope: Scope, functions: FunctionRegistry
    ) -> object:
        return row[scope.slot(self.table, self.attribute)]

    def __str__(self) -> str:
        return f"{self.table}.{self.attribute}"


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: tuple[Expr, ...]

    def columns(self) -> Iterator[QualifiedColumn]:
        for arg in self.args:
            yield from arg.columns()

    def function_names(self) -> Iterator[str]:
        yield self.name
        for arg in self.args:
            yield from arg.function_names()

    def evaluate(
        self, row: tuple, scope: Scope, functions: FunctionRegistry
    ) -> object:
        values = [arg.evaluate(row, scope, functions) for arg in self.args]
        return functions.get(self.name)(*values)

    def __str__(self) -> str:
        rendered = ", ".join(str(arg) for arg in self.args)
        return f"{self.name}({rendered})"


def inapplicable(expr: object, error: Exception) -> ExecutionError:
    """What an operator that cannot apply to its operands ends in."""
    return ExecutionError(f"cannot evaluate {expr}: {error}")


@dataclass(frozen=True)
class _Binary(Expr):
    """A two-operand operator node: SQL NULL in either operand yields
    NULL, and an operator that cannot apply to its operands (``/ 0``,
    ``1 < 'x'``) is an :class:`ExecutionError` naming the expression."""

    op: str
    left: Expr
    right: Expr

    #: Operator symbol → implementation, and what the subclass calls them.
    _OPS: ClassVar[dict[str, Callable[[object, object], object]]] = {}
    _KIND: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise PlanError(f"unknown {self._KIND} operator: {self.op!r}")

    def columns(self) -> Iterator[QualifiedColumn]:
        yield from self.left.columns()
        yield from self.right.columns()

    def function_names(self) -> Iterator[str]:
        yield from self.left.function_names()
        yield from self.right.function_names()

    def evaluate(
        self, row: tuple, scope: Scope, functions: FunctionRegistry
    ) -> object:
        left = self.left.evaluate(row, scope, functions)
        right = self.right.evaluate(row, scope, functions)
        if left is None or right is None:
            return None
        try:
            return self._OPS[self.op](left, right)
        except (ArithmeticError, TypeError) as error:
            raise inapplicable(self, error) from None


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(_Binary):
    _OPS = _COMPARATORS
    _KIND = "comparison"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BinaryOp(_Binary):
    """Arithmetic on column values (``t3.a1 + 10``)."""

    _OPS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
    }
    _KIND = "arithmetic"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Logical(Expr):
    """AND / OR over boolean sub-expressions."""

    op: str
    operands: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.op not in ("AND", "OR"):
            raise PlanError(f"unknown logical operator: {self.op!r}")
        if len(self.operands) < 2:
            raise PlanError("logical operator needs at least two operands")

    def columns(self) -> Iterator[QualifiedColumn]:
        for operand in self.operands:
            yield from operand.columns()

    def function_names(self) -> Iterator[str]:
        for operand in self.operands:
            yield from operand.function_names()

    def evaluate(
        self, row: tuple, scope: Scope, functions: FunctionRegistry
    ) -> object:
        values = [
            operand.evaluate(row, scope, functions)
            for operand in self.operands
        ]
        if self.op == "AND":
            if any(value is False for value in values):
                return False
            if any(value is None for value in values):
                return None
            return True
        if any(value is True for value in values):
            return True
        if any(value is None for value in values):
            return None
        return False

    def __str__(self) -> str:
        joiner = f" {self.op} "
        return "(" + joiner.join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def columns(self) -> Iterator[QualifiedColumn]:
        yield from self.operand.columns()

    def function_names(self) -> Iterator[str]:
        yield from self.operand.function_names()

    def evaluate(
        self, row: tuple, scope: Scope, functions: FunctionRegistry
    ) -> object:
        value = self.operand.evaluate(row, scope, functions)
        if value is None:
            return None
        return not value

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


def conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a WHERE expression into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, Logical) and expr.op == "AND":
        flattened: list[Expr] = []
        for operand in expr.operands:
            flattened.extend(conjuncts(operand))
        return flattened
    return [expr]


def compile_kernel(
    expr: Expr, scope: Scope, functions
) -> Callable[[tuple], object]:
    """Compile an expression into a closure over rows of ``scope``.

    Semantics are ``Expr.evaluate``'s exactly — three-valued NULL
    propagation, every operand of an AND/OR evaluated, the same
    :class:`ExecutionError` from an inapplicable operator — which
    ``tests/test_expr.py`` holds the two to; the difference is that column
    slots and function objects are resolved once, here, instead of per
    row. ``functions`` is anything with a registry's ``get(name)``.
    """
    if isinstance(expr, Const):
        value = expr.value
        return lambda binding: value
    if isinstance(expr, Column):
        slot = scope.slot(expr.table, expr.attribute)
        return lambda binding: binding[slot]
    if isinstance(expr, FuncCall):
        fn = functions.get(expr.name)
        kernels = tuple(
            compile_kernel(arg, scope, functions) for arg in expr.args
        )
        if len(kernels) == 1:
            arg0 = kernels[0]
            return lambda binding: fn(arg0(binding))
        if len(kernels) == 2:
            arg0, arg1 = kernels
            return lambda binding: fn(arg0(binding), arg1(binding))
        return lambda binding: fn(*(k(binding) for k in kernels))
    if isinstance(expr, _Binary):
        op = expr._OPS[expr.op]
        left = compile_kernel(expr.left, scope, functions)
        right = compile_kernel(expr.right, scope, functions)

        def binary(binding):
            a = left(binding)
            b = right(binding)
            if a is None or b is None:
                return None
            try:
                return op(a, b)
            except (ArithmeticError, TypeError) as error:
                raise inapplicable(expr, error) from None

        return binary
    if isinstance(expr, Logical):
        kernels = tuple(
            compile_kernel(operand, scope, functions)
            for operand in expr.operands
        )
        conjunctive = expr.op == "AND"

        def logical(binding):
            values = [k(binding) for k in kernels]
            if conjunctive:
                if any(value is False for value in values):
                    return False
                if any(value is None for value in values):
                    return None
                return True
            if any(value is True for value in values):
                return True
            if any(value is None for value in values):
                return None
            return False

        return logical
    if isinstance(expr, Not):
        inner = compile_kernel(expr.operand, scope, functions)

        def negate(binding):
            value = inner(binding)
            if value is None:
                return None
            return not value

        return negate
    raise ExecutionError(
        f"cannot compile expression type: {type(expr).__name__}"
    )
