"""Name resolution: raw SQL AST → analyzed optimizer Query.

The binder resolves unqualified columns against the FROM scope, validates
function names against the catalog, and — following Montage (Section 5.1)
— desugars ``IN (SELECT …)`` into an expensive predicate: a synthetic
function whose arguments are the outer-query values the predicate depends
on (the needle plus any correlated columns), whose per-call cost is a scan
of the subquery's relation, and whose results the predicate cache memoises
per argument binding. Attributes of the subquery's own relation are *not*
arguments: as the paper puts it, the inner relation "is a set-valued
constant in the predicate".
"""

from __future__ import annotations

import itertools

from repro.database import Database
from repro.errors import BindError
from repro.expr.expressions import (
    BinaryOp,
    Column,
    Comparison,
    Const,
    Expr,
    FuncCall,
    Logical,
    Not,
    Scope,
    compile_kernel,
)
from repro.optimizer.query import Query
from repro.sql.ast import (
    SelectStmt,
    SqlBinary,
    SqlColumnRef,
    SqlExpr,
    SqlFuncCall,
    SqlIn,
    SqlLiteral,
    SqlLogical,
    SqlNot,
)

_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}

#: Pseudo-table name for correlation parameters inside subquery evaluation.
PARAM_TABLE = "__param__"

#: Catalog default for the pass rate of an IN predicate.
DEFAULT_IN_SELECTIVITY = 0.5

_subquery_ids = itertools.count(1)


def bind(
    db: Database,
    stmt: SelectStmt,
    name: str = "",
    in_selectivity: float = DEFAULT_IN_SELECTIVITY,
) -> Query:
    """Bind one parsed statement into an optimizer :class:`Query`."""
    tables = list(stmt.tables)
    for table in tables:
        if table not in db.catalog:
            raise BindError(f"unknown relation in FROM: {table!r}")
    if len(set(tables)) != len(tables):
        raise BindError(f"duplicate relation in FROM: {tables}")

    binder = _Binder(db, tables, in_selectivity, scopes=[tables])
    where = binder.bind_expr(stmt.where) if stmt.where is not None else None
    select = None
    if stmt.select is not None:
        select = [
            (column.table, column.attribute)
            for column in (binder.bind_column(ref) for ref in stmt.select)
        ]
    return Query.from_where(db.catalog, tables, where, select=select, name=name)


class _Binder:
    def __init__(
        self,
        db: Database,
        tables: list[str],
        in_selectivity: float,
        scopes: list[list[str]] | None = None,
    ) -> None:
        self.db = db
        self.tables = tables
        self.in_selectivity = in_selectivity
        # Name-resolution scopes, innermost first (subqueries see their own
        # relation before the outer query's).
        self.scopes = scopes if scopes is not None else [tables]

    def bind_column(self, ref: SqlColumnRef) -> Column:
        if ref.table is not None:
            if ref.table not in self.tables:
                raise BindError(
                    f"table {ref.table!r} of {ref.table}.{ref.column} "
                    "is not in the FROM clause"
                )
            schema = self.db.catalog.table(ref.table).schema
            if not schema.has_attribute(ref.column):
                raise BindError(
                    f"relation {ref.table!r} has no attribute {ref.column!r}"
                )
            return Column(ref.table, ref.column)
        for scope in self.scopes:
            owners = [
                table
                for table in scope
                if self.db.catalog.table(table).schema.has_attribute(
                    ref.column
                )
            ]
            if len(owners) == 1:
                return Column(owners[0], ref.column)
            if len(owners) > 1:
                raise BindError(
                    f"column {ref.column!r} is ambiguous among {owners}"
                )
        raise BindError(f"column {ref.column!r} not found in scope")

    def bind_expr(self, node: SqlExpr) -> Expr:
        if isinstance(node, SqlLiteral):
            return Const(node.value)
        if isinstance(node, SqlColumnRef):
            return self.bind_column(node)
        if isinstance(node, SqlFuncCall):
            if node.name not in self.db.catalog.functions:
                raise BindError(f"unknown function: {node.name!r}")
            return FuncCall(
                node.name, tuple(self.bind_expr(arg) for arg in node.args)
            )
        if isinstance(node, SqlBinary):
            left = self.bind_expr(node.left)
            right = self.bind_expr(node.right)
            if node.op in _COMPARISONS:
                return Comparison(node.op, left, right)
            return BinaryOp(node.op, left, right)
        if isinstance(node, SqlLogical):
            return Logical(
                node.op, tuple(self.bind_expr(o) for o in node.operands)
            )
        if isinstance(node, SqlNot):
            return Not(self.bind_expr(node.operand))
        if isinstance(node, SqlIn):
            return self.bind_in(node)
        raise BindError(f"cannot bind expression node: {node!r}")

    # -- IN (SELECT …) desugaring ------------------------------------------

    def bind_in(self, node: SqlIn) -> Expr:
        subquery = node.subquery
        if len(subquery.tables) != 1:
            raise BindError(
                "IN subqueries over multiple relations are not supported"
            )
        inner_table = subquery.tables[0]
        if inner_table not in self.db.catalog:
            raise BindError(f"unknown relation in subquery: {inner_table!r}")
        if subquery.select is None or len(subquery.select) != 1:
            raise BindError("IN subquery must select exactly one column")

        needle = self.bind_expr(node.needle)

        # Bind the subquery body with the inner table in scope plus the
        # outer tables; outer references become correlation parameters.
        inner_binder = _Binder(
            self.db,
            [inner_table] + self.tables,
            self.in_selectivity,
            scopes=[[inner_table]] + self.scopes,
        )
        select_column = inner_binder.bind_column(subquery.select[0])
        if select_column.table != inner_table:
            raise BindError(
                "IN subquery must select a column of its own relation"
            )
        inner_where = (
            inner_binder.bind_expr(subquery.where)
            if subquery.where is not None
            else None
        )

        parameters: list[Column] = []
        if inner_where is not None:
            inner_where = _parameterize(inner_where, inner_table, parameters)

        function_name = f"in_{inner_table}_{next(_subquery_ids)}"
        self._register_in_function(
            function_name, inner_table, select_column, inner_where, parameters
        )
        return FuncCall(function_name, (needle, *parameters))

    def _register_in_function(
        self,
        function_name: str,
        inner_table: str,
        select_column: Column,
        inner_where: Expr | None,
        parameters: list[Column],
    ) -> None:
        entry = self.db.catalog.table(inner_table)
        schema = entry.schema
        eval_scope = Scope(
            [(inner_table, attr) for attr in schema.attribute_names]
            + [(PARAM_TABLE, f"p{position}") for position in range(len(parameters))]
        )
        select_slot = eval_scope.slot(inner_table, select_column.attribute)
        functions = self.db.catalog.functions
        where = (
            None
            if inner_where is None
            else compile_kernel(inner_where, eval_scope, functions)
        )

        def run_subquery(needle_value: object, *param_values: object) -> object:
            matched = False
            saw_null = False
            for row in entry.heap.all_rows():
                env = row + param_values
                if where is not None and where(env) is not True:
                    continue
                value = env[select_slot]
                if value is None:
                    saw_null = True
                elif value == needle_value:
                    matched = True
                    break
            if matched:
                return True
            return None if saw_null else False

        # Charged like the paper's subquery functions: one inner-relation
        # scan per invocation (the predicate cache is what makes repeats
        # cheap).
        cost_per_call = max(1.0, entry.pages * self.db.params.seq_weight)
        functions.register(
            function_name,
            run_subquery,
            cost_per_call=cost_per_call,
            selectivity=self.in_selectivity,
        )


def _parameterize(
    expr: Expr, inner_table: str, parameters: list[Column]
) -> Expr:
    """Replace outer-table columns by parameter slots, collecting them."""
    if isinstance(expr, Column):
        if expr.table == inner_table:
            return expr
        for position, existing in enumerate(parameters):
            if existing == expr:
                return Column(PARAM_TABLE, f"p{position}")
        parameters.append(expr)
        return Column(PARAM_TABLE, f"p{len(parameters) - 1}")
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name,
            tuple(_parameterize(a, inner_table, parameters) for a in expr.args),
        )
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            _parameterize(expr.left, inner_table, parameters),
            _parameterize(expr.right, inner_table, parameters),
        )
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _parameterize(expr.left, inner_table, parameters),
            _parameterize(expr.right, inner_table, parameters),
        )
    if isinstance(expr, Logical):
        return Logical(
            expr.op,
            tuple(
                _parameterize(o, inner_table, parameters)
                for o in expr.operands
            ),
        )
    if isinstance(expr, Not):
        return Not(_parameterize(expr.operand, inner_table, parameters))
    raise BindError(f"cannot parameterize expression: {expr!r}")
