"""The optimizer's input: tables plus analyzed predicates."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.errors import OptimizerError
from repro.expr.expressions import Const, Expr, QualifiedColumn, conjuncts
from repro.expr.predicates import Predicate, analyze_conjunct


def true_predicate() -> Predicate:
    """A trivially-true primary for cross-product joins."""
    return Predicate(
        expr=Const(True),
        tables=frozenset(),
        selectivity=1.0,
        cost_per_tuple=0.0,
    )


@dataclass
class Query:
    """A conjunctive select-project-join query over base tables."""

    tables: list[str]
    predicates: list[Predicate]
    select: list[QualifiedColumn] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.tables:
            raise OptimizerError("query needs at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise OptimizerError(f"duplicate tables in query: {self.tables}")
        table_set = frozenset(self.tables)
        for predicate in self.predicates:
            if not predicate.tables:
                # Placement is per table (``selections_on``): a conjunct
                # on no table would be silently dropped by most planners.
                raise OptimizerError(
                    f"predicate {predicate} references no column of the "
                    f"FROM tables {self.tables}"
                )
            if not predicate.tables <= table_set:
                raise OptimizerError(
                    f"predicate {predicate} references tables outside the "
                    f"query: {set(predicate.tables) - table_set}"
                )

    @classmethod
    def from_where(
        cls,
        catalog: Catalog,
        tables: list[str],
        where: Expr | None,
        select: list[QualifiedColumn] | None = None,
        name: str = "",
    ) -> "Query":
        """Split a WHERE expression into analyzed conjuncts."""
        predicates = [
            analyze_conjunct(catalog, conjunct)
            for conjunct in conjuncts(where)
        ]
        return cls(
            tables=list(tables),
            predicates=predicates,
            select=select,
            name=name,
        )

    # -- classification helpers -------------------------------------------

    def selections(self) -> list[Predicate]:
        return [p for p in self.predicates if p.is_selection]

    def selections_on(self, table: str) -> list[Predicate]:
        return [
            p
            for p in self.predicates
            if p.is_selection and p.tables == frozenset({table})
        ]

    def join_predicates(self) -> list[Predicate]:
        return [p for p in self.predicates if p.is_join]

    def expensive_predicates(self) -> list[Predicate]:
        return [p for p in self.predicates if p.is_expensive]

    def has_expensive_predicates(self) -> bool:
        return any(p.is_expensive for p in self.predicates)
