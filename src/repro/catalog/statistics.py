"""Optimizer statistics: cardinalities, page counts, distinct values.

These mirror the System R / Montage catalog statistics that every cost
estimate in the paper consumes. Statistics may be *declared* (derived from
the schema's naming convention before any data exists) or *measured* (computed
by scanning a populated table); the synthetic generator produces data whose
measured statistics match the declared ones, so plan-quality conclusions are
insensitive to which source is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.schema import RelationSchema


@dataclass(frozen=True)
class AttributeStats:
    """Statistics for one column."""

    ndistinct: int
    low: int
    high: int

    @property
    def width(self) -> int:
        """Size of the value domain (inclusive bounds)."""
        return max(0, self.high - self.low + 1)


@dataclass(frozen=True)
class RelationStats:
    """Statistics for one relation."""

    cardinality: int
    pages: int
    attributes: dict[str, AttributeStats]

    def attribute(self, name: str) -> AttributeStats:
        return self.attributes[name]

    def ndistinct(self, name: str) -> int:
        return self.attributes[name].ndistinct


def pages_for(cardinality: int, tuple_width: int, page_size: int) -> int:
    """Number of heap pages needed for ``cardinality`` fixed-width tuples."""
    if cardinality <= 0:
        return 0
    per_page = max(1, page_size // tuple_width)
    return math.ceil(cardinality / per_page)


def declared_stats(
    schema: RelationSchema, cardinality: int, page_size: int
) -> RelationStats:
    """Derive statistics from the naming convention alone.

    A column of repetition *k* over *c* tuples holds values ``0 .. c//k - 1``
    each repeated ~*k* times, so its distinct count is ``max(1, c // k)``.
    """
    attributes = {}
    for attribute in schema.attributes:
        ndistinct = max(1, cardinality // attribute.repetition)
        attributes[attribute.name] = AttributeStats(
            ndistinct=ndistinct, low=0, high=ndistinct - 1
        )
    return RelationStats(
        cardinality=cardinality,
        pages=pages_for(cardinality, schema.tuple_width, page_size),
        attributes=attributes,
    )


def measured_stats(
    schema: RelationSchema,
    rows: list[tuple],
    page_size: int,
) -> RelationStats:
    """Compute exact statistics by scanning ``rows``; NULLs count towards
    the cardinality only."""
    attributes = {}
    for position, attribute in enumerate(schema.attributes):
        values = [row[position] for row in rows if row[position] is not None]
        if values:
            attributes[attribute.name] = AttributeStats(
                ndistinct=len(set(values)), low=min(values), high=max(values)
            )
        else:
            attributes[attribute.name] = AttributeStats(
                ndistinct=0, low=0, high=-1
            )
    return RelationStats(
        cardinality=len(rows),
        pages=pages_for(len(rows), schema.tuple_width, page_size),
        attributes=attributes,
    )
