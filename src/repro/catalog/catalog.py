"""The catalog proper: a registry of tables and user-defined functions.

The optimizer consults the catalog for statistics and index availability;
the executor consults it for heap files, B-trees, and UDF callables. Storage
handles are stored as opaque attributes so the catalog package stays free of
storage imports (the database assembly in :mod:`repro.database` wires them).
"""

from __future__ import annotations

import math
from collections.abc import MutableMapping
from typing import Any, Iterator, Protocol, Sequence

from repro.catalog.functions import FunctionRegistry
from repro.catalog.schema import RelationSchema
from repro.catalog.statistics import RelationStats
from repro.errors import (
    DuplicateNameError,
    UnknownAttributeError,
    UnknownRelationError,
)


class TableSource(Protocol):
    """Where a registered table's storage comes from when it is first
    read (:mod:`repro.catalog.datagen` supplies the synthetic one)."""

    #: Attributes that carry an index, in schema order.
    index_names: Sequence[str]

    def load_heap(self) -> Any:
        """Build the populated heap file."""

    def load_index(self, heap: Any, attribute: str) -> Any:
        """Build the index on ``attribute`` over ``heap``'s rows."""

    def index_pages(self, attribute: str) -> int:
        """Pages the index on ``attribute`` occupies once built."""


_UNBUILT = object()


class TableIndexes(MutableMapping):
    """A table's ``attribute → index`` mapping, in schema order.

    Indexes named by the table's source exist from registration — they
    count in ``len``, iteration and ``in`` — but each is built on the
    first ``[attribute]`` read. ``values()`` and ``items()`` therefore
    build every one; :meth:`pages` and :meth:`built` do not.
    """

    def __init__(self, entry: "TableEntry", built: dict[str, Any]) -> None:
        self._entry = entry
        source = entry.source
        self._slots: dict[str, Any] = dict.fromkeys(
            source.index_names if source is not None else (), _UNBUILT
        )
        self._slots.update(built)

    def __getitem__(self, attribute: str) -> Any:
        index = self._slots[attribute]
        if index is _UNBUILT:
            entry = self._entry
            index = self._slots[attribute] = entry.source.load_index(
                entry.heap, attribute
            )
        return index

    def __setitem__(self, attribute: str, index: Any) -> None:
        self._slots[attribute] = index

    def __delitem__(self, attribute: str) -> None:
        del self._slots[attribute]

    def __iter__(self) -> Iterator[str]:
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._slots

    def built(self) -> list[str]:
        """The attributes whose index exists in memory."""
        return [
            attribute
            for attribute, index in self._slots.items()
            if index is not _UNBUILT
        ]

    def pages(self, attribute: str) -> int:
        """The index's page count, declared when it is not built yet."""
        index = self._slots[attribute]
        if index is _UNBUILT:
            return self._entry.source.index_pages(attribute)
        return index.pages


class TableEntry:
    """Everything the system knows about one base relation.

    Storage is handed over built (``heap=``, ``indexes=``: manual
    registration) or named by a ``source`` and realised on the first read
    of :attr:`heap` / ``indexes[attribute]``. Schema, statistics and index
    *names* never need the storage.
    """

    def __init__(
        self,
        schema: RelationSchema,
        stats: RelationStats,
        heap: Any = None,
        indexes: dict[str, Any] | None = None,
        source: TableSource | None = None,
    ) -> None:
        self.schema = schema
        self.stats = stats
        self.source = source
        self._heap = heap
        self.indexes = TableIndexes(self, indexes or {})

    @property
    def heap(self) -> Any:
        if self._heap is None and self.source is not None:
            self._heap = self.source.load_heap()
        return self._heap

    @property
    def heap_built(self) -> bool:
        """Whether the heap exists in memory (reading :attr:`heap` to
        find out would build it)."""
        return self._heap is not None

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def cardinality(self) -> int:
        return self.stats.cardinality

    @property
    def pages(self) -> int:
        return self.stats.pages

    def has_index(self, attribute: str) -> bool:
        return attribute in self.indexes

    def index(self, attribute: str) -> Any:
        if attribute not in self.indexes:
            raise UnknownAttributeError(self.name, attribute)
        return self.indexes[attribute]


class Catalog:
    """Name → :class:`TableEntry` registry plus the function registry."""

    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        self.functions = FunctionRegistry()

    def register_table(self, entry: TableEntry) -> TableEntry:
        if entry.name in self._tables:
            raise DuplicateNameError(
                f"relation already registered: {entry.name!r}"
            )
        self._tables[entry.name] = entry
        return entry

    def table(self, name: str) -> TableEntry:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[TableEntry]:
        return iter(self._tables.values())

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def resolve_attribute(
        self, attribute: str, tables_in_scope: list[str]
    ) -> str:
        """Find the unique in-scope table that defines ``attribute``.

        Used by the SQL binder for unqualified column references. Raises
        :class:`UnknownAttributeError` when the name resolves to zero or to
        more than one table.
        """
        owners = [
            name
            for name in tables_in_scope
            if self.table(name).schema.has_attribute(attribute)
        ]
        if len(owners) != 1:
            raise UnknownAttributeError(
                "|".join(tables_in_scope) or "<empty scope>", attribute
            )
        return owners[0]

    def apply_feedback(self, store, epoch: int | None = None) -> int:
        """Overwrite declared UDF statistics with observed ones (opt-in).

        ``store`` is duck-typed — anything with
        ``observations_for(epoch)`` yielding objects with ``functions``,
        ``evaluated``/``observed_selectivity`` and
        ``charged_calls``/``observed_cost_per_call`` works; in practice
        it is a :class:`~repro.obs.feedback.StatsFeedbackStore`
        (``epoch=None`` means its latest epoch). This is the explicit
        jgmp-style injection path: nothing in planning or execution calls
        it implicitly, so plan fingerprints are untouched until a caller
        opts in, and callers must recompile workloads afterwards for
        ranks to re-derive from the new numbers.

        Only single-function predicate observations are applied — a
        multi-UDF conjunct's pass rate and charge cannot be attributed to
        either function — and only domain-valid values (selectivity
        finite in ``[0, 1]`` with at least one evaluation; per-call cost
        finite, non-negative, with at least one charged call). Returns
        the number of statistic fields changed.
        """
        changed = 0
        for observation in store.observations_for(epoch):
            names = tuple(observation.functions)
            if len(names) != 1 or names[0] not in self.functions:
                continue
            function = self.functions.get(names[0])
            if observation.evaluated > 0:
                selectivity = observation.observed_selectivity
                if (
                    math.isfinite(selectivity)
                    and 0.0 <= selectivity <= 1.0
                    and selectivity != function.selectivity
                ):
                    function.selectivity = selectivity
                    changed += 1
            if observation.charged_calls > 0:
                cost = observation.observed_cost_per_call
                if (
                    math.isfinite(cost)
                    and cost >= 0.0
                    and cost != function.cost_per_call
                ):
                    function.cost_per_call = cost
                    changed += 1
        return changed

    def total_bytes(self, page_size: int, include_indexes: bool = True) -> int:
        """Approximate database size, mirroring the paper's ~110 MB figure.

        Read from declared page counts, so it builds no storage.
        """
        pages = 0
        for entry in self:
            pages += entry.pages
            if include_indexes:
                pages += sum(map(entry.indexes.pages, entry.indexes))
        return pages * page_size
