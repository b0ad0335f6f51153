"""Synthetic database generator (the paper's Section 2 schema).

The paper's database follows Hong and Stonebraker with cardinalities scaled
up by 10: 100-byte tuples, attributes named by their repetition factor
(``u20``: each value duplicated ~20 times), ``u``-prefixed attributes
unindexed, everything else carrying a B-tree index. We name relations
``t1 .. t10`` where ``tN`` holds ``N × scale`` tuples; the paper's scale
(~110 MB with indexes and catalogs) corresponds to ``scale=10_000``.

Generation is fully deterministic in ``seed``; a column of repetition *k*
over cardinality *c* holds each value of ``range(c // k)`` exactly *k*
times (up to remainder), shuffled. Declared catalog statistics therefore
match measured statistics exactly — verified by tests.
"""

from __future__ import annotations

import random
import re
from operator import itemgetter
from time import perf_counter
from typing import Sequence

from repro.catalog.catalog import Catalog, TableEntry
from repro.catalog.schema import RelationSchema
from repro.catalog.statistics import declared_stats
from repro.cost.params import CostParams
from repro.database import Database, Materialisation
from repro.errors import CatalogError
from repro.storage.btree import BTree, default_fanout
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.meter import CostMeter

#: The paper's relation family.
DEFAULT_RELATIONS = tuple(f"t{n}" for n in range(1, 11))

#: Attribute mix per relation: indexed and unindexed at several repetition
#: factors, per the paper's naming convention.
DEFAULT_COLUMNS = ("a1", "a20", "a100", "ua1", "ua20", "ua100", "u20", "u100")

#: The scale at which the database matches the paper's (~110 MB).
PAPER_SCALE = 10_000

_RELATION_RE = re.compile(r"^t(\d+)$")


def relation_cardinality(name: str, scale: int) -> int:
    """``tN`` holds ``N × scale`` tuples."""
    match = _RELATION_RE.match(name)
    if match is None:
        raise CatalogError(
            f"relation name {name!r} does not follow the tN convention"
        )
    return int(match.group(1)) * scale


def generate_column(
    cardinality: int,
    repetition: int,
    rng: random.Random,
    ints: Sequence[int] | None = None,
) -> list[int]:
    """A shuffled column where each value repeats ~``repetition`` times.

    ``ints`` (``ints[v] == v`` for every value of the column) supplies
    the int objects, so the columns of one table can share them instead
    of each allocating its own.

    Draws from ``rng`` exactly as ``random.Random.shuffle`` over the sorted
    run would (Fisher–Yates from the top, ``getrandbits`` of the bound's bit
    length, redrawn while out of range) with the draw inlined and the bit
    length recomputed only when the bound crosses a power of two —
    ``tests/test_datagen_equivalence.py`` holds it to the same values and
    the same final generator state.
    """
    whole = cardinality // repetition
    if ints is None:
        ints = range(max(whole, 1))
    values = [value for value in ints[:whole] for _ in range(repetition)]
    # The remainder repeats the last value (value 0 when there is none).
    values += [ints[max(whole, 1) - 1]] * (cardinality - len(values))
    getrandbits = rng.getrandbits
    i = cardinality - 1
    while i > 0:
        bits = (i + 1).bit_length()
        # Every bound in (2**(bits-1), i + 1] has this bit length.
        lowest = max(1, (1 << (bits - 1)) - 1)
        for i in range(i, lowest - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            values[i], values[j] = values[j], values[i]
        i = lowest - 1
    return values


class GeneratedTable:
    """One synthetic relation's storage, built when first read.

    The rows are a pure function of ``(db.seed, name)``: each table draws
    from its own ``random.Random(f"{seed}/{name}")``, so which tables were
    read before, and in what order, changes nothing. Building charges no
    I/O and touches no buffer-pool state (bulk population models the
    pre-existing database, not query work); each build is recorded in
    ``db.materialised``.
    """

    def __init__(
        self, db: Database, schema: RelationSchema, cardinality: int
    ) -> None:
        self.db = db
        self.schema = schema
        self.cardinality = cardinality
        self.index_names = schema.indexed_attributes

    def load_heap(self) -> HeapFile:
        started = perf_counter()
        db, schema = self.db, self.schema
        rng = random.Random(f"{db.seed}/{schema.name}")
        # One int object per value of the table, whichever column holds it.
        ints = list(range(max(self.cardinality, 1)))
        data = [
            generate_column(self.cardinality, attribute.repetition, rng, ints)
            for attribute in schema.attributes
        ]
        heap = HeapFile(
            schema.name, schema.tuple_width, db.pool,
            page_size=db.params.page_size,
        )
        heap.bulk_load(zip(*data))
        self._record(schema.name, started)
        return heap

    def load_index(self, heap: HeapFile, attribute: str) -> BTree:
        started = perf_counter()
        position = self.schema.position(attribute)
        index = BTree(
            f"{self.schema.name}_{attribute}", self.db.pool,
            page_size=self.db.params.page_size,
        )
        # RIDs are positional, so the pairs exist only while the tree loads.
        index.bulk_load(
            zip(map(itemgetter(position), heap.all_rows()), heap.rids())
        )
        self._record(f"{self.schema.name}.{attribute}", started)
        return index

    def index_pages(self, attribute: str) -> int:
        return BTree.pages_for(
            self.cardinality, default_fanout(self.db.params.page_size)
        )

    def _record(self, name: str, started: float) -> None:
        self.db.materialised.append(Materialisation(
            name, self.cardinality, (perf_counter() - started) * 1e3
        ))


def build_table(
    db: Database, name: str, cardinality: int, columns=DEFAULT_COLUMNS
) -> TableEntry:
    """Register one relation in ``db``; its rows and B-trees are generated
    when first read (:class:`GeneratedTable`)."""
    schema = RelationSchema.from_names(name, list(columns))
    return db.catalog.register_table(TableEntry(
        schema=schema,
        stats=declared_stats(schema, cardinality, db.params.page_size),
        source=GeneratedTable(db, schema, cardinality),
    ))


def register_standard_functions(
    db: Database, selectivity: float = 0.5, seed: int = 0
) -> None:
    """Register the paper's ``costlyN`` function family."""
    for cost in (1, 10, 100, 1000):
        db.catalog.functions.register_costly(
            cost, selectivity=selectivity, seed=seed + cost
        )


def build_database(
    scale: int = 1000,
    seed: int = 42,
    relations=DEFAULT_RELATIONS,
    columns=DEFAULT_COLUMNS,
    params: CostParams | None = None,
    pool_pages: int | None = None,
    register_functions: bool = True,
) -> Database:
    """Register the full synthetic database.

    Costs O(tables): every relation gets its schema, declared statistics
    and index names — all the optimizer reads — while rows and B-trees
    are generated by the first query that reads them
    (:class:`GeneratedTable`).

    ``pool_pages=None`` sizes the buffer pool at a quarter of the declared
    heap pages (min 64), roughly mirroring the paper's 32 MB of main
    memory against a 110 MB database.
    """
    params = params or CostParams()
    meter = CostMeter(seq_weight=params.seq_weight)
    # The pool is created with a placeholder capacity and resized below,
    # once the declared data volume is known.
    pool = BufferPool(1, meter)
    db = Database(
        catalog=Catalog(),
        meter=meter,
        pool=pool,
        params=params,
        scale=scale,
        seed=seed,
        description=f"Hong-Stonebraker-style synthetic database, scale={scale}",
    )
    for name in relations:
        build_table(db, name, relation_cardinality(name, scale), columns)
    total_pages = sum(entry.pages for entry in db.catalog)
    pool.capacity_pages = (
        pool_pages if pool_pages is not None else max(64, total_pages // 4)
    )
    if register_functions:
        register_standard_functions(db, seed=seed)
    return db


def paper_scale_database(seed: int = 42) -> Database:
    """The database at the paper's published scale (~110 MB modelled once
    every table and index has been read). A query pays only for what it
    reads, about 146 B of Python objects per tuple: Query 1's ``t3`` and
    ``t10`` make a 42 MiB process."""
    return build_database(scale=PAPER_SCALE, seed=seed)
