"""Reference-equivalence tests for the synthetic data generator.

``generate_column`` inlines ``rng.shuffle`` and ``build_table`` loads
heaps by page slicing; both must leave every byte of every table as it
was. The reference below is the generator as it stood before (list
comprehension + ``rng.shuffle``, ``HeapFile.insert`` per row), vendored
the way ``reference_planners.py`` vendors the planners.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.catalog.datagen import (
    DEFAULT_COLUMNS,
    DEFAULT_RELATIONS,
    build_database,
    generate_column,
    relation_cardinality,
)
from repro.catalog.schema import RelationSchema
from repro.database import Database
from repro.storage.btree import BTree
from repro.storage.heap import HeapFile


def reference_generate_column(cardinality, repetition, rng):
    ndistinct = max(1, cardinality // repetition)
    values = [min(i // repetition, ndistinct - 1) for i in range(cardinality)]
    rng.shuffle(values)
    return values


def reference_table(db, name, cardinality, seed, columns=DEFAULT_COLUMNS):
    """``(heap, {attribute: index})`` built the eager, row-at-a-time way."""
    schema = RelationSchema.from_names(name, list(columns))
    rng = random.Random(f"{seed}/{name}")
    data = [
        reference_generate_column(cardinality, attribute.repetition, rng)
        for attribute in schema.attributes
    ]
    rows = list(zip(*data)) if data and cardinality else []
    page_size = db.params.page_size
    heap = HeapFile(name, schema.tuple_width, db.pool, page_size=page_size)
    rids = [heap.insert(row) for row in rows]
    indexes = {}
    for position, attribute in enumerate(schema.attributes):
        if attribute.indexed:
            index = BTree(f"{name}_{attribute.name}", db.pool, page_size)
            index.bulk_load(
                [(row[position], rid) for row, rid in zip(rows, rids)]
            )
            indexes[attribute.name] = index
    return heap, indexes


def assert_same_column(cardinality, repetition, seed):
    ours, reference = random.Random(seed), random.Random(seed)
    assert generate_column(
        cardinality, repetition, ours
    ) == reference_generate_column(cardinality, repetition, reference)
    # The next column of the table draws from where this one stopped.
    assert ours.getstate() == reference.getstate()


class TestGenerateColumn:
    @given(
        cardinality=st.integers(0, 3000),
        repetition=st.integers(1, 150),
        seed=st.integers(0, 2**32),
    )
    @example(cardinality=0, repetition=1, seed=0)
    @example(cardinality=1, repetition=1, seed=0)
    @example(cardinality=7, repetition=20, seed=0)  # fewer rows than copies
    @example(cardinality=149, repetition=150, seed=0)
    @example(cardinality=2999, repetition=100, seed=0)  # ragged last value
    @settings(max_examples=300, deadline=None)
    def test_values_and_generator_state(self, cardinality, repetition, seed):
        assert_same_column(cardinality, repetition, seed)

    @pytest.mark.parametrize("power", range(1, 13))
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_around_powers_of_two(self, power, offset):
        """Where the draw's bit length changes."""
        for repetition in (1, 3, 20):
            assert_same_column(2**power + offset, repetition, seed=power)

    def test_consecutive_columns_share_one_stream(self):
        ours, reference = random.Random("42/t3"), random.Random("42/t3")
        for repetition in (1, 20, 100, 1, 20, 100, 20, 100):
            assert generate_column(
                300, repetition, ours
            ) == reference_generate_column(300, repetition, reference)


@pytest.mark.parametrize("scale", [10, 100])
@pytest.mark.parametrize("seed", [7, 11, 42])
def test_whole_tables_match_the_reference_build(seed, scale):
    db = build_database(scale=scale, seed=seed)
    scratch = Database.empty()
    for name in DEFAULT_RELATIONS:
        entry = db.catalog.table(name)
        heap, indexes = reference_table(
            scratch, name, relation_cardinality(name, scale), seed
        )
        assert entry.heap.all_rows() == heap.all_rows()
        assert entry.heap.pages == heap.pages == entry.pages
        assert list(entry.indexes) == list(indexes)
        for attribute, reference in indexes.items():
            index = entry.index(attribute)
            everything = (float("-inf"), float("inf"))
            assert list(index.range_entries(*everything)) == list(
                reference.range_entries(*everything)
            )
            assert (index.pages, index.height, index.entries) == (
                reference.pages, reference.height, reference.entries
            )
            index.check_invariants()
