"""Unit tests: declared and measured statistics."""

from hypothesis import given, strategies as st

from repro.catalog.schema import RelationSchema
from repro.catalog.statistics import (
    declared_stats,
    measured_stats,
    pages_for,
)


class TestPagesFor:
    def test_exact_fit(self):
        # 8192 // 100 = 81 tuples per page.
        assert pages_for(81, 100, 8192) == 1

    def test_one_over(self):
        assert pages_for(82, 100, 8192) == 2

    def test_zero_rows(self):
        assert pages_for(0, 100, 8192) == 0

    def test_wide_tuple_still_fits_one_per_page(self):
        assert pages_for(10, 10_000, 8192) == 10

    @given(st.integers(1, 100_000), st.integers(1, 1000), st.integers(512, 65536))
    def test_capacity_respected(self, rows, width, page_size):
        pages = pages_for(rows, width, page_size)
        per_page = max(1, page_size // width)
        assert (pages - 1) * per_page < rows <= pages * per_page


class TestDeclaredStats:
    def test_unique_column(self):
        schema = RelationSchema.from_names("t", ["a1"])
        stats = declared_stats(schema, 500, 8192)
        assert stats.ndistinct("a1") == 500
        assert stats.attribute("a1").low == 0
        assert stats.attribute("a1").high == 499

    def test_repeated_column(self):
        schema = RelationSchema.from_names("t", ["u20"])
        stats = declared_stats(schema, 1000, 8192)
        assert stats.ndistinct("u20") == 50

    def test_repetition_larger_than_table(self):
        schema = RelationSchema.from_names("t", ["u100"])
        stats = declared_stats(schema, 10, 8192)
        assert stats.ndistinct("u100") == 1

    def test_cardinality_and_pages(self):
        schema = RelationSchema.from_names("t", ["a1"])
        stats = declared_stats(schema, 1000, 8192)
        assert stats.cardinality == 1000
        assert stats.pages == pages_for(1000, 100, 8192)


class TestMeasuredStats:
    def test_matches_rows(self):
        schema = RelationSchema.from_names("t", ["a1", "u20"])
        rows = [(i, i % 5) for i in range(100)]
        stats = measured_stats(schema, rows, 8192)
        assert stats.cardinality == 100
        assert stats.ndistinct("a1") == 100
        assert stats.ndistinct("u20") == 5
        assert stats.attribute("u20").low == 0
        assert stats.attribute("u20").high == 4

    def test_empty_rows(self):
        schema = RelationSchema.from_names("t", ["a1"])
        stats = measured_stats(schema, [], 8192)
        assert stats.cardinality == 0
        assert stats.ndistinct("a1") == 0

    def test_nulls_count_towards_cardinality_only(self):
        schema = RelationSchema.from_names("t", ["a1", "u20"])
        rows = [(3, None), (None, None), (7, None), (3, None)]
        stats = measured_stats(schema, rows, 8192)
        assert stats.cardinality == 4
        a1, u20 = stats.attribute("a1"), stats.attribute("u20")
        assert (a1.ndistinct, a1.low, a1.high) == (2, 3, 7)
        assert (u20.ndistinct, u20.width) == (0, 0)

    def test_width_property(self):
        schema = RelationSchema.from_names("t", ["a1"])
        stats = measured_stats(schema, [(3,), (7,)], 8192)
        assert stats.attribute("a1").width == 5


class TestGeneratedDataMatchesDeclaredStats:
    """The synthetic generator's core honesty guarantee."""

    def test_declared_equals_measured(self, db):
        for entry in db.catalog:
            rows = entry.heap.all_rows()
            measured = measured_stats(entry.schema, rows, db.params.page_size)
            assert measured.cardinality == entry.stats.cardinality
            for attribute in entry.schema.attributes:
                assert (
                    measured.ndistinct(attribute.name)
                    == entry.stats.ndistinct(attribute.name)
                ), f"{entry.name}.{attribute.name}"
