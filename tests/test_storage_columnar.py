"""Unit tests: selection masks and column batches."""

import pytest

from repro.expr.expressions import Scope
from repro.storage.columnar import ColumnBatch, mask_count


def _masks():
    yield "empty", bytearray()
    # 512 bytes was the length at which counting used to switch kernels.
    for length in (1, 7, 511, 512, 513, 1024):
        yield f"zeros-{length}", bytearray(length)
        yield f"ones-{length}", bytearray(b"\x01" * length)
        yield f"every-third-{length}", bytearray(
            1 if i % 3 == 0 else 0 for i in range(length)
        )
    # A set byte in the odd tail after a multiple-of-eight body.
    yield "odd-tail", bytearray(b"\x00" * 512 + b"\x00\x01\x01")


@pytest.mark.parametrize(
    "mask", [mask for _, mask in _masks()], ids=[name for name, _ in _masks()]
)
def test_mask_count_is_the_sum_of_the_mask(mask):
    assert mask_count(mask) == sum(mask)


class TestTake:
    SCOPE = Scope([("t", "a"), ("t", "b")])

    def batch(self, n):
        return ColumnBatch(self.SCOPE, [(i, -i) for i in range(n)])

    @pytest.mark.parametrize("n", [0, 1, 511, 512, 513])
    def test_full_mask_returns_the_batch_itself(self, n):
        batch = self.batch(n)
        assert batch.take(bytearray(b"\x01" * n)) is batch

    def test_partial_mask_gathers_survivors_in_order(self):
        batch = self.batch(600)
        mask = bytearray(1 if i % 5 == 0 else 0 for i in range(600))
        taken = batch.take(mask)
        assert taken is not batch
        assert taken.scope is batch.scope
        assert taken.rows == [(i, -i) for i in range(0, 600, 5)]
        assert len(taken) == mask_count(mask)

    def test_empty_mask_on_nonempty_batch(self):
        taken = self.batch(513).take(bytearray(513))
        assert len(taken) == 0 and taken.rows == []
