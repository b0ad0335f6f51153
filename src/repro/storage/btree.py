"""Page-based B-tree indexes.

Unclustered secondary indexes, as in the paper's schema ("all other
attributes have B-tree indices defined over them"). Every node is a page;
traversals charge one random I/O per node through the shared buffer pool, so
an index probe costs ~`height` I/Os — the paper's "typically 3 I/Os or less"
for nested-loop join with an indexed inner.

The tree supports bulk loading from unsorted (key, RID) pairs, point and
range searches returning RIDs, and incremental inserts with node splits.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Iterable, Iterator

from repro.storage.buffer import BufferPool
from repro.storage.meter import IOKind
from repro.storage.page import DEFAULT_PAGE_SIZE, RID

#: Modelled bytes per index entry (key + pointer).
ENTRY_WIDTH = 16


def default_fanout(page_size: int) -> int:
    """Entries per node when a tree is not given an explicit fanout."""
    return max(4, page_size // ENTRY_WIDTH)


class _Node:
    """Base class for B-tree nodes; ``page_no`` keys the buffer pool."""

    __slots__ = ("page_no", "keys")

    def __init__(self, page_no: int) -> None:
        self.page_no = page_no
        self.keys: list = []


class _Leaf(_Node):
    __slots__ = ("rids", "next_leaf")

    def __init__(self, page_no: int) -> None:
        super().__init__(page_no)
        self.rids: list[RID] = []
        self.next_leaf: _Leaf | None = None


class _Internal(_Node):
    """Internal node: ``children[i]`` holds keys < ``keys[i]``;
    ``children[-1]`` holds the rest."""

    __slots__ = ("children",)

    def __init__(self, page_no: int) -> None:
        super().__init__(page_no)
        self.children: list[_Node] = []


def _min_key(node: _Node) -> object:
    """Smallest key in a subtree (the separator for its right position)."""
    while isinstance(node, _Internal):
        node = node.children[0]
    return node.keys[0]


class BTree:
    """A B-tree over one attribute of one heap file."""

    def __init__(
        self,
        name: str,
        pool: BufferPool,
        page_size: int = DEFAULT_PAGE_SIZE,
        fanout: int | None = None,
    ) -> None:
        self.name = name
        self.pool = pool
        self.page_size = page_size
        self.file_id = pool.register_file()
        self.fanout = fanout or default_fanout(page_size)
        self._next_page = 0
        self._root: _Node = self._new_leaf()
        self._entries = 0

    # -- node allocation ---------------------------------------------------

    def _new_leaf(self) -> _Leaf:
        node = _Leaf(self._next_page)
        self._next_page += 1
        return node

    def _new_internal(self) -> _Internal:
        node = _Internal(self._next_page)
        self._next_page += 1
        return node

    def _touch(self, node: _Node) -> None:
        self.pool.fetch(self.file_id, node.page_no, IOKind.RANDOM)

    # -- metadata ------------------------------------------------------------

    @property
    def entries(self) -> int:
        return self._entries

    @property
    def pages(self) -> int:
        return self._next_page

    @property
    def height(self) -> int:
        """Number of levels (1 = a lone leaf)."""
        height = 1
        node = self._root
        while isinstance(node, _Internal):
            height += 1
            node = node.children[0]
        return height

    @staticmethod
    def pages_for(entries: int, fanout: int) -> int:
        """Pages :meth:`bulk_load` allocates for ``entries`` pairs: leaves
        packed full, then one level per even split until a single root."""
        level = max(1, -(-entries // fanout))  # an empty tree is one leaf
        pages = level
        while level > 1:
            level = -(-level // fanout)
            pages += level
        return pages

    # -- bulk load -----------------------------------------------------------

    def bulk_load(self, pairs: Iterable[tuple[object, RID]]) -> None:
        """Replace the tree's contents with ``pairs`` (need not be sorted).
        NULL keys are not indexed: no equality or range matches them.

        No I/O is charged: like heap population, index builds model the
        pre-existing database.
        """
        ordered = sorted(
            (pair for pair in pairs if pair[0] is not None),
            key=itemgetter(0),
        )
        self._next_page = 0
        self._entries = len(ordered)
        if not ordered:
            self._root = self._new_leaf()
            return

        # Pack leaves at ~full fanout.
        leaves: list[_Leaf] = []
        for start in range(0, len(ordered), self.fanout):
            leaf = self._new_leaf()
            chunk = ordered[start : start + self.fanout]
            leaf.keys = [key for key, _ in chunk]
            leaf.rids = [rid for _, rid in chunk]
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)

        # Build internal levels bottom-up, distributing children evenly so
        # no internal node is left with a single child.
        level: list[_Node] = list(leaves)
        while len(level) > 1:
            count = len(level)
            groups = -(-count // self.fanout)  # ceil
            base, extra = divmod(count, groups)
            parents: list[_Node] = []
            start = 0
            for group_index in range(groups):
                size = base + (1 if group_index < extra else 0)
                group = level[start : start + size]
                start += size
                parent = self._new_internal()
                parent.children = group
                parent.keys = [_min_key(child) for child in group[1:]]
                parents.append(parent)
            level = parents
        self._root = level[0]
        self.pool.invalidate_file(self.file_id)

    # -- search ---------------------------------------------------------------

    def _descend(self, key: object) -> _Leaf:
        """Leftmost leaf that may contain ``key``.

        Uses ``bisect_left`` so that duplicates equal to a separator key
        (which may spill into the left sibling subtree) are not skipped;
        the leaf chain then carries the scan rightward.
        """
        node = self._root
        self._touch(node)
        while isinstance(node, _Internal):
            child_index = bisect.bisect_left(node.keys, key)
            node = node.children[child_index]
            self._touch(node)
        assert isinstance(node, _Leaf)
        return node

    def search(self, key: object) -> list[RID]:
        """All RIDs whose indexed value equals ``key``."""
        return [rid for _, rid in self.range_entries(key, key)]

    def range_entries(
        self, low: object, high: object
    ) -> Iterator[tuple[object, RID]]:
        """All (key, RID) pairs with ``low <= key <= high``, in key order."""
        if self._entries == 0 or low > high:  # type: ignore[operator]
            return
        leaf: _Leaf | None = self._descend(low)
        while leaf is not None:
            start = bisect.bisect_left(leaf.keys, low)
            for position in range(start, len(leaf.keys)):
                key = leaf.keys[position]
                if key > high:  # type: ignore[operator]
                    return
                yield (key, leaf.rids[position])
            leaf = leaf.next_leaf
            if leaf is not None:
                self._touch(leaf)

    def range_search(self, low: object, high: object) -> list[RID]:
        """All RIDs with ``low <= key <= high``, in key order."""
        return [rid for _, rid in self.range_entries(low, high)]

    # -- insert ----------------------------------------------------------------

    def insert(self, key: object, rid: RID) -> None:
        """Insert one entry, splitting nodes as needed (charges I/O);
        a NULL key is not indexed."""
        if key is None:
            return
        split = self._insert_into(self._root, key, rid)
        if split is not None:
            separator, new_child = split
            new_root = self._new_internal()
            new_root.keys = [separator]
            new_root.children = [self._root, new_child]
            self._root = new_root
        self._entries += 1

    def _insert_into(
        self, node: _Node, key: object, rid: RID
    ) -> tuple[object, _Node] | None:
        self._touch(node)
        if isinstance(node, _Leaf):
            position = bisect.bisect_right(node.keys, key)
            node.keys.insert(position, key)
            node.rids.insert(position, rid)
            if len(node.keys) <= self.fanout:
                return None
            return self._split_leaf(node)

        assert isinstance(node, _Internal)
        child_index = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[child_index], key, rid)
        if split is None:
            return None
        separator, new_child = split
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, new_child)
        if len(node.children) <= self.fanout:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf) -> tuple[object, _Node]:
        middle = len(leaf.keys) // 2
        sibling = self._new_leaf()
        sibling.keys = leaf.keys[middle:]
        sibling.rids = leaf.rids[middle:]
        sibling.next_leaf = leaf.next_leaf
        leaf.keys = leaf.keys[:middle]
        leaf.rids = leaf.rids[:middle]
        leaf.next_leaf = sibling
        return (sibling.keys[0], sibling)

    def _split_internal(self, node: _Internal) -> tuple[object, _Node]:
        middle = len(node.children) // 2
        sibling = self._new_internal()
        separator = node.keys[middle - 1]
        sibling.keys = node.keys[middle:]
        sibling.children = node.children[middle:]
        node.keys = node.keys[: middle - 1]
        node.children = node.children[:middle]
        return (separator, sibling)

    # -- verification (tests) ----------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        leaves = self._check_node(self._root, None, None, is_root=True)
        seen = 0
        previous_key = None
        for leaf in leaves:
            for key in leaf.keys:
                if previous_key is not None:
                    assert key >= previous_key, "leaf keys out of order"
                previous_key = key
                seen += 1
        assert seen == self._entries, "entry count mismatch"
        # Leaf chain covers exactly the leaves, in order.
        chain = []
        node: _Node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        leaf: _Leaf | None = node  # type: ignore[assignment]
        while leaf is not None:
            chain.append(leaf)
            leaf = leaf.next_leaf
        assert chain == leaves, "leaf chain does not match tree leaves"

    def _check_node(
        self, node: _Node, low: object, high: object, is_root: bool = False
    ) -> list[_Leaf]:
        for key in node.keys:
            if low is not None:
                assert key >= low, "key below subtree lower bound"
            if high is not None:
                # Non-strict: duplicates of a separator may sit in the left
                # sibling subtree (the separator is the right subtree's min).
                assert key <= high, "key above subtree upper bound"
        if isinstance(node, _Leaf):
            assert node.keys == sorted(node.keys), "unsorted leaf"
            assert len(node.keys) == len(node.rids), "leaf shape mismatch"
            return [node]
        assert isinstance(node, _Internal)
        assert len(node.children) == len(node.keys) + 1, "internal shape"
        if not is_root:
            assert len(node.children) >= 2, "underfull internal node"
        leaves: list[_Leaf] = []
        bounds = [low, *node.keys, high]
        for position, child in enumerate(node.children):
            leaves.extend(
                self._check_node(child, bounds[position], bounds[position + 1])
            )
        return leaves
