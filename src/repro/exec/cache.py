"""Predicate caching (Section 5.1 of the paper).

Montage associates with each expensive predicate a main-memory dynamic hash
table storing the *predicate's* boolean result for each binding of its input
variables — not the result of the functions inside it. We reproduce that:
one table per predicate, keyed on the tuple of distinct input-column values,
holding ``True`` / ``False`` / ``None`` (the paper's NULL for "beardless
people").

Extensions beyond the paper's default, all mentioned in Section 5.1 as
alternatives:

* *function-level* caching ([Jhi88], [HS93a]) — the executor can cache each
  UDF's return value per argument tuple instead (``cache_mode="function"``);
  the cache keys are then function names rather than predicate ids;
* bounded tables with FIFO or LRU replacement ("caches can be limited in
  size, using any of a variety of replacement schemes");
* the cache-bypass heuristic the paper describes as "planned for Montage,
  but not implemented yet" lives in :mod:`repro.exec.runtime`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import is_
from typing import Callable, Hashable

from repro.errors import ExecutionError

#: Supported replacement policies for bounded caches.
REPLACEMENT_POLICIES = ("fifo", "lru")

#: "No entry" in a table probe — a cached NULL verdict is ``None``.
_MISSING = object()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class PredicateCache:
    """Caches results for every predicate (or function) of one execution.

    Tables are keyed by an arbitrary hashable owner — a predicate id in
    predicate mode, a function name in function mode. The engines go
    through :meth:`resolve` (a batch of keys) and :meth:`memoised` (one
    key at a time), which agree on contents and tallies. With no bound
    nothing is ever evicted, so a table is a plain insertion-ordered
    ``dict`` probed directly; a bounded cache is order-sensitive and
    runs :meth:`lookup` → evaluate → :meth:`store` per key over
    ``OrderedDict`` tables (first-in eviction from a plain ``dict``
    rescans the slots earlier deletions left behind).
    """

    max_entries_per_predicate: int | None = None
    replacement: str = "fifo"
    #: Global capacity across *all* owners ("caches can be limited in
    #: size"): when set, the least-recently-used binding anywhere in the
    #: cache is evicted once the total entry count would exceed it.
    #: Composes with the per-owner bound; under ``replacement="fifo"``
    #: the global order is insertion order (hits do not refresh).
    max_total_entries: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _tables: dict[Hashable, dict[tuple, object]] = field(default_factory=dict)
    #: Global recency order over ``(owner, key)`` pairs; maintained only
    #: when ``max_total_entries`` is set (unbounded caches pay nothing).
    _order: OrderedDict[tuple, None] = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ExecutionError(
                f"replacement must be one of {REPLACEMENT_POLICIES}, "
                f"got {self.replacement!r}"
            )
        for name in ("max_entries_per_predicate", "max_total_entries"):
            bound = getattr(self, name)
            if bound is not None and bound < 1:
                raise ExecutionError(f"{name} must be positive, got {bound}")
        #: Whether anything can ever be evicted.
        self.bounded = (
            self.max_entries_per_predicate is not None
            or self.max_total_entries is not None
        )

    def _table(self, owner: Hashable) -> dict[tuple, object]:
        if owner not in self._tables:
            self._tables[owner] = OrderedDict() if self.bounded else {}
        return self._tables[owner]

    def resolve(
        self,
        owner: Hashable,
        keys: list[tuple],
        evaluate_missing: Callable[[list[tuple]], list[object]],
    ) -> list[object]:
        """The value of every key of one batch, in order.

        Unbounded: one probe of the whole batch; the keys the table
        lacks — each once, so a repeat inside the batch is a hit exactly
        as it is one key at a time — go to ``evaluate_missing`` in one
        call and into the table in one update. Nothing is stored or
        tallied when it raises. Bounded: one key at a time.
        """
        if self.bounded:
            one = self.memoised(owner, lambda key: evaluate_missing([key])[0])
            return list(map(one, keys))
        table = self._table(owner)
        values = list(map(table.get, keys, repeat(_MISSING)))
        absent = map(is_, values, repeat(_MISSING))
        missing = list(dict.fromkeys(compress(keys, absent)))
        if missing:
            table.update(zip(missing, evaluate_missing(missing)))
            values = list(map(table.__getitem__, keys))
        self.stats.misses += len(missing)
        self.stats.hits += len(keys) - len(missing)
        return values

    def memoised(
        self, owner: Hashable, evaluate: Callable[[tuple], object]
    ) -> Callable[[tuple], object]:
        """``key -> value`` through ``owner``'s table: ``evaluate(key)``
        runs, and its value is stored, only on a miss."""
        if self.bounded:
            lookup, store = self.lookup, self.store

            def cached(key: tuple) -> object:
                found, value = lookup(owner, key)
                if not found:
                    value = evaluate(key)
                    store(owner, key, value)
                return value

            return cached
        table = self._table(owner)
        get = table.get
        stats = self.stats

        def cached(key: tuple) -> object:
            value = get(key, _MISSING)
            if value is _MISSING:
                stats.misses += 1
                value = table[key] = evaluate(key)
            else:
                stats.hits += 1
            return value

        return cached

    def lookup(self, owner: Hashable, key: tuple) -> tuple[bool, object]:
        """Return ``(found, value)`` for a binding of one owner."""
        table = self._tables.get(owner)
        if table is not None and key in table:
            self.stats.hits += 1
            if self.replacement == "lru" and self.bounded:
                table.move_to_end(key)
                if self.max_total_entries is not None:
                    self._order.move_to_end((owner, key))
            return (True, table[key])
        self.stats.misses += 1
        return (False, None)

    def store(self, owner: Hashable, key: tuple, value: object) -> None:
        table = self._table(owner)
        shared = self.max_total_entries is not None
        if shared:
            if key in table:
                self._order.move_to_end((owner, key))
            else:
                self._order[(owner, key)] = None
        table[key] = value
        limit = self.max_entries_per_predicate
        if limit is not None and len(table) > limit:
            evicted_key, _ = table.popitem(last=False)
            if shared:
                del self._order[(owner, evicted_key)]
            self.stats.evictions += 1
        if shared and len(self._order) > self.max_total_entries:
            (evict_owner, evict_key), _ = self._order.popitem(last=False)
            del self._tables[evict_owner][evict_key]
            self.stats.evictions += 1

    def entries(self, owner: Hashable) -> int:
        return len(self._tables.get(owner, ()))

    def total_entries(self) -> int:
        return sum(len(table) for table in self._tables.values())
