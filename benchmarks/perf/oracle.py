"""Independent output oracle for the benchmark's queries.

Hand-written plain-Python evaluators — dict joins over uncharged heap
reads plus the registered UDF callables — for q1–q5, qor, ldl_example and
fiveway. They share no code with the SQL front-end, the optimizer or
either executor, so a row multiset that matches the oracle's is right for
a reason other than "the engines agree with each other".

Each evaluator returns the query's rows with columns in FROM-list order
(``SELECT *``); :func:`canonical_digest` brings an executor's rows, whose
column order follows the chosen join order, into the same order first.
"""

from __future__ import annotations

import re
from collections import defaultdict

_MASK = (1 << 64) - 1


def multiset_digest(rows) -> tuple[int, int]:
    """Order-independent digest of a row multiset: (count, Σ hash(row)).

    Rows hold ints only, whose hashes do not depend on PYTHONHASHSEED;
    digests are only ever compared within one process anyway.
    """
    total = 0
    count = 0
    for row in rows:
        total += hash(row)
        count += 1
    return count, total & _MASK


def canonical_digest(db, tables, scope_columns, rows) -> tuple[int, int]:
    """Digest of executor ``rows`` after reordering their columns from
    ``scope_columns`` (join order) to ``tables`` (FROM-list) order."""
    wanted = [
        (table, attribute.name)
        for table in tables
        for attribute in db.catalog.table(table).schema.attributes
    ]
    slot_of = {column: slot for slot, column in enumerate(scope_columns)}
    order = [slot_of[column] for column in wanted]
    if order == list(range(len(order))):
        return multiset_digest(rows)
    return multiset_digest(tuple(row[slot] for slot in order) for row in rows)


class _Tables:
    """Uncharged access to heap rows, column positions and raw UDFs."""

    def __init__(self, db) -> None:
        self.db = db

    def rows(self, table: str) -> list[tuple]:
        return self.db.catalog.table(table).heap.all_rows()

    def pos(self, table: str, attribute: str) -> int:
        return self.db.catalog.table(table).schema.position(attribute)

    def udf(self, name: str):
        """The registered callable itself (not the counting wrapper),
        memoised per argument tuple: UDFs are deterministic."""
        fn = self.db.catalog.functions.get(name).fn
        memo: dict[tuple, bool] = {}

        def call(*args) -> bool:
            verdict = memo.get(args)
            if verdict is None:
                verdict = memo[args] = bool(fn(*args))
            return verdict

        return call

    def index(self, table: str, attribute: str, keep=None) -> dict:
        """value -> rows of ``table`` having it in ``attribute``,
        restricted to rows passing ``keep``."""
        pos = self.pos(table, attribute)
        buckets: dict = defaultdict(list)
        for row in self.rows(table):
            if keep is None or keep(row):
                buckets[row[pos]].append(row)
        return buckets


def _q1(t: _Tables, sql: str) -> list[tuple]:
    costly100 = t.udf("costly100")
    u20 = t.pos("t10", "u20")
    t10 = t.index("t10", "ua1", lambda row: costly100(row[u20]))
    a1 = t.pos("t3", "a1")
    return [r3 + r10 for r3 in t.rows("t3") for r10 in t10.get(r3[a1], ())]


def _q2(t: _Tables, sql: str) -> list[tuple]:
    costly100 = t.udf("costly100")
    u20 = t.pos("t10", "u20")
    t10 = t.index("t10", "ua20", lambda row: costly100(row[u20]))
    a1 = t.pos("t9", "a1")
    return [r9 + r10 for r9 in t.rows("t9") for r10 in t10.get(r9[a1], ())]


def _q3(t: _Tables, sql: str) -> list[tuple]:
    costly100 = t.udf("costly100")
    u20, ua1 = t.pos("t3", "u20"), t.pos("t3", "ua1")
    t10 = t.index("t10", "ua20")
    return [
        r3 + r10
        for r3 in t.rows("t3")
        if costly100(r3[u20])
        for r10 in t10.get(r3[ua1], ())
    ]


def _t3_t6_t10(t: _Tables, keep_t10=None):
    """The q4/q5 spine: σ(costly100sel10(t3.u20)) ⋈ t6 ⋈ t10."""
    sel10 = t.udf("costly100sel10")
    u20, t3_ua1 = t.pos("t3", "u20"), t.pos("t3", "ua1")
    t6_ua1 = t.pos("t6", "ua1")
    t6 = t.index("t6", "a1")
    t10 = t.index("t10", "a1", keep_t10)
    for r3 in t.rows("t3"):
        if not sel10(r3[u20]):
            continue
        for r6 in t6.get(r3[t3_ua1], ()):
            for r10 in t10.get(r6[t6_ua1], ()):
                yield r3, r6, r10


def _q4(t: _Tables, sql: str) -> list[tuple]:
    # The range constant is derived from catalog statistics when the
    # workload is built; read it back from the SQL the engine was given.
    match = re.search(r"t10\.a20 < (\d+)", sql)
    if match is None:
        raise ValueError(f"q4's range predicate not found in: {sql!r}")
    threshold = int(match.group(1))
    a20 = t.pos("t10", "a20")
    return [
        r3 + r6 + r10
        for r3, r6, r10 in _t3_t6_t10(t, lambda row: row[a20] < threshold)
    ]


def _q5(t: _Tables, sql: str) -> list[tuple]:
    expjoin10 = t.db.catalog.functions.get("expjoin10").fn
    t3_ua1, t7_ua1 = t.pos("t3", "ua1"), t.pos("t7", "ua1")
    spine = list(_t3_t6_t10(t))
    return [
        r3 + r6 + r7 + r10
        for r7 in t.rows("t7")
        for r3, r6, r10 in spine
        if expjoin10(r7[t7_ua1], r3[t3_ua1])
    ]


def _qor(t: _Tables, sql: str) -> list[tuple]:
    sel10, sel90 = t.udf("costly100sel10"), t.udf("costly100sel90")
    u20, ua20 = t.pos("t10", "u20"), t.pos("t10", "ua20")
    t10 = t.index(
        "t10", "ua1", lambda row: sel10(row[u20]) or sel90(row[ua20])
    )
    a1 = t.pos("t3", "a1")
    return [r3 + r10 for r3 in t.rows("t3") for r10 in t10.get(r3[a1], ())]


def _ldl_example(t: _Tables, sql: str) -> list[tuple]:
    sel90 = t.udf("costly100sel90")
    u20, ua20 = t.pos("t3", "u20"), t.pos("t3", "ua20")
    u100 = t.pos("t6", "u100")
    t6 = t.index("t6", "ua20", lambda row: sel90(row[u100]))
    return [
        r3 + r6
        for r3 in t.rows("t3")
        if sel90(r3[u20])
        for r6 in t6.get(r3[ua20], ())
    ]


def _fiveway(t: _Tables, sql: str) -> list[tuple]:
    costly100, sel10 = t.udf("costly100"), t.udf("costly100sel10")
    t2_u20, t6_u20, t10_u20 = (
        t.pos("t2", "u20"), t.pos("t6", "u20"), t.pos("t10", "u20")
    )
    ua1 = {name: t.pos(name, "ua1") for name in ("t2", "t4", "t6", "t8")}
    t4 = t.index("t4", "a1")
    t6 = t.index("t6", "a1", lambda row: sel10(row[t6_u20]))
    t8 = t.index("t8", "a1")
    t10 = t.index("t10", "a1", lambda row: costly100(row[t10_u20]))
    return [
        r2 + r4 + r6 + r8 + r10
        for r2 in t.rows("t2")
        if costly100(r2[t2_u20])
        for r4 in t4.get(r2[ua1["t2"]], ())
        for r6 in t6.get(r4[ua1["t4"]], ())
        for r8 in t8.get(r6[ua1["t6"]], ())
        for r10 in t10.get(r8[ua1["t8"]], ())
    ]


#: query key -> (FROM-list tables, evaluator).
ORACLES = {
    "q1": (("t3", "t10"), _q1),
    "q2": (("t9", "t10"), _q2),
    "q3": (("t3", "t10"), _q3),
    "q4": (("t3", "t6", "t10"), _q4),
    "q5": (("t3", "t6", "t7", "t10"), _q5),
    "qor": (("t3", "t10"), _qor),
    "ldl_example": (("t3", "t6"), _ldl_example),
    "fiveway": (("t2", "t4", "t6", "t8", "t10"), _fiveway),
}


def tables_of(query: str) -> tuple[str, ...]:
    return ORACLES[query][0]


def oracle_digest(db, query: str, sql: str) -> tuple[int, int]:
    """Digest of the rows ``query`` must return on ``db``."""
    _, evaluate = ORACLES[query]
    return multiset_digest(evaluate(_Tables(db), sql))
