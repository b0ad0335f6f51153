"""The assembled database: catalog + storage + shared cost meter.

A :class:`Database` is what :func:`repro.catalog.datagen.build_database`
returns and what the optimizer facade and executor operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.cost.params import CostParams
from repro.storage.buffer import BufferPool
from repro.storage.meter import CostMeter


@dataclass(frozen=True)
class Materialisation:
    """One table (``t3``) or index (``t3.a1``) realised on first read."""

    name: str
    rows: int
    ms: float


@dataclass
class Database:
    """One self-contained database instance."""

    catalog: Catalog
    meter: CostMeter
    pool: BufferPool
    params: CostParams
    scale: int = 0
    seed: int = 0
    description: str = ""
    extras: dict = field(default_factory=dict)
    #: Storage realised so far, in the order it was first read; see
    #: :func:`repro.catalog.datagen.build_database`.
    materialised: list[Materialisation] = field(
        default_factory=list, repr=False
    )

    @classmethod
    def empty(
        cls,
        params: CostParams | None = None,
        pool_pages: int = 64,
    ) -> "Database":
        """An empty database ready for manual table registration (tests)."""
        params = params or CostParams()
        meter = CostMeter(seq_weight=params.seq_weight)
        pool = BufferPool(pool_pages, meter)
        return cls(
            catalog=Catalog(), meter=meter, pool=pool, params=params
        )

    def size_bytes(self) -> int:
        return self.catalog.total_bytes(self.params.page_size)

    def size_megabytes(self) -> float:
        return self.size_bytes() / (1024 * 1024)
