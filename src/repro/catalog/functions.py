"""User-defined functions with catalog cost and selectivity metadata.

The paper's experiments use functions named ``costlyN`` whose per-invocation
cost equals the I/O time of touching *N* unclustered tuples. Crucially, the
paper does **not** execute real work inside the functions: it counts
invocations and charges ``invocations × cost`` afterwards (Section 2). We do
the same — every :class:`UserFunction` carries a ``cost_per_call`` in
random-I/O units and an invocation counter that the executor charges against
its cost meter.

Functions still compute *real* boolean results so that measured
selectivities match the catalog estimates: :func:`synthetic_boolean` builds a
deterministic pseudo-random predicate with a target pass rate.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import DuplicateNameError, UnknownFunctionError

#: Resolution of the synthetic predicates' pass-rate quantisation.
_HASH_BUCKETS = 1_000_000


def synthetic_boolean(selectivity: float, seed: int = 0) -> Callable[..., bool]:
    """Build a deterministic boolean function with the given pass rate.

    The function hashes its arguments (with ``seed`` mixed in) onto
    ``[0, 1)`` and passes values landing below ``selectivity``. Because the
    hash is uniform, the measured selectivity over a large uniform input
    domain converges to the target, which keeps the optimizer's catalog
    estimates honest during execution.
    """
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError(f"selectivity must be in [0, 1], got {selectivity}")
    threshold = int(round(selectivity * _HASH_BUCKETS))

    def predicate(*args: object) -> bool:
        payload = repr((seed,) + args).encode("utf-8")
        bucket = zlib.crc32(payload) % _HASH_BUCKETS
        return bucket < threshold

    def batch(bindings) -> list[bool]:
        """Vectorized form: one bool verdict per argument tuple, equal
        to calling ``predicate(*args)`` per element — the batch executor
        uses this to amortise per-call dispatch. ``%r`` formatting
        reproduces the tuple ``repr`` byte-for-byte (``%r`` is
        ``repr``) at roughly half the cost of building and repr-ing the
        prefixed tuple per element."""
        if not bindings:
            return []
        crc32 = zlib.crc32
        buckets = _HASH_BUCKETS
        arity = len(bindings[0])
        if arity == 0:
            verdict = (
                crc32(repr((seed,)).encode("utf-8")) % buckets < threshold
            )
            return [verdict] * len(bindings)
        fmt = "(" + repr(seed) + ", %r" * arity + ")"
        return [
            crc32((fmt % args).encode()) % buckets < threshold
            for args in bindings
        ]

    def pairs(inner: list, position: int) -> Callable[[object], list[bool]]:
        """Curried pair form, for a two-argument call inside a nested
        loop: ``inner`` is the inner side's value column, argument
        ``position`` (0 or 1) of every call. The result maps one outer
        value to one verdict per inner value, equal to ``predicate(iv,
        ov)`` (``predicate(ov, iv)`` at position 1) per element. The
        payload ``"(seed, <a>, <b>)"`` splits after ``", "`` and
        ``crc32(suffix, crc32(prefix)) == crc32(prefix + suffix)``, so
        the half that depends on the inner value alone is formatted,
        encoded and (at position 0) hashed once per join instead of once
        per pair."""
        if position not in (0, 1):
            raise ValueError(
                f"the pair form serves two-argument calls, got an inner "
                f"column at argument position {position}"
            )
        crc32 = zlib.crc32
        buckets = _HASH_BUCKETS
        head = "(%r, " % (seed,)
        if position == 0:
            prefixes = [
                crc32((head + "%r, " % (value,)).encode()) for value in inner
            ]

            def verdicts(outer_value: object) -> list[bool]:
                suffix = ("%r)" % (outer_value,)).encode()
                return [
                    crc32(suffix, prefix) % buckets < threshold
                    for prefix in prefixes
                ]

        else:
            suffixes = [("%r)" % (value,)).encode() for value in inner]

            def verdicts(outer_value: object) -> list[bool]:
                prefix = crc32((head + "%r, " % (outer_value,)).encode())
                return [
                    crc32(suffix, prefix) % buckets < threshold
                    for suffix in suffixes
                ]

        return verdicts

    predicate.batch = batch
    predicate.pairs = pairs
    return predicate


@dataclass
class UserFunction:
    """A registered UDF plus its catalog metadata.

    ``cost_per_call`` is expressed in random-I/O units (the paper's
    convention: ``costly100`` costs as much as 100 unclustered tuple reads).
    ``selectivity`` is the catalog's estimate of the pass rate when the
    function is used as a boolean predicate; it is ignored for non-boolean
    functions.
    """

    name: str
    fn: Callable[..., object]
    cost_per_call: float
    selectivity: float = 0.5
    calls: int = field(default=0, compare=False)

    def __call__(self, *args: object) -> object:
        self.calls += 1
        return self.fn(*args)

    @property
    def batch_form(self) -> Callable[[list[tuple]], list[bool]] | None:
        """The implementation's vectorized ``batch`` form, or ``None``.

        Call forms live on ``fn`` (as :func:`synthetic_boolean` attaches
        them), so whatever replaces ``fn`` — a fault-injector wrapper, a
        user lambda — strips them, and dispatch falls back to the scalar
        form with the per-call ``calls`` index the injector's schedule
        relies on. These accessors are the one place that looks for a
        form; a form returns exactly what the scalar form returns per
        argument tuple and leaves counting and charging to its caller."""
        return getattr(self.fn, "batch", None)

    def call_batch(self, bindings: list[tuple]) -> list[object]:
        """Invoke the function once per argument tuple, amortising
        dispatch when the implementation provides a ``batch`` form (one
        ``bool`` per binding). Counts every element as one invocation
        either way; without the form, dispatch is per call."""
        batch = self.batch_form
        if batch is None:
            return [self(*args) for args in bindings]
        self.calls += len(bindings)
        return batch(bindings)

    def pair_form(
        self, inner: list, position: int
    ) -> Callable[[object], list[bool]] | None:
        """The implementation's curried ``pairs`` form prepared over one
        join's inner value column (argument ``position`` of a
        two-argument call), or ``None`` when ``fn`` carries none. The
        result maps one outer value to one verdict per inner value and
        counts ``len(inner)`` invocations each time it is called."""
        pairs = getattr(self.fn, "pairs", None)
        if pairs is None:
            return None
        verdicts = pairs(inner, position)
        count = len(inner)

        def call(outer_value: object) -> list[bool]:
            self.calls += count
            return verdicts(outer_value)

        return call

    def reset(self) -> None:
        self.calls = 0

    @property
    def charged(self) -> float:
        """Total charged cost so far: invocations × per-call cost."""
        return self.calls * self.cost_per_call


class FunctionRegistry:
    """Name → :class:`UserFunction` registry with invocation accounting."""

    def __init__(self) -> None:
        self._functions: dict[str, UserFunction] = {}

    def register(
        self,
        name: str,
        fn: Callable[..., object] | None = None,
        *,
        cost_per_call: float,
        selectivity: float = 0.5,
        seed: int = 0,
    ) -> UserFunction:
        """Register a UDF.

        When ``fn`` is omitted, a deterministic synthetic boolean with the
        declared ``selectivity`` is installed — the common case for
        reproducing the paper's ``costlyN`` functions.
        """
        if name in self._functions:
            raise DuplicateNameError(f"function already registered: {name!r}")
        if fn is None:
            fn = synthetic_boolean(selectivity, seed=seed)
        function = UserFunction(
            name=name,
            fn=fn,
            cost_per_call=cost_per_call,
            selectivity=selectivity,
        )
        self._functions[name] = function
        return function

    def register_costly(
        self, cost: int, *, selectivity: float = 0.5, seed: int = 0
    ) -> UserFunction:
        """Register the paper's ``costly<N>`` naming shorthand."""
        return self.register(
            f"costly{cost}",
            cost_per_call=float(cost),
            selectivity=selectivity,
            seed=seed,
        )

    def get(self, name: str) -> UserFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise UnknownFunctionError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> list[str]:
        return sorted(self._functions)

    def reset_counters(self) -> None:
        for function in self._functions.values():
            function.reset()

    def total_calls(self) -> int:
        return sum(f.calls for f in self._functions.values())

    def total_charged(self) -> float:
        """Charged function cost across all UDFs, in random-I/O units."""
        return sum(f.charged for f in self._functions.values())
