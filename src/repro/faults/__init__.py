"""Deterministic fault injection and chaos testing.

Arbitrary user-defined predicates are the paper's whole premise — and in
any production setting arbitrary UDFs fail, hang, and lie about their
statistics. This package makes those failure modes *reproducible*:

* :mod:`repro.faults.clock` — a :class:`SimulatedClock` so injected
  latency and retry backoff advance virtual time, never wall-clock;
* :mod:`repro.faults.plan` — :class:`FaultSpec` (one function's failure
  schedule: raise on the Nth call, transient vs permanent, injected
  latency, corrupted selectivity/cost statistics) and :class:`FaultPlan`,
  a seeded generator of whole schedules;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which installs a
  plan onto ``catalog.functions`` by wrapping the registered
  :class:`~repro.catalog.functions.UserFunction` objects in place, so no
  executor or optimizer call site changes;
* :mod:`repro.faults.chaos` — the ``repro chaos`` runner: execute every
  strategy under a seeded schedule, compare against the fault-free
  oracle, and check the containment invariants.

Everything is seeded and deterministic: the same ``(seed, functions)``
pair always yields the same schedule, so a chaos failure is replayable
with one command.

:mod:`repro.faults.chaos` is not re-exported here; import it explicitly
(``from repro.faults.chaos import run_chaos``), as the CLI and the chaos
suite do.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "clock": ("SimulatedClock", "backoff_schedule"),
    "injector": ("FaultInjector", "InjectionStats"),
    "plan": ("FaultPlan", "FaultSpec", "PROFILES"),
})
