"""Mid-query adaptive re-optimization (drift-triggered suffix re-planning).

The executor imports the controller only when a run is adaptive
(:mod:`repro.exec.runtime`); the workload and bench helpers live in their
own modules and are imported directly by the CLI.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "controller": (
        "AdaptiveController",
        "AdaptivePolicy",
        "AdaptiveReport",
        "CorrectedCostModel",
    ),
    "inject": ("InjectedCardinalityStore", "load_injected_cards"),
})
