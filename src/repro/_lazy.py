"""Lazy re-exports for the package façades (PEP 562).

A façade such as :mod:`repro.obs` re-exports names defined in its
submodules. Were it to import them all, ``from repro.obs.tracer import
NULL_TRACER`` would execute every ``obs`` module, and ``chaos``, the bench
drivers and the exporters would sit on the path of a plain ``python -m
repro --workload q1``. A façade built with :func:`lazy_exports` imports a
submodule the first time one of its names is asked for, and at no other
time.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]) -> list[str]:
    """Install ``__getattr__`` and ``__dir__`` on the package whose
    ``globals()`` is ``namespace`` and return its ``__all__``.

    ``exports`` maps a submodule's name (relative to the package) to the
    names re-exported from it. A resolved name is stored in ``namespace``,
    so only its first lookup goes through ``__getattr__``.
    """
    package = namespace["__name__"]
    origin = {
        name: submodule
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str):
        submodule = origin.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return sorted(origin)
