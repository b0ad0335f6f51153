"""The cold-start budget, and the lazy façades that keep it.

A plain ``python -m repro --workload q1`` spends most of its time on
imports, so what it may import is gated here: the optional subsystems
stay out of ``sys.modules``, and the module counts sit under committed
ceilings, so that the next eager import fails a test. Everything that
inspects ``sys.modules`` runs in a fresh interpreter.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Nothing on the plain path may load these.
OPTIONAL = (
    "numpy",
    "repro.faults.chaos",
    "repro.faults.injector",
    "repro.adaptive.controller",
    "repro.obs.artifacts",
    "repro.obs.export",
    "repro.obs.chrome",
    "repro.obs.flightrec",
    "repro.obs.runtime_telemetry",
)

#: ``len(sys.modules)`` after ``import repro.__main__`` (a bare ``python
#: -S`` interpreter holds 23; the eager import graph held 310) — the
#: benchmark's ``startup.modules``.
IMPORT_CEILING = 60

#: ``len(sys.modules)`` after a plain q1 run (167 when committed).
RUN_CEILING = 185

LAZY_PACKAGES = (
    "repro",
    "repro.adaptive",
    "repro.bench",
    "repro.exec",
    "repro.faults",
    "repro.obs",
)


def _fresh(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter and return its stdout.

    ``-S`` skips ``site``, so ``.pth`` files an environment installs into
    site-packages (and whatever they import) do not count against
    ``repro``'s budgets; ``PYTHONPATH`` still puts ``src`` on the path.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *args],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


_MARK = "== sys.modules =="

#: Imports nothing of its own beyond ``sys``, so the counts are the CLI's.
_LOADED = f"""
import sys
import repro.__main__
if sys.argv[1] != "none":
    code = repro.__main__.main(
        ["--workload", "q1", "--executor", sys.argv[1], "--scale", "10"]
    )
    assert code == 0, code
print({_MARK!r})
print("\\n".join(sorted(sys.modules)))
"""


@pytest.fixture(scope="module", params=["none", "row", "vector"])
def loaded(request):
    """(stage, modules loaded after it): the import alone, then a run."""
    _, _, listing = _fresh(_LOADED, request.param).partition(_MARK)
    return request.param, listing.split()


def test_plain_path_loads_no_optional_subsystem(loaded):
    _, modules = loaded
    assert not sorted(set(OPTIONAL) & set(modules))


def test_module_count_stays_under_its_ceiling(loaded):
    stage, modules = loaded
    ceiling = IMPORT_CEILING if stage == "none" else RUN_CEILING
    assert len(modules) <= ceiling, (stage, len(modules))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestFacade:
    def test_every_exported_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        assert len(set(module.__all__)) == len(module.__all__)
        listed = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in listed, name

    def test_star_import(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})


_IMPORT_EACH_FIRST = """
import importlib, pkgutil, sys
top = sys.argv[1]
names = [top]
module = importlib.import_module(top)
if hasattr(module, "__path__"):
    names += [
        found.name
        for found in pkgutil.walk_packages(module.__path__, top + ".")
    ]
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    importlib.import_module(name)
print(len(names))
"""


@pytest.mark.parametrize(
    "top",
    sorted(
        f"repro.{found.name}" for found in pkgutil.iter_modules(repro.__path__)
    ),
)
def test_every_module_imports_first(top):
    """No module relies on another having been imported before it — the
    cycles an eager façade's import order used to hide."""
    assert int(_fresh(_IMPORT_EACH_FIRST, top)) >= 1
