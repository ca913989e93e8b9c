"""Package-wide checks on the public API."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing

import scoutsim


def _public_functions():
    """Every public function and class of every module, with each public
    class's public methods, as (qualified name, object)."""
    for info in pkgutil.iter_modules(scoutsim.__path__):
        mod = importlib.import_module(f"scoutsim.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{mod.__name__}.{name}", obj
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        yield f"{mod.__name__}.{name}.{attr}", fn


def test_type_hints_resolve():
    # a hint naming another module's type resolves only if the module imports
    # it; renewal.extract_renewal takes an engine.Trace
    names = []
    for name, obj in _public_functions():
        typing.get_type_hints(obj)
        names.append(name)
    assert "scoutsim.renewal.extract_renewal" in names


def test_import_leaves_scipy_stats_unloaded():
    # no module of the package uses scipy.stats, and importing it would add
    # set-up time and memory to every run
    code = "import sys, scoutsim; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(scoutsim.__file__))]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
