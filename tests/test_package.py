"""Package-wide checks on the public API."""

import importlib
import inspect
import pkgutil
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
    # analysis.renewal_samples annotated SeedSpec without importing it
    names = []
    for name, obj in _public_functions():
        typing.get_type_hints(obj)
        names.append(name)
    assert "scoutsim.analysis.renewal_samples" in names
