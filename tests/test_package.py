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


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this scoutsim; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(scoutsim.__file__))]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout


SCIPY_LOADED = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def test_import_and_analyze_load_no_scipy():
    # scipy's import adds set-up time and memory to every process, so the
    # package loads it only on the one call that needs it (the deviation
    # check's optimizer); the class pass of analyze runs without it
    code = ("import contextlib, io, sys, scoutsim\n"
            f"print({SCIPY_LOADED})\n"
            "from scoutsim import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['analyze', '--protocol',\n"
            "                     'builtin:anchored_geometric?d=2,p=1/2', '--scout', '2'])\n"
            f"print(code, {SCIPY_LOADED})\n")
    assert _fresh_python(code).splitlines() == ["[]", "0 []"]


def test_deviation_check_loads_scipy_on_call():
    # the values the check gave while scipy loaded with the package
    code = ("from scoutsim.walks import NAMED_LAWS, LookAroundWalk, "
            "check_upper_deviation_bound\n"
            "r = check_upper_deviation_bound(LookAroundWalk(NAMED_LAWS['srw']()), 0.2, 100, 20,\n"
            "                                trials=2000, root_seed=3)\n"
            "print(r.passed, repr(r.estimate), repr(r.details['chernoff_bound']),\n"
            "      repr(r.details['optimal_t']))\n")
    assert _fresh_python(code).split() == ["True", "0.022", "0.13351367725439653",
                                           "0.20273324737993798"]
