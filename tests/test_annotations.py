"""Every annotation in the package resolves: ``typing.get_type_hints`` works
on each function, method and class that a ``ghzsep`` module defines, with
only what that module imports itself.  So no annotation names numpy, which
the float probes import inside their own bodies.

Runs under pytest, and without it as ``python tests/test_annotations.py``
(exit 1 and one line per failure), so an install without numpy can run it.
"""

import importlib
import inspect
import pkgutil
import typing

import ghzsep


def _defined(module):
    """The functions, methods and classes ``module`` defines, functools
    wrappers read through ``__wrapped__``."""
    for obj in vars(module).values():
        obj = inspect.unwrap(obj)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                for fn in (member, getattr(member, "fget", None), getattr(member, "func", None),
                           getattr(member, "__func__", None)):
                    if inspect.isfunction(fn):
                        yield fn


def unresolved() -> list:
    """``module.qualname: error`` for every definition whose annotations do
    not resolve.  ``__main__`` is left out: importing it runs the CLI."""
    failures = []
    for info in pkgutil.iter_modules(ghzsep.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"ghzsep.{info.name}")
        for obj in _defined(module):
            try:
                typing.get_type_hints(obj)
            except Exception as exc:
                failures.append(f"{module.__name__}.{obj.__qualname__}: {exc!r}")
    return failures


def test_every_annotation_resolves():
    assert unresolved() == []


def test_the_sweep_reaches_wrapped_functions_methods_and_commands():
    from ghzsep import cli, lpsolve, oracle

    names = {f"{m.__name__}.{obj.__qualname__}" for m in (cli, lpsolve, oracle) for obj in _defined(m)}
    assert {
        "ghzsep.cli._decimal_context",  # functools.cache
        "ghzsep.lpsolve.LpSolution._peak",  # functools.cached_property
        "ghzsep.lpsolve.LpProblem.n",  # property
        "ghzsep.lpsolve.LpProblem._check",
        "ghzsep.cli.lp",  # a command
    } <= names


if __name__ == "__main__":
    failures = unresolved()
    print("\n".join(failures) or "every annotation resolves")
    raise SystemExit(1 if failures else 0)
