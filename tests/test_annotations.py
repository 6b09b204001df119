"""Every annotation in the package resolves: ``typing.get_type_hints`` works
on each function, method and class that a ``ghzsep`` module defines, with
only what that module imports itself.  So no annotation names numpy, which
the float probes import inside their own bodies.

No module defers its annotations with ``from __future__ import
annotations``: a record checks each field's value with ``isinstance``
against the field's class annotation, which a deferred annotation turns
into a string.  The ``get_type_hints`` sweep stays all the same, because
Python 3.14 defers annotations again by default: there an annotation is
evaluated when first read, and a name it cannot resolve fails only then.

Runs under pytest, and without it as ``python tests/test_annotations.py``
(exit 1 and one line per failure), so an install without numpy can run it.
"""

import ast
import importlib
import inspect
import pathlib
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


def deferred() -> list:
    """``module: defers its annotations`` for every module file of the
    package, ``__main__`` included, that imports the annotations future."""
    failures = []
    for path in sorted(pathlib.Path(ghzsep.__file__).parent.glob("*.py")):
        if any(isinstance(node, ast.ImportFrom) and node.module == "__future__"
               and any(alias.name == "annotations" for alias in node.names)
               for node in ast.walk(ast.parse(path.read_text()))):
            failures.append(f"ghzsep.{path.stem}: defers its annotations")
    return failures


def test_every_annotation_resolves():
    assert unresolved() == []


def test_no_module_defers_its_annotations():
    assert deferred() == []


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
    failures = unresolved() + deferred()
    print("\n".join(failures) or "every annotation resolves, and none is deferred")
    raise SystemExit(1 if failures else 0)
