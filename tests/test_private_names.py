"""No ghzsep module imports or reads another ghzsep module's underscore
name: what one module uses of another is that module's public API.

The check reads each module's source with ``ast``.  It flags a
``from .other import _name`` (or ``from ghzsep.other import _name``) and
an attribute read ``other._name`` on a name bound to another ghzsep
module, by ``from . import other``, ``import ghzsep.other`` or an alias.
Dunder names such as ``__name__`` are not underscore names here.

Runs under pytest, and without it as ``python tests/test_private_names.py``
(exit 1 and one line per finding), so an install without numpy can run it.
"""

import ast
from pathlib import Path

import ghzsep

PACKAGE = Path(ghzsep.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node) -> str:
    """``a.b.c`` for a chain of attribute reads on a name, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def findings(source: str, module: str) -> list:
    """``module:line: what`` for each foreign underscore name that the
    source of ghzsep module ``module`` imports or reads."""
    tree = ast.parse(source)
    found = []  # (line, what)
    aliases = set()  # dotted names bound to another ghzsep module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "ghzsep":
                continue
            source_module = parts[-1] if node.module and node.module != "ghzsep" else "__init__"
            for alias in node.names:
                if source_module == "__init__" and alias.name in MODULES:
                    if alias.name != module:
                        aliases.add(alias.asname or alias.name)
                elif _private(alias.name) and source_module != module:
                    found.append((node.lineno, f"imports {source_module}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ghzsep" and parts[-1] != module:
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and _dotted(node.value) in aliases:
            found.append((node.lineno, f"reads {_dotted(node)}"))
    return [f"{module}:{line}: {what}" for line, what in sorted(found)]


def package_findings() -> list:
    return [line for path in sorted(PACKAGE.glob("*.py"))
            for line in findings(path.read_text(), path.stem)]


def test_no_module_uses_another_modules_underscore_names():
    assert package_findings() == []


def test_the_check_sees_each_kind_of_use():
    source = "\n".join([
        "from .symstate import _exact",
        "from ghzsep.symstate import noisy_ghz, _probability",
        "from . import lpsolve",
        "from ghzsep import oracle as orc",
        "import ghzsep.partitions",
        "lpsolve._certified_solve(6, 3)",
        "orc._placements",
        "ghzsep.partitions._cache",
        "lpsolve.__name__, lpsolve.solve, noisy_ghz._hidden",
    ])
    assert findings(source, "cli") == [
        "cli:1: imports symstate._exact",
        "cli:2: imports symstate._probability",
        "cli:6: reads lpsolve._certified_solve",
        "cli:7: reads orc._placements",
        "cli:8: reads ghzsep.partitions._cache",
    ]


def test_a_module_may_use_its_own_underscore_names():
    assert findings("from .lpsolve import _check_cap\n_check_cap(3)\n", "lpsolve") == []


if __name__ == "__main__":
    found = package_findings()
    print("\n".join(found) or "no module uses another module's underscore names")
    raise SystemExit(1 if found else 0)
