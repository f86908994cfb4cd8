"""Every ``repro`` module is reached by imports from an entry point.

The scan parses ``src/repro`` with :mod:`ast` (nothing is imported) and
follows every ``import`` statement, module-level or inside a function,
from the roots below.  Importing ``a.b.c`` also runs ``a`` and ``a.b``,
so parent packages count as imported.  A module that no other module
imports is unreachable unless it is a root, and so is a package whose
modules only import each other.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules no other ``src/`` module needs to import.
ROOTS = {
    # The ``python -m repro`` entry point.
    "repro.__main__": "run by the interpreter, never imported",
    # The §3 claim that routing is operation-agnostic (tests/core/test_theta.py).
    "repro.core.theta": "a library feature that backs a paper claim, not a CLI path",
}


def _modules() -> dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """The ``repro`` modules that importing ``name`` runs directly."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    package_parts = package.split(".")
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package_parts[: len(package_parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    reached = set()
    for target in found:
        parts = target.split(".")
        reached.update(".".join(parts[:n]) for n in range(1, len(parts) + 1))
    return reached & modules.keys()


def unreachable_modules() -> list[str]:
    modules = _modules()
    seen = set(ROOTS)
    frontier = list(ROOTS)
    while frontier:
        name = frontier.pop()
        for target in _imports(name, modules[name], modules) - seen:
            seen.add(target)
            frontier.append(target)
    return sorted(modules.keys() - seen)


def test_roots_exist():
    assert set(ROOTS) <= _modules().keys()


def test_every_module_is_reached_from_an_entry_point():
    assert unreachable_modules() == [], (
        "no entry point imports these modules; delete them or import them"
    )
