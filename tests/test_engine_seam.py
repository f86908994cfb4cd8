"""Nothing outside the kernel uses a private ``Engine`` method.

Components wait and wake through :meth:`Engine.schedule` alone, so the
kernel's dispatch order is the one its public methods define.  The scan
parses ``src/repro`` with :mod:`ast` (nothing is imported): it collects
the underscore-named methods of ``Engine`` from ``sim/engine.py`` and
fails on any reference to one elsewhere, whether called or passed as a
callback, whatever it is looked up on.  Reading a private attribute
that is not a method (``engine._now``) stays allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ENGINE = SRC / "sim" / "engine.py"


def private_engine_methods() -> set[str]:
    tree = ast.parse(ENGINE.read_text(), filename=str(ENGINE))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Engine":
            return {
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and item.name.startswith("_")
                and not item.name.startswith("__")
            }
    raise AssertionError("no Engine class in sim/engine.py")


def references(tree: ast.AST, names: set[str]) -> list[tuple[int, str]]:
    return [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
    ]


def private_engine_uses() -> list[str]:
    names = private_engine_methods()
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path == ENGINE:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(SRC.parent)
        found += [f"{where}:{line} .{name}" for line, name in references(tree, names)]
    return found


def test_scan_sees_calls_and_callbacks():
    tree = ast.parse(
        "engine._hop(step)\n"
        "engine.schedule(1.0, engine._hop, step)\n"
        "backlog = engine._now\n"
    )
    assert references(tree, {"_hop"}) == [(1, "_hop"), (2, "_hop")]


def test_no_private_engine_method_is_used_outside_the_kernel():
    assert private_engine_uses() == [], (
        "wait and wake through Engine.schedule; the dispatch order is the kernel's"
    )
