"""Nothing outside the kernel uses a private ``Engine`` method or moves the clock.

Components wait and wake through :meth:`Engine.schedule` alone, so the
kernel's dispatch order is the one its public methods define, and the
simulated clock ``now`` is a plain attribute that only the run loop
writes.  The scans parse ``src/repro`` with :mod:`ast` (nothing is
imported).  One collects the underscore-named methods of ``Engine``
from ``sim/engine.py`` and fails on any reference to one elsewhere,
whether called or passed as a callback, whatever it is looked up on.
The other fails on any assignment (plain or augmented) to a ``.now``
attribute outside ``sim/engine.py``; reading ``engine.now`` stays
allowed everywhere.
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


def now_writes(tree: ast.AST) -> list[int]:
    """Lines that assign to a ``.now`` attribute, tuple targets included."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            lines += [
                part.lineno
                for part in ast.walk(target)
                if isinstance(part, ast.Attribute) and part.attr == "now"
            ]
    return lines


def outside_the_kernel():
    """``(where, tree)`` of every module of ``src/repro`` but ``sim/engine.py``."""
    for path in sorted(SRC.rglob("*.py")):
        if path != ENGINE:
            yield path.relative_to(SRC.parent), ast.parse(
                path.read_text(), filename=str(path)
            )


def private_engine_uses() -> list[str]:
    names = private_engine_methods()
    return [
        f"{where}:{line} .{name}"
        for where, tree in outside_the_kernel()
        for line, name in references(tree, names)
    ]


def clock_writes() -> list[str]:
    return [
        f"{where}:{line}"
        for where, tree in outside_the_kernel()
        for line in now_writes(tree)
    ]


def test_scan_sees_calls_and_callbacks():
    tree = ast.parse(
        "engine._hop(step)\n"
        "engine.schedule(1.0, engine._hop, step)\n"
        "backlog = engine.now\n"
    )
    assert references(tree, {"_hop"}) == [(1, "_hop"), (2, "_hop")]


def test_scan_sees_every_kind_of_clock_write():
    tree = ast.parse(
        "engine.now = 1.0\n"
        "engine.now += 2.0\n"
        "start, self.engine.now = 0.0, 3.0\n"
        "node.engine.now: float = 4.0\n"
        "start = engine.now\n"
        "engine.schedule(engine.now, step)\n"
        "now = 5.0\n"
    )
    assert now_writes(tree) == [1, 2, 3, 4]


def test_no_private_engine_method_is_used_outside_the_kernel():
    assert private_engine_uses() == [], (
        "wait and wake through Engine.schedule; the dispatch order is the kernel's"
    )


def test_only_the_run_loop_moves_the_clock():
    assert clock_writes() == [], "only Engine.run writes engine.now"
