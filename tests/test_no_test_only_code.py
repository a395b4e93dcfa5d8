"""Guard: every public top-level definition in ``src/repro`` has a real caller.

A function or class that only ``tests/`` reaches is code kept alive for its
own tests.  This scan walks the program's own code (``src/``, the examples,
the benchmarks, ``perfbench/`` and ``setup.py``) with the stdlib :mod:`ast`
module and follows references from the code that runs (module-level
statements, registered definitions and everything outside ``src/``) to a
fixed point.  A public top-level definition it never reaches fails the test
with its ``file:line``.

What does not count as a reference:
- an import (so neither an ``__init__`` re-export nor an unused import),
- an ``__all__`` entry or a docstring (both are strings),
- the definition itself, or a reference from inside another definition that
  nothing reaches.

References are matched by name (``foo`` and ``obj.foo`` both reach every
definition named ``foo``), which errs towards "reached".  A definition under
a ``register*`` decorator is reached: its registry loads it by name.
"""

from __future__ import annotations

import ast
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
CALLER_TREES = ("examples", "benchmarks", "perfbench")

#: Definitions that stay although only tests reach them, each with its reason.
#: A new exemption is a test change, made here.
EXEMPT = {
    "generate_bundles": "the Sec. 4.2 bundle generator; "
                        "test_covers_default_catalog_signatures checks the "
                        "fixed 18-bundle catalogue against it",
}


def _names_used(nodes) -> set[str]:
    """Every name loaded, and every attribute touched, under ``nodes``."""
    used: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
    return used


def _is_registered(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name.startswith("register"):
            return True
    return False


def _is_all_assignment(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def unreached_definitions() -> list[tuple[str, str]]:
    """``(file:line, name)`` of each public top-level definition nothing reaches."""
    definitions = []              # (name, location, names its body uses)
    roots: set[str] = set()       # names that running code uses
    sources = sorted(SRC.rglob("*.py"))
    for tree in CALLER_TREES:
        sources += sorted((REPO_ROOT / tree).rglob("*.py"))
    sources.append(REPO_ROOT / "setup.py")
    for path in sources:
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if SRC not in path.parents:
            roots |= _names_used([module])
            continue
        location = path.relative_to(REPO_ROOT)
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_registered(node):
                    roots |= _names_used([node])
                else:
                    definitions.append((node.name, f"{location}:{node.lineno}",
                                        _names_used([node])))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and not _is_all_assignment(node):
                roots |= _names_used([node])
    reached, pending = roots, definitions
    while True:
        newly = [d for d in pending if d[0] in reached]
        if not newly:
            break
        pending = [d for d in pending if d[0] not in reached]
        for _, _, used in newly:
            reached |= used
    return sorted((where, name) for name, where, _ in pending
                  if not name.startswith("_"))


def test_every_public_definition_has_a_caller_outside_tests():
    unreached = unreached_definitions()
    flagged = [f"{where} {name}" for where, name in unreached if name not in EXEMPT]
    assert not flagged, (
        "only tests reach these definitions; delete them (and their tests) "
        "or give them a caller:\n  " + "\n  ".join(flagged))
    # The exemptions are pinned: each is still defined and still unreached,
    # so a stale entry cannot quietly excuse a later definition of that name.
    assert sorted(name for _, name in unreached) == sorted(EXEMPT)
