"""Guard: every public definition in ``src/repro`` has a real caller.

A function, class, method or property that only ``tests/`` reaches is code
kept alive for its own tests.  This scan walks the program's own code
(``src/``, the examples, the benchmarks, ``perfbench/`` and ``setup.py``)
with the stdlib :mod:`ast` module and follows references from the code that
runs (module-level statements, registered definitions and everything outside
``src/``) to a fixed point.  A public top-level definition, or a public
method or property of a top-level class, that it never reaches fails the
test with its ``file:line``.

A class brings its class-level statements and its private methods along; a
public method is reached when its class is and running code uses its name.

What does not count as a reference:
- an import (so neither an ``__init__`` re-export nor an unused import),
- an ``__all__`` entry or a docstring (both are strings),
- the definition itself, or a reference from inside another definition that
  nothing reaches.

References are matched by name (``foo`` and ``obj.foo`` both reach every
definition named ``foo``), which errs towards "reached".  Identifier strings
in ``examples/``, ``benchmarks/`` and ``perfbench/`` count as references too,
because ``perfbench/tracer.py`` patches methods by name.  A definition under
a ``register*`` decorator is reached: its registry loads it by name.
"""

from __future__ import annotations

import ast
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
CALLER_TREES = ("examples", "benchmarks", "perfbench")

#: Definitions that stay although only tests reach them, each with its reason
#: (methods as ``Class.name``).  A new exemption is a test change, made here.
EXEMPT = {
    "generate_bundles": "the Sec. 4.2 bundle generator; "
                        "test_covers_default_catalog_signatures checks the "
                        "fixed 18-bundle catalogue against it",
    "_CoordinatorHandler.do_GET": "http.server calls it for each GET",
    "_CoordinatorHandler.do_POST": "http.server calls it for each POST",
    "_CoordinatorHandler.do_DELETE": "http.server calls it for each DELETE",
    "_CoordinatorHandler.log_message": "http.server logs each request through it",
    "_StderrHandler.stream": "logging.StreamHandler writes each record to it",
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


def _identifier_strings(module: ast.AST) -> set[str]:
    """Every string constant that is an identifier (a name patched by string)."""
    return {node.value for node in ast.walk(module)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()}


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


def _is_public_method(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
        and not node.name.startswith("_")


def unreached_definitions() -> list[tuple[str, str]]:
    """``(file:line, name)`` of each public definition nothing reaches
    (``Class.name`` for a method)."""
    # (name, owning class or None, label, file:line, names its body uses)
    definitions = []
    roots: set[str] = set()       # names that running code uses
    sources = sorted(SRC.rglob("*.py"))
    for tree in CALLER_TREES:
        sources += sorted((REPO_ROOT / tree).rglob("*.py"))
    sources.append(REPO_ROOT / "setup.py")
    for path in sources:
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if SRC not in path.parents:
            roots |= _names_used([module])
            if path.name != "setup.py":
                roots |= _identifier_strings(module)
            continue
        location = path.relative_to(REPO_ROOT)
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_registered(node):
                    roots |= _names_used([node])
                else:
                    definitions.append((node.name, None, node.name,
                                        f"{location}:{node.lineno}", _names_used([node])))
            elif isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if _is_public_method(item)]
                shell = [*node.decorator_list, *node.bases, *node.keywords,
                         *(item for item in node.body if not _is_public_method(item))]
                if _is_registered(node):
                    roots |= _names_used(shell) | {node.name}
                else:
                    definitions.append((node.name, None, node.name,
                                        f"{location}:{node.lineno}", _names_used(shell)))
                definitions += [(item.name, node.name, f"{node.name}.{item.name}",
                                 f"{location}:{item.lineno}", _names_used([item]))
                                for item in methods]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and not _is_all_assignment(node):
                roots |= _names_used([node])
    reached, pending = roots, definitions
    while True:
        newly = [d for d in pending if d[0] in reached and (d[1] is None or d[1] in reached)]
        if not newly:
            break
        pending = [d for d in pending if d not in newly]
        for definition in newly:
            reached |= definition[4]
    return sorted((where, label) for name, _owner, label, where, _ in pending
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
