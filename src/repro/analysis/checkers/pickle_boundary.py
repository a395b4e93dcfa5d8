"""``pickle-boundary``: boundary-crossing classes stay picklable.

Sweep cells run in spawned worker processes (PR 3), shard workers receive
``PreparedTarget`` artifacts over HTTP (PR 5), and worker metrics travel
back as ``MetricsSnapshot`` payloads (PR 6).  Every one of those objects
crosses a process or wire boundary, so holding a ``threading.Lock``, an
open file, a socket or an executor in an instance attribute turns the
first dispatch into a ``TypeError: cannot pickle`` — at runtime, on the
worker, far from the constructor that planted it.

A class is treated as boundary-crossing when it

* is one of the repo's known payload classes (``PreparedTarget``,
  ``SweepTask``, ``SweepOutcome``, ``SweepFailure``, ``MetricsSnapshot``),
* subclasses one of them by name (a backend-specific ``PreparedTarget``
  variant is a payload wherever its base is), or
* defines ``to_wire`` / ``from_wire`` (the PR 5 wire-marshalling marker
  every ``PreparedTarget`` implementation carries).

Classes that define ``__getstate__`` or ``__reduce__`` opted into custom
pickling and are exempt — they already decided what crosses.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleContext,
    collect_imports,
    dotted_name,
    register,
)

#: Classes that cross process/wire boundaries by design (worker payloads).
BOUNDARY_CLASS_NAMES = frozenset({
    "PreparedTarget", "SweepTask", "SweepOutcome", "SweepFailure",
    "MetricsSnapshot",
})

#: Methods whose presence marks a class as wire-crossing.
_WIRE_MARKERS = frozenset({"to_wire", "from_wire"})

_PICKLE_OPT_OUT = frozenset({"__getstate__", "__reduce__", "__reduce_ex__"})

#: Factory calls producing unpicklable values (qualified name -> label).
_UNPICKLABLE_FACTORIES = {
    "threading.Lock": "a threading.Lock",
    "threading.RLock": "a threading.RLock",
    "threading.Condition": "a threading.Condition",
    "threading.Event": "a threading.Event",
    "threading.Semaphore": "a threading.Semaphore",
    "threading.BoundedSemaphore": "a threading.BoundedSemaphore",
    "open": "an open file handle",
    "io.open": "an open file handle",
    "socket.socket": "a socket",
    "socket.create_connection": "a socket",
    "subprocess.Popen": "a subprocess handle",
    "ThreadPoolExecutor": "a thread-pool executor",
    "ProcessPoolExecutor": "a process-pool executor",
}


def _factory_label(imports, func: ast.AST) -> str | None:
    name = dotted_name(func)
    if name is None:
        return None
    if name in _UNPICKLABLE_FACTORIES:
        return _UNPICKLABLE_FACTORIES[name]
    # Resolve from-imports: `from threading import Lock` -> threading.Lock.
    _module_aliases, from_imports = imports
    origin = from_imports.get(name)
    if origin is not None and origin in _UNPICKLABLE_FACTORIES:
        return _UNPICKLABLE_FACTORIES[origin]
    tail = name.rsplit(".", 1)[-1]
    if tail in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
        return _UNPICKLABLE_FACTORIES[tail]
    return None


@register
class PickleBoundaryChecker(Checker):
    rule = "pickle-boundary"
    description = (
        "boundary-crossing class (worker payload / to_wire) assigns an "
        "unpicklable attribute in __init__"
    )
    contract = (
        "PR 3/5/6: PreparedTarget, SweepTask, outcomes and metrics "
        "snapshots cross process pools and the shard HTTP wire; they must "
        "never hold locks, files, sockets or executors"
    )

    def run(self, ctx: ModuleContext) -> list[Finding]:
        imports = collect_imports(ctx.tree)
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            # Subclasses of a known payload class are payloads too: the
            # base's to_wire/from_wire may live out of this module's AST.
            base_names = {
                (dotted_name(base) or "").rsplit(".", 1)[-1]
                for base in node.bases
            }
            boundary = node.name in BOUNDARY_CLASS_NAMES \
                or bool(base_names & BOUNDARY_CLASS_NAMES) \
                or bool(methods & _WIRE_MARKERS)
            if not boundary or methods & _PICKLE_OPT_OUT:
                continue
            findings.extend(self._check_class(ctx, imports, node))
        return findings

    def _check_class(self, ctx: ModuleContext, imports,
                     cls: ast.ClassDef) -> list[Finding]:
        findings: list[Finding] = []
        why = (f"{cls.name} crosses a process/wire boundary "
               "(worker payload, payload subclass or to_wire/from_wire class)")
        # Dataclass-style field defaults in the class body.
        for stmt in cls.body:
            value = None
            if isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            elif isinstance(stmt, ast.Assign):
                value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            label = _factory_label(imports, value.func)
            if label is not None:
                findings.append(ctx.finding(
                    self.rule, stmt,
                    f"{why}; a class-level default holding {label} makes "
                    "every instance unpicklable",
                ))
                continue
            if dotted_name(value.func) in ("field", "dataclasses.field"):
                for keyword in value.keywords:
                    if keyword.arg != "default_factory":
                        continue
                    factory = dotted_name(keyword.value)
                    target = _UNPICKLABLE_FACTORIES.get(factory or "")
                    if target is None and factory is not None:
                        origin = imports[1].get(factory)
                        target = _UNPICKLABLE_FACTORIES.get(origin or "")
                    if target is not None:
                        findings.append(ctx.finding(
                            self.rule, stmt,
                            f"{why}; field(default_factory=...) plants "
                            f"{target} in every instance",
                        ))
        # self.<attr> = <unpicklable factory>() inside __init__ / __post_init__.
        for stmt in cls.body:
            if not (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name in ("__init__", "__post_init__")):
                continue
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Assign) \
                        or not isinstance(node.value, ast.Call):
                    continue
                if not any(
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    for target in node.targets
                ):
                    continue
                label = _factory_label(imports, node.value.func)
                if label is not None:
                    findings.append(ctx.finding(
                        self.rule, node,
                        f"{why}; assigning {label} in {stmt.name} makes the "
                        "instance unpicklable the moment it is dispatched",
                    ))
        return findings
