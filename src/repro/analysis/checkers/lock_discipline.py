"""``lock-discipline``: no telemetry, callbacks or blocking I/O under a lock.

PR 5/6 hardened the shard path around one rule: ``LeaseBoard`` mutates
its state under ``self._lock`` but fires telemetry events and the
``on_outcome``/``on_failure`` settle callbacks *after* releasing it —
the telemetry sink fsyncs per record and the checkpoint writer hits disk,
so doing either under the board lock would serialise every HTTP handler
thread behind a disk flush (and a user callback could re-enter the board
and deadlock).  The established pattern is: collect events into a local
list inside the critical section, fire them after the ``with`` block.

This rule flags, lexically inside any ``with self._lock:`` (or other
``*lock`` attribute) body in the scoped modules (``shard/``, ``service/``,
``sweep/checkpoint.py``, ``sweep/ledger.py``, ``telemetry/sink.py``,
``utils/jsonl.py``):

* telemetry facade calls (``telemetry.event`` / ``telemetry.trace``),
* callback invocations (``self.on_*``-style attributes),
* blocking file/socket/sleep calls (``open``, ``os.fsync``,
  ``os.replace``, ``time.sleep``, ``urlopen``, ``sendall``/``recv``,
  ``write_text``/``read_text``).

Code that *intends* serialised I/O under its lock (the one appender,
``JsonlLog``, whose lock exists precisely to order appends) documents that
decision with a justified ``# repro: disable=lock-discipline`` — the
deviation then lives next to the code instead of in reviewers' heads.
Nested function bodies are skipped (deferred execution happens later).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleContext,
    collect_imports,
    dotted_name,
    register,
)

_SCOPE_MARKERS = ("/shard/", "/service/")
_SCOPE_SUFFIXES = ("sweep/checkpoint.py", "sweep/ledger.py", "telemetry/sink.py",
                   "utils/jsonl.py")

#: Fully qualified blocking calls.
_BLOCKING_CALLS = {
    "os.fsync": "os.fsync() blocks on disk",
    "os.replace": "os.replace() blocks on disk",
    "time.sleep": "time.sleep() parks the thread",
    "open": "open() blocks on disk",
    "io.open": "open() blocks on disk",
    "socket.create_connection": "socket dial blocks on the network",
}

#: Method names that block regardless of the receiver.
_BLOCKING_METHODS = {
    "open": "file open blocks on disk",
    "write_text": "file write blocks on disk",
    "read_text": "file read blocks on disk",
    "urlopen": "HTTP round trip blocks on the network",
    "sendall": "socket send blocks on the network",
    "recv": "socket receive blocks on the network",
}


def _is_lock_context(expr: ast.AST) -> bool:
    """True for ``self._lock`` / ``board.lock``-style context expressions."""
    if isinstance(expr, ast.Call):  # e.g. contextlib helpers wrapping a lock
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        attr = expr.attr
        return attr == "lock" or attr.endswith("_lock")
    if isinstance(expr, ast.Name):
        name = expr.id
        return name == "lock" or name.endswith("_lock")
    return False


def _walk_skipping_functions(statements) -> Iterator[ast.AST]:
    """Walk statements, excluding nested function/lambda bodies (deferred)."""
    stack = list(statements)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


@register
class LockDisciplineChecker(Checker):
    rule = "lock-discipline"
    description = (
        "telemetry event, user callback or blocking I/O lexically inside a "
        "`with ...lock:` body"
    )
    contract = (
        "PR 5/6: LeaseBoard and the sweep settle path collect events under "
        "the lock and fire them after releasing it; the fsyncing sink and "
        "checkpoint writer must never run inside another component's lock"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        path = ctx.path.resolve().as_posix()
        return any(marker in path for marker in _SCOPE_MARKERS) \
            or path.endswith(_SCOPE_SUFFIXES)

    def run(self, ctx: ModuleContext) -> list[Finding]:
        imports = collect_imports(ctx.tree)
        _module_aliases, from_imports = imports
        telemetry_names = {
            name for name, origin in from_imports.items()
            if origin.endswith(("telemetry.event", "telemetry.trace",
                                "trace.event", "trace.trace"))
        }
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(_is_lock_context(item.context_expr)
                       for item in node.items):
                continue
            for inner in _walk_skipping_functions(node.body):
                if not isinstance(inner, ast.Call):
                    continue
                reason = self._classify(imports, telemetry_names, inner)
                if reason is not None:
                    findings.append(ctx.finding(
                        self.rule, inner,
                        f"{reason} while holding the lock; collect it in the "
                        "critical section and run it after the `with` block "
                        "releases the lock",
                    ))
        return findings

    @staticmethod
    def _classify(imports, telemetry_names: set, call: ast.Call):
        module_aliases, from_imports = imports
        name = dotted_name(call.func)
        if name is not None:
            parts = name.split(".")
            if len(parts) == 2 and parts[1] in ("event", "trace"):
                # Covers both `import repro.telemetry as telemetry` and
                # `from repro import telemetry`.
                origin = module_aliases.get(parts[0]) \
                    or from_imports.get(parts[0], "")
                if origin.endswith("telemetry"):
                    return (f"telemetry {parts[1]} fires "
                            "(the sink fsyncs per record)")
            if len(parts) == 1 and parts[0] in telemetry_names:
                return "telemetry call fires (the sink fsyncs per record)"
            if name in _BLOCKING_CALLS:
                return _BLOCKING_CALLS[name]
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr.startswith("on_"):
                return f"user callback {attr}() runs (it may fsync or re-enter)"
            if attr in _BLOCKING_METHODS:
                return _BLOCKING_METHODS[attr]
        return None
