"""``jsonl-contract``: one module appends to files, readers tolerate torn tails.

* **writer side** — an append-mode ``open(..., "a...")`` or
  ``path.open("a...")`` outside ``repro/utils/jsonl.py`` is a finding:
  :class:`~repro.utils.jsonl.JsonlLog` owns the one-write append, the
  sidecar fsync, the torn-tail repair and each file's disk-full policy.
  Atomic temp-file+rename rewrites are not appends and pass untouched.
* **reader side** — in a module that *declares* a sidecar filename (a
  module-level string constant matching ``_*.jsonl``), every
  ``json.loads(...)`` must sit inside a ``try`` whose handlers catch
  ``json.JSONDecodeError`` (or ``ValueError`` / ``Exception``), because
  the one guaranteed input is a torn final line.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleContext,
    collect_imports,
    dotted_name,
    register,
)

_SIDECAR_NAME_RE = re.compile(r"^_[A-Za-z0-9_.-]*\.jsonl$")

_TOLERANT_HANDLERS = {"JSONDecodeError", "ValueError", "Exception"}


def _declares_sidecar_constant(tree: ast.Module) -> bool:
    for stmt in tree.body:
        targets = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.target is not None:
            targets, value = [stmt.target], stmt.value
        if not targets or not isinstance(value, ast.Constant) \
                or not isinstance(value.value, str):
            continue
        if _SIDECAR_NAME_RE.match(value.value):
            return True
    return False


def _append_mode(call: ast.Call) -> bool:
    """True when an ``open``/``.open`` call opens in append mode."""
    name = dotted_name(call.func)
    if name in ("open", "io.open"):
        mode_index = 1
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        mode_index = 0
    else:
        return False
    mode: Optional[ast.expr] = None
    if len(call.args) > mode_index:
        mode = call.args[mode_index]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    return isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
        and mode.value.startswith("a")


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    node = handler.type
    names: set[str] = set()
    if node is None:
        return {"Exception"}  # bare except tolerates everything
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    for item in nodes:
        name = dotted_name(item)
        if name is not None:
            names.add(name.rsplit(".", 1)[-1])
    return names


@register
class JsonlContractChecker(Checker):
    rule = "jsonl-contract"
    description = (
        "append-mode open outside repro/utils/jsonl.py, or a sidecar module "
        "parsing lines without tolerating a torn tail"
    )
    contract = (
        "every append goes through repro.utils.jsonl.JsonlLog "
        "(one write, fsynced sidecars, one disk-full policy per file); "
        "readers count and skip unparseable lines (a kill can always tear "
        "the final line)"
    )

    def run(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        if not ctx.path.resolve().as_posix().endswith("repro/utils/jsonl.py"):
            findings.extend(self._check_writers(ctx))
        if _declares_sidecar_constant(ctx.tree):
            findings.extend(self._check_readers(ctx))
        return findings

    def _check_writers(self, ctx: ModuleContext) -> list[Finding]:
        return [
            ctx.finding(
                self.rule, node,
                "append-mode open outside repro/utils/jsonl.py; append "
                "through JsonlLog, which owns the fsync, torn-tail and "
                "disk-full rules",
            )
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call) and _append_mode(node)
        ]

    def _check_readers(self, ctx: ModuleContext) -> list[Finding]:
        _module_aliases, from_imports = collect_imports(ctx.tree)
        loads_aliases = {
            name for name, origin in from_imports.items()
            if origin == "json.loads"
        }
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name != "json.loads" and name not in loads_aliases:
                continue
            if not self._tolerates_torn_line(ctx, node):
                findings.append(ctx.finding(
                    self.rule, node,
                    "sidecar reader must tolerate a torn tail: wrap "
                    "json.loads in try/except json.JSONDecodeError and "
                    "skip (and count) the corrupt line",
                ))
        return findings

    @staticmethod
    def _tolerates_torn_line(ctx: ModuleContext, call: ast.Call) -> bool:
        for ancestor in ctx.ancestors(call):
            if not isinstance(ancestor, ast.Try):
                continue
            in_body = any(
                any(node is call for node in ast.walk(stmt))
                for stmt in ancestor.body
            )
            if in_body and any(
                _handler_names(handler) & _TOLERANT_HANDLERS
                for handler in ancestor.handlers
            ):
                return True
        return False
