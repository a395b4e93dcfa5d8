"""``no-wall-clock``: persisted timestamps must come from an injected clock.

PR 6 routed every persisted timestamp — checkpoint records, timing
sidecars, the telemetry sink — through one injected ``clock`` callable so
tests can freeze it and artefact bytes stay reproducible.  A stray
``time.time()`` (or ``datetime.now()``) deep inside a persistence path
silently re-introduces wall-clock nondeterminism; the PR 6 sweep missed
exactly one such call (``DiskEvaluationCache._append``), which this rule
now catches mechanically.

Allowed spellings (the *injection seams*):

* A bare ``time.time`` **reference** — e.g. the idiomatic default
  ``clock: Callable[[], float] = time.time`` — is not a call and is never
  flagged.
* The optional-parameter fallback ``now = time.time() if now is None
  else float(now)`` (or the equivalent ``if now is None:`` statement),
  where ``now`` is a parameter of the enclosing function: that *is* the
  seam callers inject through.

Durations measured with ``time.monotonic()`` / ``time.perf_counter()``
are not wall-clock timestamps and are always allowed.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleContext,
    dotted_name,
    is_compare_to_none,
    register,
)

#: Call targets that read the wall clock.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}


@register
class WallClockChecker(Checker):
    rule = "no-wall-clock"
    description = (
        "direct time.time()/datetime.now() call outside an injected-clock seam"
    )
    contract = (
        "PR 6: every persisted timestamp flows through one injected clock "
        "(CheckpointWriter/TelemetrySink) so frozen-clock tests "
        "can reproduce artefact bytes"
    )

    def run(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name not in _WALL_CLOCK_CALLS:
                continue
            if self._is_injection_seam(ctx, node):
                continue
            findings.append(ctx.finding(
                self.rule, node,
                f"{name}() reads the wall clock directly; thread the injected "
                "clock through (clock=... parameter, or a `now = time.time() "
                "if now is None` seam) so frozen-clock tests stay byte-stable",
            ))
        return findings

    @staticmethod
    def _is_injection_seam(ctx: ModuleContext, call: ast.Call) -> bool:
        function = ctx.enclosing_function(call)
        if function is None:
            return False
        args = function.args
        params = {
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        }
        for ancestor in ctx.ancestors(call):
            if ancestor is function:
                break
            test = None
            scope = None
            if isinstance(ancestor, ast.IfExp):
                test, scope = ancestor.test, ancestor.body
            elif isinstance(ancestor, ast.If):
                test, scope = ancestor.test, ancestor
            if test is None:
                continue
            compare = is_compare_to_none(test)
            if compare is None:
                continue
            name, negated = compare
            if negated or name not in params:
                continue
            if isinstance(ancestor, ast.IfExp):
                # `now = time.time() if now is None else float(now)`
                if any(node is call for node in ast.walk(scope)):
                    return True
            elif any(node is call for stmt in ancestor.body
                     for node in ast.walk(stmt)):
                # `if now is None: now = time.time()` (not the else branch)
                return True
        return False
