"""Core of the ``repro.analysis`` invariant linter.

The linter parses every Python module under the given paths with the
stdlib :mod:`ast` and runs a registry of pluggable **checkers** over each
tree.  A checker encodes one repo contract (injected clocks, telemetry
zero-cost guards, lock discipline, ...) as a purely lexical rule, so the
contract is enforced at review time instead of depending on a runtime
test happening to exercise the offending path.

A finding is fixed, or suppressed inline with a reason:
``# repro: disable=<rule> -- <justification>`` on the offending line (or
on a comment line directly above it).  The justification after ``--`` is
mandatory; a bare suppression is itself reported as a
``suppression-format`` finding, so every silenced contract violation
carries its one-line rationale in the diff.  ``lint --rule <id>`` runs a
subset of the registry.

Checkers are registered with :func:`register` and discovered via
``import repro.analysis.checkers`` (the package imports every built-in
checker module for its side effect).
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from repro.utils.logging import get_logger

logger = get_logger(__name__)

_PathLike = Union[str, pathlib.Path]

#: Rule id of the meta-finding for malformed / unjustified suppressions.
SUPPRESSION_RULE = "suppression-format"

#: Rule id reported when a file does not parse at all.
PARSE_RULE = "parse-error"


# ------------------------------------------------------------------ findings
@dataclass(frozen=True)
class Finding:
    """One contract violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line, for display.
    snippet: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


# -------------------------------------------------------------- suppressions
#: Grammar: "repro: disable=" + comma-separated rule ids + " -- " + why.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*disable=([A-Za-z0-9_,\- ]+?)\s*(?:--\s*(\S.*?))?\s*$"
)


@dataclass
class Suppression:
    """One parsed ``# repro: disable=`` comment."""

    line: int            # line the suppression applies to
    comment_line: int    # line the comment physically sits on
    rules: tuple[str, ...]
    justification: str   # empty = malformed (reported, never honoured)

    def covers(self, finding: Finding) -> bool:
        return finding.line == self.line and finding.rule in self.rules


def parse_suppressions(lines: Sequence[str]) -> list[Suppression]:
    """Extract suppressions from raw source lines.

    A suppression on a pure comment line applies to the next non-blank,
    non-comment line (so long statements can keep the justification
    readable above them); a trailing comment applies to its own line.
    """
    suppressions: list[Suppression] = []
    for index, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        rules = tuple(
            rule.strip() for rule in match.group(1).split(",") if rule.strip()
        )
        target = index
        if text.lstrip().startswith("#"):
            for offset, later in enumerate(lines[index:], start=index + 1):
                stripped = later.strip()
                if stripped and not stripped.startswith("#"):
                    target = offset
                    break
        suppressions.append(Suppression(
            line=target,
            comment_line=index,
            rules=rules,
            justification=(match.group(2) or "").strip(),
        ))
    return suppressions


# ------------------------------------------------------------ module context
class ModuleContext:
    """Everything a checker needs to inspect one parsed module."""

    def __init__(self, path: pathlib.Path, display_path: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self._parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node

    # ------------------------------------------------------------- navigation
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    # --------------------------------------------------------------- findings
    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        return Finding(rule=rule, path=self.display_path, line=line, col=col,
                       message=message, snippet=snippet)


# --------------------------------------------------------------- AST helpers
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def collect_imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """``(module_aliases, from_imports)`` for the whole module.

    ``module_aliases`` maps a bound name to the imported module path
    (``{"np": "numpy"}``); ``from_imports`` maps a bound name to its fully
    qualified origin (``{"loads": "json.loads"}``).  Function-local imports
    are included — checkers care about what a name means, not where the
    import statement sits.
    """
    module_aliases: dict[str, str] = {}
    from_imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                from_imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return module_aliases, from_imports


def is_compare_to_none(node: ast.AST) -> Optional[tuple[str, bool]]:
    """``("name", negated)`` for ``X is None`` / ``X is not None`` tests."""
    if (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        and isinstance(node.left, ast.Name)
        and len(node.comparators) == 1
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
    ):
        return node.left.id, isinstance(node.ops[0], ast.IsNot)
    return None


# ------------------------------------------------------------------ checkers
class Checker:
    """Base class: one rule, one contract, one ``run`` pass per module."""

    #: Unique rule id (kebab-case), used in CLI filters and suppressions.
    rule: str = ""
    #: One-line description shown by ``lint --list-rules``.
    description: str = ""
    #: The repo contract this rule encodes (and which PR introduced it).
    contract: str = ""

    def applies_to(self, ctx: ModuleContext) -> bool:
        """Module scope hook; default is every scanned module."""
        return True

    def run(self, ctx: ModuleContext) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError


_REGISTRY: dict[str, Checker] = {}


def register(cls: type) -> type:
    """Class decorator adding a checker to the global registry."""
    if not issubclass(cls, Checker) or not cls.rule:
        raise TypeError(f"{cls!r} is not a Checker with a rule id")
    if cls.rule in _REGISTRY:
        raise ValueError(f"duplicate checker rule '{cls.rule}'")
    _REGISTRY[cls.rule] = cls()
    return cls


def all_checkers() -> dict[str, Checker]:
    """The registered checkers, importing the built-ins on first use."""
    import repro.analysis.checkers  # noqa: F401 - registration side effect
    return dict(_REGISTRY)


# -------------------------------------------------------------------- runner
@dataclass
class LintReport:
    """Outcome of one lint pass over a set of paths."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, str]] = field(default_factory=list)
    files: int = 0
    rules: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing unsuppressed was found."""
        return not self.findings

    def summary(self) -> str:
        return (
            f"lint: {self.files} file(s), {len(self.rules)} rule(s): "
            f"{len(self.findings)} finding(s), {len(self.suppressed)} suppressed"
        )

    def render(self) -> str:
        parts = [finding.render() for finding in self.findings]
        parts.append(self.summary())
        return "\n".join(parts)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files": self.files,
            "rules": list(self.rules),
            "findings": [finding.as_dict() for finding in self.findings],
            "suppressed": [
                {**finding.as_dict(), "justification": justification}
                for finding, justification in self.suppressed
            ],
        }


def iter_python_files(paths: Sequence[_PathLike]) -> list[pathlib.Path]:
    """Every ``.py`` file under ``paths``, skipping caches and hidden dirs."""
    files: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        elif path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            raise FileNotFoundError(f"lint path does not exist: {path}")
        for candidate in candidates:
            parts = candidate.parts
            if any(part == "__pycache__" or part.startswith(".") for part in parts[:-1]):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def _display_path(path: pathlib.Path) -> str:
    """Stable, short display path: cwd-relative when possible."""
    try:
        return path.resolve().relative_to(pathlib.Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def lint_file(
    path: _PathLike,
    checkers: Optional[dict[str, Checker]] = None,
) -> tuple[list[Finding], list[tuple[Finding, str]]]:
    """Lint one file; returns ``(active findings, suppressed findings)``."""
    path = pathlib.Path(path)
    checkers = all_checkers() if checkers is None else checkers
    display = _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding(PARSE_RULE, display, 1, 0, f"cannot read file: {exc}")], []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [Finding(
            PARSE_RULE, display, exc.lineno or 1, exc.offset or 0,
            f"file does not parse: {exc.msg}",
        )], []

    ctx = ModuleContext(path, display, source, tree)
    raw: list[Finding] = []
    for checker in checkers.values():
        if checker.applies_to(ctx):
            raw.extend(checker.run(ctx))

    suppressions = parse_suppressions(ctx.lines)
    active: list[Finding] = []
    suppressed: list[tuple[Finding, str]] = []
    # Suppressions are validated against the full registry, not just the
    # checkers selected for this run — `lint --rule X` must not start
    # reporting every other rule's suppression as unknown.
    known = set(all_checkers()) | {SUPPRESSION_RULE, PARSE_RULE}
    for suppression in suppressions:
        if not suppression.justification:
            active.append(Finding(
                SUPPRESSION_RULE, display, suppression.comment_line, 0,
                "suppression needs a justification: "
                "# repro: disable=<rule> -- <why this is safe>",
                snippet=ctx.lines[suppression.comment_line - 1].strip(),
            ))
        for rule in suppression.rules:
            if rule not in known:
                active.append(Finding(
                    SUPPRESSION_RULE, display, suppression.comment_line, 0,
                    f"suppression names unknown rule '{rule}'",
                    snippet=ctx.lines[suppression.comment_line - 1].strip(),
                ))
    for finding in raw:
        match = next(
            (s for s in suppressions if s.justification and s.covers(finding)),
            None,
        )
        if match is not None:
            suppressed.append((finding, match.justification))
        else:
            active.append(finding)
    active.sort(key=lambda f: (f.line, f.col, f.rule))
    return active, suppressed


def lint_paths(
    paths: Sequence[_PathLike],
    *,
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint every Python file under ``paths``.

    ``rules`` restricts the registry to the named rule ids (unknown ids
    raise ``ValueError``).
    """
    checkers = all_checkers()
    if rules:
        unknown = sorted(set(rules) - set(checkers))
        if unknown:
            raise ValueError(
                f"unknown rule(s): {', '.join(unknown)}; "
                f"available: {', '.join(sorted(checkers))}"
            )
        checkers = {rule: checkers[rule] for rule in rules}

    report = LintReport(rules=sorted(checkers))
    for path in iter_python_files(paths):
        report.files += 1
        active, suppressed = lint_file(path, checkers)
        report.findings.extend(active)
        report.suppressed.extend(suppressed)
    return report
