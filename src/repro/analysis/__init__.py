"""``repro.analysis`` — AST-based invariant linter for the repo's contracts.

Six PRs layered hard invariants onto this codebase — byte-identical
journals across worker counts, injected clocks behind every persisted
timestamp, picklable worker payloads, telemetry events fired outside the
lease-board lock, fsynced torn-tail-tolerant sidecars.  Until now each
contract was enforced only by runtime tests that had to *happen* to
exercise the offending path; this package machine-checks them at review
time, the way production stacks gate merges on race detectors.

Usage::

    from repro.analysis import lint_paths
    report = lint_paths(["src"])
    assert report.ok, report.render()

or from the CLI::

    repro-codesign lint [--json] [--rule no-wall-clock] [PATHS ...]

Violations are fixed, or suppressed *with a justification*
(``# repro: disable=<rule> -- why this deviation is safe``).
See :mod:`repro.analysis.core` for the framework and
:mod:`repro.analysis.checkers` for the built-in rules.
"""

from repro.analysis.core import (
    Checker,
    Finding,
    LintReport,
    ModuleContext,
    all_checkers,
    iter_python_files,
    lint_file,
    lint_paths,
    parse_suppressions,
    register,
)

__all__ = [
    "Checker",
    "Finding",
    "LintReport",
    "ModuleContext",
    "all_checkers",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "parse_suppressions",
    "register",
]
