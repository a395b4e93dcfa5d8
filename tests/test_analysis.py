"""Tests for the invariant linter (:mod:`repro.analysis`).

Every checker is proven twice: a fixture that must trigger it and a
near-miss encoding the blessed idiom that must stay silent.  On top of
that: the suppression grammar (justified, unjustified, unknown rule),
and the self-run — the linter must exit clean over this very repository,
which is the property CI gates on.
"""

from __future__ import annotations

import json
import pathlib
import textwrap

import pytest

from repro.analysis import all_checkers, lint_file, lint_paths
from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

ALL_RULES = {
    "jsonl-contract",
    "lock-discipline",
    "no-unseeded-random",
    "no-wall-clock",
    "pickle-boundary",
    "telemetry-zero-cost",
}


def write(path: pathlib.Path, source: str) -> pathlib.Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def rules_of(findings) -> set[str]:
    return {finding.rule for finding in findings}


def lint_source(path: pathlib.Path, source: str) -> list:
    active, _ = lint_file(write(path, source))
    return active


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_all_six_rules_registered(self):
        assert set(all_checkers()) == ALL_RULES

    def test_unknown_rule_filter_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_paths([tmp_path], rules=["no-such-rule"])


# -------------------------------------------------------------- no-wall-clock
class TestNoWallClock:
    def test_flags_direct_wall_clock_calls(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            import time
            import datetime

            def stamp(record):
                record["ts"] = time.time()
                record["day"] = datetime.datetime.now().isoformat()
                return record
        """)
        assert rules_of(findings) == {"no-wall-clock"}
        assert len(findings) == 2

    def test_allows_injected_clock_default_and_seam(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            import time

            class Writer:
                def __init__(self, clock=time.time):
                    self._clock = clock

                def append(self, record):
                    record["ts"] = self._clock()

            def stamp_rows(rows, now=None):
                now = time.time() if now is None else float(now)
                return [dict(row, ts=now) for row in rows]

            def elapsed(start):
                return time.perf_counter() - start
        """)
        assert findings == []

    def test_flags_call_in_else_branch_of_seam(self, tmp_path):
        # `if now is None:` blesses only its body — a wall-clock call in
        # the else branch bypasses the injected value entirely.
        findings = lint_source(tmp_path / "mod.py", """\
            import time

            def save(now=None):
                if now is None:
                    now = time.time()
                else:
                    now = time.time()
                return now
        """)
        assert rules_of(findings) == {"no-wall-clock"}
        assert len(findings) == 1


# -------------------------------------------------------- no-unseeded-random
class TestNoUnseededRandom:
    def test_flags_global_state_calls_in_scope(self, tmp_path):
        findings = lint_source(tmp_path / "sweep" / "mod.py", """\
            import random
            import numpy as np

            def jitter():
                return random.random() + np.random.rand()
        """)
        assert rules_of(findings) == {"no-unseeded-random"}
        assert len(findings) == 2

    def test_allows_seeded_generators(self, tmp_path):
        findings = lint_source(tmp_path / "search" / "mod.py", """\
            import random
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)

            def make_shuffler(seed):
                return random.Random(seed)
        """)
        assert findings == []

    def test_out_of_scope_modules_are_not_linted(self, tmp_path):
        findings = lint_source(tmp_path / "plotting" / "mod.py", """\
            import random

            def jitter():
                return random.random()
        """)
        assert findings == []


# ------------------------------------------------------- telemetry-zero-cost
class TestTelemetryZeroCost:
    def test_flags_unguarded_registry_use(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            from repro import telemetry

            def record(n):
                reg = telemetry.registry()
                reg.counter("evals").inc(n)
        """)
        assert rules_of(findings) == {"telemetry-zero-cost"}

    def test_flags_chained_registry_call(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            from repro import telemetry

            def record(n):
                telemetry.registry().counter("evals").inc(n)
        """)
        assert rules_of(findings) == {"telemetry-zero-cost"}

    def test_allows_guarded_and_early_return_idioms(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            from repro import telemetry

            def record(n):
                reg = telemetry.registry()
                if reg is not None:
                    reg.counter("evals").inc(n)

            def record_or_bail(n):
                reg = telemetry.registry()
                if reg is None:
                    return
                reg.counter("evals").inc(n)
        """)
        assert findings == []


# ------------------------------------------------------------ pickle-boundary
class TestPickleBoundary:
    def test_flags_lock_in_wire_crossing_class(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            import threading

            class SweepTask:
                def __init__(self, name):
                    self.name = name
                    self._lock = threading.Lock()
        """)
        assert rules_of(findings) == {"pickle-boundary"}

    def test_flags_wire_marker_class_by_methods(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            import threading

            class LeaseRecord:
                def __init__(self):
                    self._cond = threading.Condition()

                def to_wire(self):
                    return {}

                @classmethod
                def from_wire(cls, payload):
                    return cls()
        """)
        assert rules_of(findings) == {"pickle-boundary"}

    def test_flags_prepared_target_and_subclasses(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            import threading

            class PreparedTarget:
                def __init__(self):
                    self._lock = threading.Lock()

            class GPUPrepared(PreparedTarget):
                def __init__(self):
                    super().__init__()
                    self._event = threading.Event()
        """)
        # Both the named payload class and its subclass (whose
        # to_wire/from_wire live on the base, outside this module) flag.
        assert rules_of(findings) == {"pickle-boundary"}
        assert len(findings) == 2

    def test_allows_non_boundary_class_and_opt_out(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            import threading

            class LocalBoard:
                def __init__(self):
                    self._lock = threading.Lock()

            class SweepOutcome:
                def __init__(self):
                    self._lock = threading.Lock()

                def __getstate__(self):
                    state = self.__dict__.copy()
                    del state["_lock"]
                    return state
        """)
        assert findings == []


# ------------------------------------------------------------ lock-discipline
class TestLockDiscipline:
    # The shard tier and the attempt ledger a local sweep drains.
    @pytest.mark.parametrize("module", ["shard/mod.py", "sweep/ledger.py"])
    def test_flags_fsync_and_events_under_lock(self, tmp_path, module):
        findings = lint_source(tmp_path / module, """\
            import os
            import threading

            from repro import telemetry

            class Board:
                def __init__(self):
                    self._lock = threading.Lock()

                def settle(self, handle, callback):
                    with self._lock:
                        os.fsync(handle.fileno())
                        telemetry.event("lease.settled")
                        self.on_settle(handle)
        """)
        assert rules_of(findings) == {"lock-discipline"}
        assert len(findings) == 3

    def test_allows_collect_then_fire_after_release(self, tmp_path):
        findings = lint_source(tmp_path / "shard" / "mod.py", """\
            import threading

            from repro import telemetry

            class Board:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._leases = {}

                def settle(self, uid):
                    events = []
                    with self._lock:
                        lease = self._leases.pop(uid, None)
                        if lease is not None:
                            events.append(("lease.settled", uid))
                    for name, ref in events:
                        telemetry.event(name, {"uid": ref})
        """)
        assert findings == []

    def test_out_of_scope_modules_are_not_linted(self, tmp_path):
        findings = lint_source(tmp_path / "plotting" / "mod.py", """\
            import os
            import threading

            LOCK = threading.Lock()

            def flush(handle):
                with LOCK:
                    os.fsync(handle.fileno())
        """)
        assert findings == []


# ------------------------------------------------------------- jsonl-contract
class TestJsonlContract:
    def test_flags_unfsynced_append_and_intolerant_reader(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            import json

            SIDECAR = "_events.jsonl"

            def append(path, record):
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\\n")

            def read(path):
                with open(path, "r", encoding="utf-8") as handle:
                    return [json.loads(line) for line in handle]
        """)
        assert rules_of(findings) == {"jsonl-contract"}
        assert len(findings) == 2

    def test_allows_fsynced_append_and_tolerant_reader(self, tmp_path):
        findings = lint_source(tmp_path / "mod.py", """\
            import json
            import os

            SIDECAR = "_events.jsonl"

            def append(path, record):
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\\n")
                    handle.flush()
                    os.fsync(handle.fileno())

            def read(path):
                records, corrupt = [], 0
                with open(path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        try:
                            records.append(json.loads(line))
                        except json.JSONDecodeError:
                            corrupt += 1
                return records, corrupt
        """)
        # Only the one appender may open a file for appending, fsynced or not.
        assert [(f.rule, f.line) for f in findings] == [("jsonl-contract", 7)]

    def test_modules_without_sidecar_constant_are_not_linted(self, tmp_path):
        # Same careless code, but no module-level "_*.jsonl" declaration:
        # the reader is not linted, the append still is.
        findings = lint_source(tmp_path / "mod.py", """\
            import json

            def append(path, record):
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\\n")

            def read(path):
                with open(path) as handle:
                    return [json.loads(line) for line in handle]
        """)
        assert [(f.rule, f.line) for f in findings] == [("jsonl-contract", 4)]

    def test_the_appender_module_may_open_for_append(self, tmp_path):
        source = """\
            def append(path, data):
                with open(path, "a+b") as handle:
                    handle.write(data)
        """
        assert lint_source(tmp_path / "repro" / "utils" / "jsonl.py", source) == []
        assert rules_of(lint_source(tmp_path / "repro" / "sweep" / "mod.py", source)) \
            == {"jsonl-contract"}


# --------------------------------------------------------------- suppressions
class TestSuppressions:
    TRIGGER = """\
        import time

        def stamp():
            {comment_above}return time.time(){trailing}
    """

    def render(self, comment_above="", trailing=""):
        source = textwrap.dedent(self.TRIGGER)
        if comment_above:
            comment_above = f"{comment_above}\n    "
        return source.format(comment_above=comment_above, trailing=trailing)

    def test_justified_trailing_suppression(self, tmp_path):
        path = write(tmp_path / "mod.py", self.render(
            trailing="  # repro: disable=no-wall-clock -- display only, never persisted"))
        active, suppressed = lint_file(path)
        assert active == []
        assert [(f.rule, why) for f, why in suppressed] == [
            ("no-wall-clock", "display only, never persisted"),
        ]

    def test_justified_comment_line_suppression(self, tmp_path):
        path = write(tmp_path / "mod.py", self.render(
            comment_above="# repro: disable=no-wall-clock -- display only, never persisted"))
        active, suppressed = lint_file(path)
        assert active == []
        assert len(suppressed) == 1

    def test_unjustified_suppression_is_itself_a_finding(self, tmp_path):
        path = write(tmp_path / "mod.py", self.render(
            trailing="  # repro: disable=no-wall-clock"))
        active, suppressed = lint_file(path)
        assert suppressed == []
        assert rules_of(active) == {"suppression-format", "no-wall-clock"}

    def test_unknown_rule_in_suppression_is_flagged(self, tmp_path):
        path = write(tmp_path / "mod.py", self.render(
            trailing="  # repro: disable=no-such-rule -- because"))
        active, _ = lint_file(path)
        assert rules_of(active) == {"suppression-format", "no-wall-clock"}

    def test_suppression_does_not_leak_to_other_rules(self, tmp_path):
        path = write(tmp_path / "sweep" / "mod.py", textwrap.dedent("""\
            import random
            import time

            def stamp():
                # repro: disable=no-wall-clock -- display only
                return time.time(), random.random()
        """))
        active, suppressed = lint_file(path)
        assert rules_of(active) == {"no-unseeded-random"}
        assert [f.rule for f, _ in suppressed] == ["no-wall-clock"]


# -------------------------------------------------------------------- self-run
@pytest.fixture(scope="module")
def repo_report():
    """One lint pass over the tree, shared by the self-run checks."""
    return lint_paths([SRC])


@pytest.fixture
def cli_lint(monkeypatch, repo_report):
    """``lint`` run at the repo root, answered from the shared pass; the
    list it returns collects the ``(paths, rules)`` the CLI asked for."""
    import repro.analysis

    asked = []

    def shared_pass(paths, *, rules=None):
        asked.append(([REPO_ROOT / path for path in paths], rules))
        return repo_report

    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(repro.analysis, "lint_paths", shared_pass)
    return asked


class TestSelfRun:
    def test_repo_is_clean_under_its_own_linter(self, repo_report):
        assert repo_report.ok, repo_report.render()
        # Every suppression in the tree carries its justification.
        assert all(why for _, why in repo_report.suppressed)
        # An inline suppression is the only way past the gate, so the
        # tree's suppressions are pinned: a new one is a test change.
        assert sorted((pathlib.PurePath(finding.path).name, finding.rule)
                      for finding, _ in repo_report.suppressed) == [
            ("jsonl.py", "lock-discipline"),
            ("jsonl.py", "lock-discipline"),
        ]

    def test_cli_lint_exits_zero_on_repo(self, capsys, cli_lint):
        assert main(["lint"]) == 0
        assert cli_lint == [([SRC], None)], "the CLI lints its default paths"
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_cli_json_report_shape(self, capsys, cli_lint):
        assert main(["lint", "--json"]) == 0
        assert cli_lint == [([SRC], None)], "the CLI lints its default paths"
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"ok", "files", "rules", "findings", "suppressed"}
        assert payload["ok"] is True
        assert set(payload["rules"]) == ALL_RULES
        assert payload["files"] > 50

    def test_cli_rule_filter_and_list_rules(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--rule", "no-wall-clock"]) == 0
        capsys.readouterr()
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in out

    def test_cli_reports_failure_exit_code(self, capsys, tmp_path, monkeypatch):
        write(tmp_path / "mod.py", """\
            import time

            def stamp():
                return time.time()
        """)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(tmp_path)]) == 1
        assert "no-wall-clock" in capsys.readouterr().out
