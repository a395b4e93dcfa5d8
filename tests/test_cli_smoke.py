"""Smoke tests for every ``repro-codesign`` subcommand.

Each subcommand is exercised twice: once end-to-end with a tiny budget
(asserting on exit code and output), and once at the argument-parsing layer
(bad choices and missing required arguments must exit with argparse's
status 2, ``--help`` with 0).
"""

from __future__ import annotations

import json

import pytest

from fault_cli import faulty
from repro.cli import main

#: Tiny shared budget flags: every full run finishes in well under a second.
BUDGET = ["--fps", "40", "--tolerance-ms", "10", "--top-bundles", "2",
          "--candidates", "1", "--iterations", "20", "--seed", "1"]

ALL_COMMANDS = ["codesign", "search", "sweep", "cache", "experiment",
                "codegen", "bundles", "telemetry"]


def _exit_code(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


# --------------------------------------------------------------- help / parse
class TestArgumentParsing:
    def test_top_level_help(self, capsys):
        assert _exit_code(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ALL_COMMANDS:
            assert command in out, f"{command} missing from top-level help"

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_subcommand_help(self, command, capsys):
        assert _exit_code([command, "--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_missing_command_is_a_parse_error(self, capsys):
        assert _exit_code([]) == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["frobnicate"],                               # unknown command
        ["search", "--strategy", "gradient-descent"],  # bad choice
        ["sweep", "--schedule", "steal"],              # removed option
        ["cache"],                                     # missing action
        ["cache", "stats"],                            # missing --cache-dir
        ["cache", "defrag", "--cache-dir", "x"],       # bad action
        ["experiment"],                                # missing name
        ["experiment", "fig99"],                       # bad choice
        ["codegen", "--design", "DNN9"],               # bad choice
        ["codesign", "--iterations"],                  # missing value
        ["telemetry"],                                 # missing action
        ["telemetry", "report"],                       # missing --cache-dir
        ["telemetry", "report", "--cache-dir", "x", "--top", "0"],  # bad value
        ["shard", "status"],                           # missing --connect
        ["sweep", "--log-level", "loud"],              # bad choice
        ["sweep", "--per-cell-prep"],                  # removed option
    ])
    def test_parse_errors_exit_2(self, argv, capsys):
        assert _exit_code(argv) == 2
        assert "usage" in capsys.readouterr().err

    def test_common_flags_accepted_before_and_after_subcommand(self, capsys):
        for argv in (["-v", "bundles"], ["bundles", "-v"],
                     ["bundles", "--log-level", "debug"]):
            assert main(argv) == 0
            capsys.readouterr()


# ------------------------------------------------------------------ full runs
class TestCommandRuns:
    def test_codesign(self, capsys):
        assert main(["codesign", "--device", "pynq-z1"] + BUDGET) == 0
        assert "Co-design flow on PYNQ-Z1" in capsys.readouterr().out

    def test_search_with_journal(self, tmp_path, capsys):
        journal = tmp_path / "journal.json"
        code = main(["search", "--strategy", "random", "--journal", str(journal)]
                    + BUDGET)
        assert code == 0
        out = capsys.readouterr().out
        assert "Search strategy 'random'" in out
        assert json.loads(journal.read_text())["records"]

    def test_sweep_then_cache_stats_and_gc(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        report = tmp_path / "report.json"
        code = main(["sweep", "--devices", "pynq-z1", "--strategies", "scd",
                     "--cache-dir", str(cache_dir), "--report", str(report),
                     "--timeout-s", "120", "--retries", "1"] + BUDGET)
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep: 1 tasks" in out
        assert "shared preparations" in out
        payload = json.loads(report.read_text())
        assert "schedule" not in payload["sweep"]
        assert payload["sweep"]["failures"] == []
        assert payload["sweep"]["preparations"][0]["device"] == "PYNQ-Z1"

        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        stats_out = capsys.readouterr().out
        assert "PYNQ-Z1@100MHz" in stats_out

        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "compaction:" in capsys.readouterr().out

    def test_sweep_with_poisoned_cell_reports_and_exits_1(
            self, tmp_path, capsys, monkeypatch):
        # Forked worker processes inherit the patched cell function.
        monkeypatch.setattr("repro.sweep.runner._run_sweep_task",
                            faulty(fail=["PYNQ-Z1-random-40fps"]))
        code = main(["sweep", "--devices", "pynq-z1", "--strategies",
                     "scd,random", "--retries", "0", "--workers", "2"] + BUDGET)
        assert code == 1, "a sweep with failed cells signals partial failure"
        out = capsys.readouterr().out
        assert "1 FAILED" in out
        assert "PYNQ-Z1-random-40fps: FAILED (error)" in out
        assert "Per-strategy comparison" in out, "survivors are still compared"

    def test_sweep_poisoned_then_resume_completes(self, tmp_path, capsys, monkeypatch):
        """The checkpoint/resume acceptance flow at the CLI level: a failed
        sweep exits 1, the resumed run re-executes only the failed cell,
        exits 0 and still renders a complete comparison."""
        cache_dir = tmp_path / "cache"
        argv = ["sweep", "--devices", "pynq-z1", "--strategies", "scd,random",
                "--retries", "0", "--retry-backoff-s", "0",
                "--cache-dir", str(cache_dir)] + BUDGET
        with monkeypatch.context() as patched:
            patched.setattr("repro.sweep.runner._run_sweep_task",
                            faulty(fail=["PYNQ-Z1-random-40fps"]))
            assert main(argv) == 1
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "1 reused from checkpoint" in out
        assert "1 reused cells" in out
        assert "Per-strategy comparison" in out
        assert "FAILED" not in out

    def test_fault_cli_wrapper_fails_the_named_cell(self, capsys, monkeypatch):
        """The wrapper the CI smokes run: ``--fail NAME -- <cli args>``."""
        import fault_cli
        import repro.sweep.runner as runner

        # Registered so monkeypatch restores the cell function the wrapper replaces.
        monkeypatch.setattr(runner, "_run_sweep_task", runner._run_sweep_task)
        code = fault_cli.main(["--fail", "PYNQ-Z1-random-40fps", "--", "sweep",
                               "--devices", "pynq-z1", "--strategies", "scd,random",
                               "--retries", "0"] + BUDGET)
        assert code == 1
        out = capsys.readouterr().out
        assert "PYNQ-Z1-random-40fps: FAILED (error) after 1 attempt" in out
        assert "injected failure" in out

    def test_sweep_resume_from_report_json(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        argv = ["sweep", "--devices", "pynq-z1", "--strategies", "scd"] + BUDGET
        assert main(argv + ["--report", str(report)]) == 0
        capsys.readouterr()
        assert main(argv + ["--from", str(report)]) == 0
        assert "1 reused from checkpoint" in capsys.readouterr().out

    def test_sweep_resume_without_checkpoint_starts_fresh(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["sweep", "--devices", "pynq-z1", "--strategies", "scd",
                "--cache-dir", str(cache_dir), "--resume"] + BUDGET
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "No checkpoint at" in out
        assert "Sweep: 1 tasks" in out

    def test_sweep_resume_requires_cache_dir_or_from(self):
        with pytest.raises(ValueError, match="--resume needs --cache-dir"):
            main(["sweep", "--resume"] + BUDGET)

    def test_sweep_grid_axes_flags(self, capsys):
        code = main(["sweep", "--devices", "pynq-z1", "--strategies", "scd",
                     "--clocks", "100", "--utilizations", "0.9"] + BUDGET)
        assert code == 0
        assert "PYNQ-Z1-scd-40fps-100MHz-u0.9" in capsys.readouterr().out

    def test_cache_stats_on_empty_directory(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_gc_rejects_bad_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_age_days"):
            main(["cache", "gc", "--cache-dir", str(tmp_path),
                  "--max-age-days", "0"])

    def test_experiment_fig4(self, capsys):
        assert main(["experiment", "fig4"]) == 0
        assert capsys.readouterr().out.strip()

    def test_codegen(self, tmp_path, capsys):
        code = main(["codegen", "--design", "DNN1", "--output", str(tmp_path)])
        assert code == 0
        assert any(path.suffix == ".cpp" for path in tmp_path.iterdir())
        assert "Generated files" in capsys.readouterr().out

    def test_bundles(self, capsys):
        assert main(["bundles"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) >= 18

    def test_sweep_with_telemetry_then_report(self, tmp_path, capsys):
        import repro.telemetry as telemetry

        cache_dir = tmp_path / "cache"
        try:
            code = main(["--telemetry", "sweep", "--devices", "pynq-z1",
                         "--strategies", "scd", "--cache-dir", str(cache_dir)]
                        + BUDGET)
        finally:
            telemetry.disable()
        assert code == 0
        capsys.readouterr()
        assert (cache_dir / "_telemetry.jsonl").exists()

        assert main(["telemetry", "report", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry report for" in out
        assert "Cache hit rate" in out
        assert "slowest cells" in out
        assert "Spans (_telemetry.jsonl)" in out

        assert main(["telemetry", "report", "--cache-dir", str(cache_dir),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cells"]["completed"] == 1
        assert payload["telemetry"]["snapshot"] is not None

    def test_telemetry_report_without_telemetry_uses_checkpoint(
            self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["sweep", "--devices", "pynq-z1", "--strategies", "scd",
                     "--cache-dir", str(cache_dir)] + BUDGET) == 0
        capsys.readouterr()
        assert not (cache_dir / "_telemetry.jsonl").exists()
        assert main(["telemetry", "report", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "Cells: 1 completed, 0 failed" in out

    def test_shard_status_unreachable_coordinator(self, capsys):
        assert main(["shard", "status", "--connect", "127.0.0.1:1"]) == 1
        assert "cannot reach coordinator" in capsys.readouterr().err
