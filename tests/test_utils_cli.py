"""Tests for utilities and the command-line interface."""

from __future__ import annotations

import io
import logging
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.utils.logging import configure_logging, get_logger
from repro.utils.rng import ensure_rng
from repro.utils.tables import render_kv, render_table


class TestLoggingUtils:
    def test_get_logger_namespaced(self):
        assert get_logger("foo").name == "repro.foo"
        assert get_logger("repro.bar").name == "repro.bar"

    def test_configure_logging_idempotent(self):
        configure_logging(logging.WARNING)
        handlers_before = len(logging.getLogger("repro").handlers)
        configure_logging(logging.INFO)
        assert len(logging.getLogger("repro").handlers) == handlers_before

    def test_configure_logging_updates_handler_level(self):
        configure_logging(logging.INFO)
        configure_logging(logging.DEBUG)
        root = logging.getLogger("repro")
        assert root.level == logging.DEBUG
        assert all(h.level == logging.DEBUG for h in root.handlers)

    def test_console_handler_follows_the_current_stderr(self, monkeypatch):
        root = logging.getLogger("repro")
        monkeypatch.setattr(root, "handlers", [])
        first, second = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stderr", first)
        configure_logging(logging.WARNING)
        first.close()
        monkeypatch.setattr(sys, "stderr", second)
        get_logger("repro.test").warning("after the swap")
        assert "after the swap" in second.getvalue()
        assert "Logging error" not in second.getvalue()

    def test_configure_logging_accepts_level_names(self):
        configure_logging("warning")
        assert logging.getLogger("repro").level == logging.WARNING
        with pytest.raises(ValueError):
            configure_logging("loud")


class TestRngUtils:
    def test_ensure_rng_from_seed_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_ensure_rng_invalid_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["bb", 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_render_table_handles_extra_columns(self):
        text = render_table(["a"], [["x", "extra"]])
        assert "extra" in text

    def test_render_kv(self):
        text = render_kv("facts", {"alpha": 0.5, "name": "x"})
        assert "alpha" in text and "0.500" in text


class TestCLI:
    def test_bundles_command(self, capsys):
        assert main(["bundles"]) == 0
        out = capsys.readouterr().out
        assert "dwconv3x3+conv1x1" in out
        assert out.count("\n") == 18

    def test_codegen_command(self, tmp_path, capsys):
        code = main(["codegen", "--design", "DNN3", "--output", str(tmp_path)])
        assert code == 0
        generated = list(tmp_path.iterdir())
        assert any(p.suffix == ".cpp" for p in generated)
        assert any(p.suffix == ".h" for p in generated)
        out = capsys.readouterr().out
        assert "HLS report" in out

    def test_codesign_command_small(self, capsys):
        code = main([
            "codesign", "--fps", "40", "--tolerance-ms", "10",
            "--top-bundles", "2", "--candidates", "1", "--iterations", "30", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Co-design flow" in out

    def test_experiment_fig5(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        assert "fine-grained" in capsys.readouterr().out.lower()

    def test_unknown_device_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["codesign", "--device", "unknown-board"])
        assert excinfo.value.code == 2
        assert "unknown device 'unknown-board'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--max-age-days", "0"),
        ("--max-age-days", "-2"),
        ("--max-size-mb", "-1"),
        ("--max-size-mb", "0"),
    ])
    def test_cache_gc_rejects_non_positive_budgets(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "gc", "--cache-dir", str(tmp_path), flag, value])
        assert excinfo.value.code == 2
        assert f"error: argument {flag}: expected a positive number" in capsys.readouterr().err

    def test_closed_stdout_ends_quietly(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run([sys.executable, "-m", "repro.cli", "bundles"], env=env,
                                 stdout=write_end, stderr=subprocess.PIPE, text=True,
                                 timeout=120.0)
        finally:
            os.close(write_end)
        assert "Traceback" not in run.stderr
        assert "Exception ignored" not in run.stderr
        assert run.returncode == 141

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
