"""Tests for the one JSON-lines appender and line parser (:mod:`repro.utils.jsonl`)."""

from __future__ import annotations

import errno
import logging
import os

import pytest

from repro.utils.jsonl import JsonlLog, parse_lines


class TestJsonlLog:
    def test_sidecars_are_fsynced_once_per_write_and_shards_never(self, tmp_path, monkeypatch):
        synced: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        JsonlLog(tmp_path / "_checkpoint.jsonl", best_effort=False).write(['{"a":1}\n', '{"b":2}\n'])
        assert len(synced) == 1
        JsonlLog(tmp_path / "ns--main.jsonl", best_effort=True).write(['{"a":1}\n'])
        assert len(synced) == 1

    def test_appends_complete_lines_to_what_is_there(self, tmp_path):
        path = tmp_path / "_service.jsonl"
        path.write_text('{"kind":"header"}\n', encoding="utf-8")
        log = JsonlLog(path, best_effort=False)
        log.write(['{"n":1}\n'])
        log.write(['{"n":2}\n', '{"n":3}\n'])
        assert path.read_text(encoding="utf-8") == \
            '{"kind":"header"}\n{"n":1}\n{"n":2}\n{"n":3}\n'

    def test_a_torn_tail_is_closed_before_the_first_write(self, tmp_path):
        path = tmp_path / "_service.jsonl"
        path.write_text('{"kind":"header"}\n{"kind":"sta', encoding="utf-8")
        JsonlLog(path, best_effort=False).write(['{"kind":"submitted"}\n'])
        assert list(parse_lines(path.read_text(encoding="utf-8").splitlines())) == [
            {"kind": "header"}, None, {"kind": "submitted"}]

    def test_a_tail_torn_by_another_writer_is_closed_too(self, tmp_path):
        path = tmp_path / "ns--main.jsonl"
        log = JsonlLog(path, best_effort=True)
        log.write(['{"n":1}\n'])
        with open(path, "ab") as handle:  # another writer, killed mid-line
            handle.write(b'{"n":')
        log.write(['{"n":2}\n'])
        assert path.read_text(encoding="utf-8") == '{"n":1}\n{"n":\n{"n":2}\n'

    def test_durable_log_raises_every_failed_write(self, tmp_path, monkeypatch, disk_full):
        path = tmp_path / "_checkpoint.jsonl"
        log = JsonlLog(path, best_effort=False)
        disk_full(path.name)
        for _ in range(2):
            with pytest.raises(OSError) as excinfo:
                log.write(['{"n":1}\n'])
            assert excinfo.value.errno == errno.ENOSPC
        assert not log.failed
        monkeypatch.undo()
        log.write(['{"n":2}\n'])  # the fault cleared: durable appends resume
        assert path.read_text(encoding="utf-8") == '{"n":2}\n'

    def test_best_effort_log_warns_once_and_drops_later_writes(self, tmp_path, monkeypatch,
                                                              disk_full, caplog):
        path = tmp_path / "ns--main.jsonl"
        log = JsonlLog(path, best_effort=True)
        disk_full("*--*.jsonl")
        with caplog.at_level(logging.WARNING, logger="repro.utils.jsonl"):
            log.write(['{"n":1}\n'])
            log.write(['{"n":2}\n'])
            monkeypatch.undo()
            log.write(['{"n":3}\n'])
        assert log.failed
        (warning,) = [r for r in caplog.records if r.name == "repro.utils.jsonl"]
        assert warning.levelno == logging.WARNING and path.name in warning.getMessage()
        assert not path.exists()


def test_parse_lines_skips_blanks_and_marks_torn_and_non_object_lines():
    lines = ['{"a": 1}', "", "   ", "[1, 2]", '"text"', '{"kind": "sta', ' {"b": 2} ']
    assert list(parse_lines(lines)) == [{"a": 1}, None, None, None, {"b": 2}]
