"""Self-tests of the benchmark: tiny budgets, every metric, a tripped oracle.

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the repository
root (the file is not named ``test_*`` so the main suite does not collect
it).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: A budget small enough that every workload finishes in seconds.
TINY = workloads.Budget(fps=(40.0,), iterations=4, num_candidates=1, top_bundles=2)
SEED = 7


@pytest.fixture(autouse=True)
def quiet_program():
    import repro.telemetry as telemetry

    telemetry.disable()
    logger = logging.getLogger("repro")
    level = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(level)


def _declared(kind: str) -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in spec[kind]]


def test_declared_metrics_match_the_benchmark():
    assert _declared("end_to_end") == [name for name, _unit in run.END_TO_END]
    assert _declared("per_layer") == [name for name, _unit in run.PER_LAYER]
    assert [w["name"] for w in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]] \
        == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted(name, trace):
    result = run.run_workload(name, SEED, 0.0, bool(trace), budget=TINY)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == _declared(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][key]["value"] > 0 for key in _declared(kind))
    elif name != "grid-parallel":
        # Serial traces must explain where the cell time went.
        assert result["metrics"]["sweep.attributed_fraction"]["value"] >= 0.9


def test_digest_check_reports_a_tampered_journal():
    task = workloads.paper_grid(SEED, TINY)[0]
    outcome = workloads.run_sweep_task(task)
    tampered = dict(outcome.journal, tampered=True)
    reference = {task.uid: oracle.digest(outcome.journal)}
    assert oracle.check_digests(reference, reference, reference) == []
    problems = oracle.check_digests({task.uid: oracle.digest(tampered)}, reference, reference)
    assert len(problems) == 2 and all(line.startswith(task.uid) for line in problems)


def test_tampered_journal_fails_the_run(monkeypatch):
    victim = workloads.paper_grid(SEED, TINY)[1].uid
    genuine = workloads.run_sweep_task

    def tampering_task_fn(task, cache_dir, prepared):
        outcome = genuine(task, cache_dir, prepared)
        if task.uid == victim:
            outcome = dataclasses.replace(outcome, journal=dict(outcome.journal, tampered=True))
        return outcome

    # The warm-cache fill (the oracle's reference) runs the genuine cells;
    # only the timed repetitions see the tampered one.
    monkeypatch.setattr(workloads, "run_sweep_task", tampering_task_fn)
    result = run.run_workload("grid-warm", SEED, 0.0, False, budget=TINY)
    assert not result["correct"]
    assert result["failed"] == 3  # one bad cell in each of the three repetitions
    assert result["problems"] and all(victim in line for line in result["problems"])


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout
