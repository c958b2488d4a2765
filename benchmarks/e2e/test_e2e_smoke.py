"""Smoke test of the end-to-end benchmark (``run.py --quick``).

Quick runs are one-second runs with no set-up probe: they check that
every workload runs through its real entry point, answers correctly,
emits every metric ``BENCHMARK.json`` names, fires every layer span,
and leaves the tracked files alone.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _span_names() -> frozenset:
    # Loaded by path, whatever import mode pytest runs in.
    spec = importlib.util.spec_from_file_location("e2e_tracing", HERE / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_NAMES


def _tree_state() -> "tuple[str, str] | None":
    """Status (untracked files included) and diff of the git checkout."""
    if not (ROOT / ".git").exists():
        return None
    git = ["git", "-C", str(ROOT)]
    return tuple(
        subprocess.run(
            git + command, capture_output=True, text=True, check=True
        ).stdout
        for command in (["status", "--porcelain", "--untracked-files=all"],
                        ["diff"])
    )


def _run(*args: str) -> tuple[list[str], dict, str]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    return lines, json.loads(lines[-1]), completed.stderr


def _results_file(stderr: str) -> dict:
    [line] = [
        line for line in stderr.splitlines()
        if line.startswith("results written to ")
    ]
    return json.loads((ROOT / line.split(" to ", 1)[1]).read_text())


@pytest.mark.timeout(300)
def test_quick_run_emits_every_metric_with_no_wrong_answer():
    before = _tree_state()
    lines, result, _ = _run()
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            reported = result["metrics"][f"{workload}/{name}"]
            assert reported["unit"] == unit
            assert reported["value"] > 0, (workload, name)
            assert any(
                line.startswith(f"{workload} {name} ")
                and line.endswith(f" {unit}")
                for line in lines
            ), (workload, name)
    assert _tree_state() == before


@pytest.mark.timeout(300)
def test_quick_traced_run_fires_every_span():
    before = _tree_state()
    fired = set()
    # serve-miss runs the server, planner, solvers and backend; stream-
    # refresh the mutations, standing-query refresh and invalidation.
    for workload in ("serve-miss", "stream-refresh"):
        _, result, stderr = _run("--trace", "--workload", workload)
        assert result["correct"] is True
        assert set(result["metrics"]) == {
            metric["name"] for metric in BENCHMARK["per_layer"]
        }
        for metric in BENCHMARK["per_layer"]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        fired.update(_results_file(stderr)["workloads"][workload]["fired"])
    assert fired >= _span_names(), sorted(_span_names() - fired)
    assert _tree_state() == before
