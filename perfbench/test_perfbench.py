"""Tests of the benchmark itself.

The output checks must catch one value changed by a relative 1e-6 and one
row missing; the quick mode must run every workload and reproduce the
exact per-row counts; the control copy must reproduce the reference
outputs; a tree without the sources must be refused.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads(bench.REFERENCE.read_text(encoding="utf-8"))


def _reference_pass(name, tmp_path_factory):
    work = tmp_path_factory.mktemp(name)
    children = bench.Children(work)
    try:
        steps = workloads.WORKLOADS[name](None)
        return steps, bench.run_pass(steps, work, children)
    finally:
        children.close()


@pytest.fixture(scope="module")
def readme(tmp_path_factory):
    return _reference_pass("readme-cli", tmp_path_factory)


@pytest.fixture(scope="module")
def oracle_map(tmp_path_factory):
    return _reference_pass("oracle-map", tmp_path_factory)


def _fails(workload, step, text):
    """True when the step's check or the reference comparison objects."""
    problems, _, _ = workloads.compare_digest(text, REFERENCE[workload][step.name])
    return bool(step.check(text).problems or problems)


def _csv_steps(fixture):
    steps, run = fixture
    assert run.failed == 0, run.problems
    return [(s, run.texts[s.name]) for s in steps
            if s.output and s.output.endswith(".csv")]


def _perturbed(text, row, field):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[field] = "%.17g" % (float(cells[field]) * (1 + 1e-6))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _numeric_fields(line):
    fields = []
    for j, cell in enumerate(line.split(",")):
        try:
            if float(cell) != 0.0:
                fields.append(j)
        except ValueError:
            pass
    return fields


@pytest.mark.parametrize("workload", ["readme-cli", "oracle-map"])
def test_reference_pass_matches_reference(workload, readme, oracle_map):
    _, run = readme if workload == "readme-cli" else oracle_map
    stats = bench.against_reference(workload, run)
    assert run.failed == 0, run.problems
    assert stats["check.bytes_identical"] == stats["check.ref_outputs"] > 0


def test_control_pass_matches_reference(tmp_path):
    children = bench.Children(tmp_path)
    try:
        steps = workloads.WORKLOADS["readme-cli"](None)
        program, control = bench.run_pair(steps, tmp_path, children,
                                          control_first=True)
    finally:
        children.close()
    assert program.failed == control.failed == 0, control.problems
    stats = bench.against_reference("readme-cli", control)
    assert stats["check.bytes_identical"] == stats["check.ref_outputs"] == 7


@pytest.mark.parametrize("workload", ["readme-cli", "oracle-map"])
def test_one_value_changed_by_1e6_fails(workload, readme, oracle_map):
    for step, text in _csv_steps(readme if workload == "readme-cli"
                                 else oracle_map):
        rows = len(text.splitlines()) - 1
        # a sampled row, and rows the sample does not hold
        for row in sorted({min(r, rows) for r in (1, 2, rows // 2 + 1, rows)}):
            for field in _numeric_fields(text.splitlines()[row]):
                damaged = _perturbed(text, row, field)
                assert _fails(workload, step, damaged), (step.name, row, field)


@pytest.mark.parametrize("workload", ["readme-cli", "oracle-map"])
def test_one_row_missing_fails(workload, readme, oracle_map):
    for step, text in _csv_steps(readme if workload == "readme-cli"
                                 else oracle_map):
        lines = text.splitlines()
        row = len(lines) // 2
        damaged = "\n".join(lines[:row] + lines[row + 1:]) + "\n"
        assert step.check(damaged).problems, step.name


def test_rewritten_sweep_must_be_byte_identical(readme):
    steps, run = readme
    first, again = (next(s for s in steps if s.name == name)
                    for name in ("sweep", "sweep-threads"))
    sweep = run.texts["sweep"]
    same = [bench.Call(0.1, 0, "", text=sweep) for _ in range(2)]
    assert bench.judge([first, again], same).failed == 0
    changed = [bench.Call(0.1, 0, "", text=sweep),
               bench.Call(0.1, 0, "", text=sweep.replace("\n", "\r\n"))]
    assert bench.judge([first, again], changed).failed == 1


def test_removed_name_is_reported_not_entered():
    fake = types.ModuleType("gse.fake")
    trace = tracer.Tracer([(fake, "sweep_record", "emission", None)])
    assert trace.missing == ["gse.fake.sweep_record"]
    trace.install()
    trace.uninstall()
    metrics, entered = tracer.layer_metrics(trace.spans, cli_rows=0)
    assert "emission" not in entered and metrics["emission.calls"] == 0


def test_quick_mode_reproduces_exact_counts():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    value = {k: m["value"] for k, m in res["metrics"].items()}
    for name in ("readme-cli", "grid-dense"):
        assert value[f"{name}/fermionic.eigh_per_row"] == 7
        assert value[f"{name}/bosonic_full.hopfield_modes_per_row"] == 2
    assert value["oracle-map/oracle.solves"] == 735
    assert value["oracle-map/oracle.budget_misses"] == 7


def test_tree_without_sources_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
