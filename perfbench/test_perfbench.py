"""Smoke tests of the benchmark itself, at small sizes.

    python3 -m pytest -q perfbench

They check that every metric BENCHMARK.json names is emitted, that a wrong
output is counted as a failed operation, and that the benchmark refuses to
run without the package sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from coagdrift import cli, evolution  # noqa: E402
from coagdrift.model import admissible_threshold  # noqa: E402


@pytest.fixture
def small_runner(tmp_path, monkeypatch) -> "workloads.Runner":
    """Every operation kind once: a 513-node solve + verify (a point that
    certifies at that size) and a 512-cell simulate, whose closed-form gate
    is widened to the coarse grid's discretization error.  One set-up probe
    per run."""
    monkeypatch.setattr(workloads, "SELF_SIMILAR_GATE", 1e-2)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    workload = dataclasses.replace(
        workloads.make_workload("solve-default", seed=1),
        points=((0.7, 0.5 * admissible_threshold(0.7)),),
        nodes=513,
        sim_t1=1.02,
        cells=512,
    )
    return workloads.Runner(workload, str(tmp_path))


def test_untraced_run_emits_every_end_to_end_metric(small_runner):
    result = run.measure(small_runner, seed=1, seconds=0.0)
    line = run.final_line(result, run.declared_metrics("end_to_end"))
    assert line["correct"], result["problems"] + [op.detail for op in result["ops"]]
    assert (line["attempted"], line["failed"]) == (3, 0)
    assert list(line["metrics"]) == list(run.declared_metrics("end_to_end"))
    assert all(m["value"] > 0 for m in line["metrics"].values())
    json.dumps(line)


def test_traced_run_emits_every_per_layer_metric(small_runner):
    result = run.trace_measure(small_runner, seconds=0.0)
    line = run.final_line(result, run.declared_metrics("per_layer"))
    assert line["correct"], result["problems"] + [op.detail for op in result["ops"]]
    assert list(line["metrics"]) == list(run.declared_metrics("per_layer"))
    assert result["trace"]["unwrapped"] == []
    assert len(result["trace"]["passes"]) >= 2  # so the exact counts are compared
    values = {k: m["value"] for k, m in line["metrics"].items()}
    assert values["profiles.outer_iterations"] >= 1
    assert values["tau_iteration.sweeps"] >= values["profiles.outer_iterations"]
    assert values["profiles.residual_calls"] == 3  # two in solve, one in verify
    assert values["evolution.diag_rows"] == values["evolution.steps"] + 1
    assert values["grids.plan_points"] > 0 and values["profile_io.bytes_written"] > 0


def test_wrong_profile_counts_as_failed(small_runner, monkeypatch):
    write_profile = cli.write_profile

    def write_perturbed(path, record):
        record.F = record.F.copy()
        record.F[0] *= 1.0 + 1e-4
        write_profile(path, record)

    monkeypatch.setattr(cli, "write_profile", write_perturbed)
    ops = small_runner.run_pass()
    failed = {op.kind: op.detail for op in ops if not op.ok}
    assert set(failed) == {"solve", "verify"}
    assert "f0_rel_err" in failed["solve"]


def test_exception_counts_as_failed(small_runner, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "outer_solve", broken)
    solve = small_runner.run_pass()[0]
    assert not solve.ok and "RuntimeError: injected" in solve.detail


def test_wrong_simulation_counts_as_failed(small_runner, monkeypatch):
    step = evolution.step

    def leaky_step(state, dt, **kwargs):
        new = step(state, dt, **kwargs)
        new.f *= 0.999
        return new

    monkeypatch.setattr(evolution, "step", leaky_step)
    result = run.measure(small_runner, seed=1, seconds=0.0)
    line = run.final_line(result, run.declared_metrics("end_to_end"))
    assert not line["correct"] and line["failed"] == 1
    assert "m1_rel_drift" in next(op.detail for op in result["ops"] if not op.ok)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("n, expected", [(10, None), (11, (9, 1.0)), (15, (33, 5.0)),
                                         (100, (90, 90.0))])
def test_tail_percentile_leaves_ten_samples_above(n, expected):
    assert run.tail_percentile([float(i) for i in range(1, n + 1)]) == expected
