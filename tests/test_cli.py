import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import coagdrift as cd
from coagdrift.cli import main
from coagdrift.errors import ProfileFormatError
from coagdrift.profile_io import ProfileRecord, read_profile, write_profile
from oracles import RecordingPool

FAST_SOLVE = ["--nodes", "1025", "--zmax", "1e5"]


def solve_args(out, v="0.5", m0="0.005", extra=()):
    return ["solve", "--v", v, "--m0", m0, *FAST_SOLVE, "--out", str(out), *extra]


@pytest.fixture(scope="module")
def solved_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "p.csv"
    code = main(solve_args(out))
    assert code == 0
    return out


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter importing
    # the command line loads no scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(cd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, coagdrift.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_threshold_command(capsys):
    assert main(["threshold", "--v", "0.5"]) == 0
    text = capsys.readouterr().out
    assert "m0_bar = 0.016585557" in text

    assert main(["threshold", "--v", "0.5", "--m0", "0.01"]) == 0
    text = capsys.readouterr().out
    assert "tau_star   = 3.4315901994" in text

    assert main(["threshold", "--v", "0.5", "--m0", "0.02"]) == 0
    text = capsys.readouterr().out
    assert "inadmissible" in text

    assert main(["threshold", "--v", "1.5"]) == 2


@pytest.mark.parametrize("argv", [["solve", "--v", "0.5", "--m0", "0.005"],
                                  ["sweep", "--v", "0.5", "--m0-list", "0.005"]])
def test_solve_flag_defaults_are_the_solver_defaults(argv):
    from coagdrift import cli

    args = cli.build_parser().parse_args(argv)
    assert cli._solve_options(args) == cd.OuterSolveOptions()


def test_threshold_and_solve_beyond_float_range(tmp_path, capsys):
    # 2^a_0 overflows at v = 0.9991: m0_bar = 0, every m0 is inadmissible
    assert main(["threshold", "--v", "0.9991", "--m0", "1e-5"]) == 0
    text = capsys.readouterr().out
    assert "m0_bar = 0\n" in text and "inadmissible" in text
    out = tmp_path / "x.csv"
    assert main(["solve", "--v", "0.9991", "--m0", "1e-5", "--nodes", "65",
                 "--out", str(out)]) == 2
    assert "--force" in capsys.readouterr().err
    # the seed m0 v e^(-v z) underflows to zero
    assert main(["solve", "--v", "1e-300", "--m0", "1e-301", "--nodes", "65",
                 "--out", str(out)]) == 2
    assert "underflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--profile", "p.csv", "--record-every", "0"], "--record-every"),
    (["simulate", "--profile", "p.csv", "--snapshots", "a"], "--snapshots"),
    (["simulate", "--profile", "p.csv", "--z-window", "nan"], "--z-window"),
    (["simulate", "--profile", "p.csv", "--t1", "inf"], "--t1"),
    (["simulate", "--profile", "p.csv", "--xmax", "nan"], "--xmax"),
    (["sweep", "--v", "0.5", "--m0-list", "a"], "--m0-list"),
    (["sweep", "--v", "0.5", "--m0-list", "0.005", "--jobs", "-1"], "--jobs"),
    # a tolerance the profile file could not carry back to verify
    (["solve", "--v", "0.5", "--m0", "0.005", "--tol-residual", "nan"], "--tol-residual"),
    # snapshot times outside [t0, t1] = [1, 2], and outside [1, 1.5]
    (["simulate", "--profile", "p.csv", "--snapshots=-1,1.01,5"], "--snapshots"),
    (["simulate", "--profile", "p.csv", "--t1", "1.5", "--snapshots", "1.6"], "--snapshots"),
    # an m0 outside (0, 1) after a valid one: no worker starts
    (["sweep", "--v", "0.5", "--m0-list", "0.005,nan", "--jobs", "1"], "--m0-list"),
    (["sweep", "--v", "0.5", "--m0-list", "0.005,1.5"], "--m0-list"),
    (["solve", "--v", "0.5", "--m0", "0.005", "--max-iter", "0"], "--max-iter"),
])
def test_bad_flag_value_exits_2_naming_it(argv, flag, capsys, monkeypatch):
    from coagdrift import cli

    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert RecordingPool.created == []


def test_solve_writes_profile_and_metadata(solved_file):
    meta = solved_file.with_suffix(".json")
    assert solved_file.exists() and meta.exists()
    payload = json.loads(meta.read_text())
    assert payload["report"]["certified"] is True
    assert payload["report"]["F0"] == pytest.approx(0.004975, rel=1e-6)
    record = read_profile(str(solved_file))
    assert record.certified
    assert record.z[0] == 0.0 and record.z.size == 1025
    with open(solved_file) as handle:
        lines = handle.read().splitlines()
    assert "z,F,tau" in lines


# the report of a solve's JSON metadata: the fields of SolveReport
REPORT_KEYS = {
    "outer_iterations", "inner_iterations_total", "inner_restarts", "fp_residual",
    "model_residual_norm", "F0", "M0", "M1", "tail_exponent_fit", "tail_fit_deviation",
    "tail_prefactor_fit", "certified", "forced", "seed_nodes",
}


def test_solve_report_keys(solved_file):
    report = json.loads(solved_file.with_suffix(".json").read_text())["report"]
    assert set(report) == REPORT_KEYS


def test_profile_roundtrip_bit_exact(solved_file, tmp_path):
    record = read_profile(str(solved_file))
    copy = tmp_path / "copy.csv"
    write_profile(str(copy), record)
    assert copy.read_text() == solved_file.read_text()
    again = read_profile(str(copy))
    assert np.array_equal(again.z, record.z)
    assert np.array_equal(again.F, record.F)
    assert np.array_equal(again.tau, record.tau)


@pytest.mark.parametrize("body, message", [
    ([], "missing column header line"),
    (["z,F,tau"], "no data rows"),
    (["z,F,tau", "0,0.005,0"], "at least 2 data rows"),
])
def test_read_profile_rejects_a_short_body(solved_file, tmp_path, body, message):
    # the header of a valid file, then no column line, no rows or one row
    lines = solved_file.read_text().splitlines()
    path = tmp_path / "short.csv"
    path.write_text("\n".join(lines[:lines.index("z,F,tau")] + body) + "\n")
    with pytest.raises(ProfileFormatError, match=message):
        read_profile(str(path))


@pytest.mark.parametrize("bad, message", [("1,2", "row 40 does not have 3 columns"),
                                          ("1,2,3,4", "row 40 does not have 3 columns"),
                                          ("1,x,3", "row 40 holds a non-numeric value")])
def test_malformed_middle_row_is_named(solved_file, tmp_path, bad, message):
    # the rows are parsed in one array; a bad one is still named by its index
    lines = solved_file.read_text().splitlines()
    body = lines.index("z,F,tau") + 1
    lines[body + 40] = bad
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileFormatError, match=f"^{message}$"):
        read_profile(str(path))


def test_verify_solved_profile(solved_file, capsys):
    assert main(["verify", str(solved_file)]) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 7


def test_verify_detects_scaled_profile(solved_file, tmp_path, capsys):
    record = read_profile(str(solved_file))
    record.F = 2.0 * record.F
    bad = tmp_path / "scaled.csv"
    write_profile(str(bad), record)
    assert main(["verify", str(bad)]) == 1
    text = capsys.readouterr().out
    assert "M0       : FAIL" in text


def test_verify_exponential_profile(tmp_path, capsys):
    # a closed-form solution: residual and moments pass, the tail check
    # reports non-power-law decay instead of an exponent
    v = 0.5
    grid = cd.build_grid(50.0, 1025, v)
    F = cd.exponential_grid_function(v, grid)
    record = ProfileRecord(
        v=v, m0=1.0 - v, alpha=(2 - v - 2 * (1 - v)) / (1 - v), tau_star=math.nan,
        tau_inf=(2 - v) / (1 - v), tail_exponent=math.inf,
        tol_inner=1e-10, tol_outer=1e-9, tol_residual=1e-5, certified=False,
        z=grid.nodes, F=F.values, tau=v * grid.nodes,
    )
    path = tmp_path / "exp.csv"
    write_profile(str(path), record)
    assert main(["verify", str(path)]) == 0
    text = capsys.readouterr().out
    assert "non-power-law" in text
    assert "residual : PASS" in text


def test_verify_underflowed_exponential_profile(tmp_path, capsys):
    # on the default zmax the exponential tail underflows to 0, so no power
    # law can be fitted: that passes the check of a declared exponential tail
    v = 0.5
    grid = cd.build_grid(1e6, 1025, v)
    F = cd.exponential_grid_function(v, grid)
    assert F.values[-1] == 0.0
    record = ProfileRecord(
        v=v, m0=1.0 - v, alpha=v / (1 - v), tau_star=math.nan, tau_inf=(2 - v) / (1 - v),
        tail_exponent=math.inf, tol_inner=1e-10, tol_outer=1e-9, tol_residual=1e-5,
        certified=False, z=grid.nodes, F=F.values, tau=v * grid.nodes,
    )
    path = tmp_path / "exp.csv"
    write_profile(str(path), record)
    assert main(["verify", str(path)]) == 0
    assert "tail     : PASS  declared exponential, fit is non-power-law" in capsys.readouterr().out


def test_verify_malformed_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("z,F,tau\n0,1,0\n")
    assert main(["verify", str(path)]) == 2
    assert main(["verify", str(tmp_path / "missing.csv")]) == 2


@pytest.mark.parametrize("key, value", [("tail_exponent", "nan"), ("tail_exponent", "2"),
                                        ("tol_residual", "nan"), ("tol_residual", "-1"),
                                        ("alpha", "inf")])
def test_verify_rejects_bad_header_value(solved_file, tmp_path, capsys, key, value):
    # values the checks cannot use are a malformed file (exit 2), not a
    # numerical failure (3) or a failed check against a NaN bound (1)
    lines = [f"# {key} = {value}" if line.startswith(f"# {key} =") else line
             for line in solved_file.read_text().splitlines()]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileFormatError):
        read_profile(str(path))
    assert main(["verify", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_verify_rejects_invalid_utf8(solved_file, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(solved_file.read_bytes().replace(b"# v =", b"# \x80v =", 1))
    with pytest.raises(ProfileFormatError):
        read_profile(str(path))
    assert main(["verify", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [("--nodes", "65"), ("--nodes", "5"), ("--zmax", "10")])
def test_solve_coarse_grid_seed_is_normalized(tmp_path, capsys, extra):
    # the seed meets M0 = m0 under the package quadrature on any grid, so
    # these valid inputs end in the solver, not in a datum domain error
    code = main(["solve", "--v", "0.5", "--m0", "0.005", *extra,
                 "--out", str(tmp_path / "c.csv")])
    assert code != 2
    assert "datum has M0" not in capsys.readouterr().err


def test_verify_fails_short_grid_tail(tmp_path, capsys):
    # zmax = 10 cuts the profile before its algebraic tail: solve leaves the
    # file uncertified and verify fails the tail by the same rule
    out = tmp_path / "short.csv"
    assert main(["solve", "--v", "0.5", "--m0", "0.005", "--zmax", "10",
                 "--out", str(out)]) == 4
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert "tail     : FAIL" in capsys.readouterr().out


def test_solve_large_v_ends_in_solver(tmp_path, capsys):
    # at v = 0.99 the update weight (1+z)^(tau_inf-1/2) overflows at zmax
    # 1e6; the outer loop stops at the first infinite update norm, names
    # zmax, and no step warns
    m0 = 0.5 * cd.admissible_threshold(0.99)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["solve", "--v", "0.99", "--m0", repr(m0), "--nodes", "257",
                     "--out", str(tmp_path / "big.csv")])
    assert code == 3
    assert "zmax" in capsys.readouterr().err
    report = json.loads((tmp_path / "big.json").read_text())["report"]
    assert report["outer_iterations"] == 1


def test_solve_threshold_gate(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(solve_args(out, m0="0.02"))
    assert code == 2
    assert "0.016585557" in capsys.readouterr().err
    assert not out.exists()


def test_solve_force_above_threshold(tmp_path):
    out = tmp_path / "forced.csv"
    with pytest.warns(RuntimeWarning):
        code = main(solve_args(out, m0="0.02", extra=["--force"]))
    assert code in (0, 4)
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["report"]["certified"] == (code == 0)
    # the identity F(0) = m0 (1 - m0) still holds on this exploratory run
    assert payload["report"]["F0"] == pytest.approx(0.02 * 0.98, rel=1e-4)


def test_solve_force_far_above_threshold(tmp_path):
    # near the conjectured edge the capped iteration need not converge; the
    # contract is only that certification is never claimed
    out = tmp_path / "wild.csv"
    with pytest.warns(RuntimeWarning, match="monotone sweep violated"), \
            pytest.warns(RuntimeWarning, match="above the admissibility threshold"):
        code = main(["solve", "--v", "0.5", "--m0", "0.4999", "--nodes", "257",
                     "--zmax", "1e4", "--force", "--out", str(out)])
    assert code in (3, 4)


def test_solve_nonconvergence_writes_best_iterate(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    code = main(solve_args(out, extra=["--max-iter", "1"]))
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0] == f"best iterate written to {out}"
    assert lines[1].startswith("error: outer iteration stopped short of tol=1e-09 at "
                               "iteration 1 (cap 1): last update norm ")
    record = read_profile(str(out))
    assert not record.certified
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["report"]["certified"] is False
    assert set(payload["report"]) == REPORT_KEYS


def test_solve_gnuplot_flag(tmp_path, solved_file):
    # --gnuplot writes a script next to the CSV that plots the CSV; a solve
    # without the flag writes none
    out = tmp_path / "g.csv"
    code = main(solve_args(out, extra=["--gnuplot"]))
    assert code == 0
    script = out.with_suffix(".gnuplot").read_text()
    assert f"plot '{out}' " in script
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "g.gnuplot", "g.json"]
    assert not any(p.suffix == ".gnuplot" for p in solved_file.parent.iterdir())


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("COAGDRIFT_OUTDIR", str(tmp_path))
    code = main(["solve", "--v", "0.5", "--m0", "0.005", *FAST_SOLVE])
    assert code == 0
    assert (tmp_path / "profile_v0.5_m00.005.csv").exists()


def test_simulate_command(solved_file, tmp_path, capsys):
    outdir = tmp_path / "sim"
    with pytest.warns(RuntimeWarning, match="512 cells up to xmax=50.0 capture only"):
        code = main([
            "simulate", "--profile", str(solved_file), "--t0", "1", "--t1", "1.1",
            "--cells", "512", "--xmax", "50", "--cfl", "0.5",
            "--allow-truncation", "--snapshots", "1.05", "--out", str(outdir),
            "--record-every", "10",
        ])
    assert code == 0
    diag_path = outdir / "diagnostics.csv"
    assert diag_path.exists()
    rows = diag_path.read_text().splitlines()
    assert rows[0] == "t,m0,m1,u,self_similar_error"
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    assert np.all(np.isfinite(data))
    # volume stays constant at scheme accuracy
    assert np.max(np.abs(data[:, 2] - data[0, 2])) / data[0, 2] < 1e-2
    assert (outdir / "snapshot_t1.05.csv").exists()
    assert (outdir / "snapshot_t1.1.csv").exists()


def test_simulate_step_cap_keeps_the_run(solved_file, tmp_path, monkeypatch, capsys):
    # a run stopped by the step cap is a scheme failure like any other: its
    # diagnostics and its last good state are written, not the initial state
    from coagdrift import evolution

    monkeypatch.setattr(evolution, "_MAX_STEPS", 3)
    with pytest.warns(RuntimeWarning, match="512 cells"):
        code = main(["simulate", "--profile", str(solved_file), "--t1", "1.05",
                     "--cells", "512", "--allow-truncation", "--out", str(tmp_path)])
    assert code == 3
    assert "exceeded 3 steps" in capsys.readouterr().err
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    assert len(rows) == 4  # t0 and three steps
    t_last = float(rows[-1].split(",")[0])
    assert t_last > 1.0
    assert [p.name for p in tmp_path.glob("snapshot_t*.csv")] == [f"snapshot_t{t_last:g}.csv"]


def test_cli_warning_prints_one_line(tmp_path):
    # the command line shows a warning as one "warning:" line, without the
    # source location that would change with the install path
    src = os.path.dirname(os.path.dirname(os.path.abspath(cd.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="")
    env.pop("COAGDRIFT_OUTDIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "coagdrift.cli", "solve", "--v", "0.5", "--m0", "0.02",
         "--force", "--nodes", "257", "--zmax", "1e4"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 4, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "warning: m0 above the admissibility threshold"), proc.stderr
    assert ".py:" not in proc.stderr


def test_solve_reports_its_seed(solved_file, tmp_path):
    # the README solve at 1025 nodes is seeded by the 257-node solve, and so
    # is a forced run
    payload = json.loads(solved_file.with_suffix(".json").read_text())
    assert payload["report"]["seed_nodes"] == 257
    assert payload["report"]["outer_iterations"] <= 2
    out = tmp_path / "forced.csv"
    with pytest.warns(RuntimeWarning, match="admissibility threshold"):
        main(solve_args(out, m0="0.02", extra=["--force"]))
    assert json.loads(out.with_suffix(".json").read_text())["report"]["seed_nodes"] == 257


def test_warning_raised_as_error_exits_3(tmp_path, capsys):
    # a RuntimeWarning that the filters raise is one error line and exit 3,
    # not a traceback and exit 1, the code of a failed verify check
    argv = ["solve", "--v", "0.5", "--m0", "0.02", "--force", "--nodes", "257",
            "--zmax", "1e4", "--out", str(tmp_path / "forced.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: a warning was raised as an error: m0 above the admissibility")
    assert len(err.splitlines()) == 1


def test_solve_rejects_tiny_zmax(tmp_path, capsys):
    # a zmax whose grid would overflow the moment quadrature is refused by
    # name before any quadrature runs, and no warning is shown
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        code = main(["solve", "--v", "0.5", "--m0", "0.005", "--nodes", "65",
                     "--zmax", "1e-170", "--out", str(tmp_path / "tiny.csv")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: zmax = 1e-170 is too small")


def test_simulate_rejects_coarse_cells(solved_file, tmp_path, capsys):
    # 512 cells over the default cutoff carry only 93% of the profile's
    # first moment; the truncation check rejects the run and names the cells
    code = main(["simulate", "--profile", str(solved_file), "--t1", "1.05",
                 "--cells", "512", "--out", str(tmp_path)])
    assert code == 2
    assert "512 cells" in capsys.readouterr().err


def test_simulate_rejected_window_makes_no_directory(solved_file, tmp_path, capsys):
    # a comparison window that does not fit the domain at t1 is refused
    # before the run, and the output directory is not created
    outdir = tmp_path / "sim"
    with pytest.warns(RuntimeWarning, match="1024 cells"):
        code = main(["simulate", "--profile", str(solved_file), "--t1", "1.5",
                     "--cells", "1024", "--xmax", "300", "--z-window", "250",
                     "--allow-truncation", "--out", str(outdir)])
    assert code == 2
    assert "window" in capsys.readouterr().err
    assert not outdir.exists()


def test_simulate_rejects_bad_times(solved_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--profile", str(solved_file), "--t0", "2", "--t1", "1",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --t1: must exceed --t0 = 2.0, got 1.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_command(tmp_path):
    outdir = tmp_path / "swp"
    code = main([
        "sweep", "--v", "0.5", "--m0-list", "0.004,0.008", *FAST_SOLVE,
        "--out-dir", str(outdir), "--jobs", "2",
    ])
    assert code == 0
    for m0 in ("0.004", "0.008"):
        assert (outdir / f"profile_v0.5_m0{m0}.csv").exists()
        assert (outdir / f"profile_v0.5_m0{m0}.json").exists()


@pytest.mark.parametrize("cpus, extra, want", [
    (2, (), 2),            # five m0 values, capped at the CPU count
    (8, (), 5),            # never more workers than m0 values
    (None, (), 1),         # unknown CPU count
    (2, ("--jobs", "3"), 3),
])
def test_sweep_pool_size(monkeypatch, tmp_path, cpus, extra, want):
    from coagdrift import cli

    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code = main([
        "sweep", "--v", "0.5", "--m0-list", "0.001,0.002,0.003,0.004,0.005",
        "--out-dir", str(tmp_path), *extra,
    ])
    assert code == 0
    assert RecordingPool.created == [want]


class InProcessPool(RecordingPool):
    """A RecordingPool that runs every job in this process."""

    def map(self, fn, jobs):
        return [fn(job) for job in jobs]


def test_sweep_reports_each_failing_job(monkeypatch, tmp_path, capsys):
    # a job that ends in a package error reports its exit code like any
    # other instead of aborting the sweep; the sweep returns the worst code
    from coagdrift import cli

    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    code = main(["sweep", "--v", "0.5", "--m0-list", "0.004,0.005", "--nodes", "5",
                 "--jobs", "1", "--out-dir", str(tmp_path)])
    assert code == 3
    out = capsys.readouterr().out
    for m0 in ("0.004", "0.005"):
        assert f"m0={m0}: exit 3  ({tmp_path / f'profile_v0.5_m0{m0}.csv'})" in out


def test_sweep_distinct_m0_get_distinct_files(monkeypatch, tmp_path, capsys):
    # m0 values equal to six significant digits keep their own files and
    # report lines
    from coagdrift import cli

    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert main(["sweep", "--v", "0.5", "--m0-list", "0.01658011,0.01658012",
                 "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"m0={m0}: exit 0  ({tmp_path / f'profile_v0.5_m0{m0}.csv'})"
        for m0 in ("0.01658011", "0.01658012")
    ]


SMALL_SOLVE = ["--nodes", "65"]
TRUNCATED = ["--cells", "512", "--t1", "1.05"]


@pytest.mark.parametrize("argv, setting, code, cause", [
    pytest.param(["threshold", "--v", "1.5"], None, 2, "v must lie in (0, 1)",
                 id="threshold-domain"),
    pytest.param(["solve", "--v", "1.5", "--m0", "0.005", *SMALL_SOLVE, "--out", "{tmp}/s.csv"],
                 None, 2, "v must lie in (0, 1)", id="solve-domain"),
    pytest.param(["solve", "--v", "0.5", "--m0", "0.02", *SMALL_SOLVE, "--out", "{tmp}/s.csv"],
                 None, 2, "threshold 0.0165855", id="solve-threshold"),
    pytest.param(["solve", "--v", "0.5", "--m0", "0.005", *SMALL_SOLVE, "--out", "{file}/s.csv"],
                 None, 2, "{file}", id="solve-out-under-file"),
    # the rename onto a directory fails after the temporary file is written
    pytest.param(["solve", "--v", "0.5", "--m0", "0.005", *SMALL_SOLVE, "--out", "{tmp}/d"],
                 None, 2, "Is a directory", id="solve-out-is-directory"),
    pytest.param(["solve", "--v", "0.5", "--m0", "0.005", *SMALL_SOLVE],
                 "outdir", 2, "{file}", id="solve-outdir-env"),
    pytest.param(["solve", "--v", "0.5", "--m0", "0.005", *SMALL_SOLVE, "--max-iter", "1",
                  "--out", "{tmp}/s.csv"], None, 3, "stopped short of tol", id="solve-max-iter"),
    pytest.param(["solve", "--v", "0.5", "--m0", "0.005", "--nodes", "5", "--out", "{tmp}/s.csv"],
                 None, 3, "monotone sweep violated", id="solve-numerical"),
    pytest.param(["solve", "--v", "0.5", "--m0", "0.02", "--force", *SMALL_SOLVE,
                  "--out", "{tmp}/s.csv"], None, 3, "raised as an error: m0 above",
                 id="solve-warning-as-error"),
    pytest.param(["verify", "{junk}"], None, 2, "bad magic line", id="verify-malformed"),
    pytest.param(["verify", "{tmp}/missing.csv"], None, 2, "cannot read", id="verify-missing"),
    pytest.param(["simulate", "--profile", "{junk}"], None, 2, "bad magic line",
                 id="simulate-malformed"),
    pytest.param(["simulate", "--profile", "{profile}", *TRUNCATED, "--out", "{tmp}/sim"],
                 None, 2, "512 cells", id="simulate-domain"),
    pytest.param(["simulate", "--profile", "{profile}", "--t0", "1", "--t1", "1"],
                 None, 2, "argument --t1", id="simulate-empty-time-range"),
    pytest.param(["simulate", "--profile", "{profile}", "--t1", "1.01", "--out", "{file}/sim"],
                 None, 2, "{file}/sim", id="simulate-out-under-file"),
    pytest.param(["simulate", "--profile", "{profile}", "--t1", "1.01"],
                 "outdir", 2, "{file}", id="simulate-outdir-env"),
    pytest.param(["simulate", "--profile", "{profile}", "--t1", "1.05", "--out", "{tmp}/sim"],
                 "step-cap", 3, "exceeded 3 steps at t=1.00", id="simulate-step-cap"),
    pytest.param(["simulate", "--profile", "{profile}", *TRUNCATED, "--allow-truncation",
                  "--out", "{tmp}/sim"], None, 3, "raised as an error: 512 cells",
                 id="simulate-warning-as-error"),
    pytest.param(["sweep", "--v", "0.5", "--m0-list", ""], None, 2, "argument --m0-list",
                 id="sweep-empty-m0-list"),
    pytest.param(["sweep", "--v", "1.5", "--m0-list", "0.005", *SMALL_SOLVE,
                  "--out-dir", "{tmp}"], None, 2, "v must lie in (0, 1)", id="sweep-domain"),
    pytest.param(["sweep", "--v", "0.5", "--m0-list", "0.005", *SMALL_SOLVE,
                  "--out-dir", "{file}"], None, 2, "{file}", id="sweep-out-dir-file"),
    pytest.param(["sweep", "--v", "0.5", "--m0-list", "0.005", *SMALL_SOLVE],
                 "outdir", 2, "{file}", id="sweep-outdir-env"),
    pytest.param(["sweep", "--v", "0.5", "--m0-list", "0.005", "--nodes", "5",
                  "--out-dir", "{tmp}"], None, 3, "monotone sweep violated",
                 id="sweep-numerical"),
    pytest.param(["sweep", "--v", "0.5", "--m0-list", "0.02", "--force", *SMALL_SOLVE,
                  "--out-dir", "{tmp}"], None, 3, "raised as an error: m0 above",
                 id="sweep-warning-as-error"),
])
def test_every_failure_exits_through_one_error_line(argv, setting, code, cause, solved_file,
                                                    tmp_path, monkeypatch, capsys):
    # each command, driven into each failure it can meet, exits with the
    # code of its cause and prints one "error:" line that names it, never a
    # traceback; a write that fails leaves no temporary file behind.  Warnings
    # are errors under the test configuration, and sweep jobs run in process.
    from coagdrift import cli, evolution

    regular = tmp_path / "f"
    regular.write_text("not a directory\n")
    (tmp_path / "d").mkdir()
    junk = tmp_path / "junk.csv"
    junk.write_text("z,F,tau\n0,1,0\n")
    names = {"tmp": str(tmp_path), "file": str(regular), "junk": str(junk),
             "profile": str(solved_file)}
    argv = [arg.format(**names) for arg in argv]
    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    if setting == "outdir":
        monkeypatch.setenv("COAGDRIFT_OUTDIR", str(regular))
    elif setting == "step-cap":
        monkeypatch.setattr(evolution, "_MAX_STEPS", 3)
    try:
        got = main(argv)
    except SystemExit as exc:  # a usage error of the parser
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code, err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines()
              if re.match(r"(coagdrift( \w+)?: )?error: ", line)]
    assert len(errors) == 1 and cause.format(**names) in errors[0], err
    if argv[0] == "sweep" and RecordingPool.created:  # one report line per job
        assert re.fullmatch(rf"m0=[^:]+: exit {code}  \(.+\.csv\)\n", out), out
    assert not [p.name for p in tmp_path.rglob(".tmp-*")]

