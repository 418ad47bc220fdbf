"""Property tests of the command line and the profile reader; skipped where
hypothesis is absent."""

import math
import warnings

import pytest

import coagdrift as cd
from coagdrift.cli import main
from coagdrift.errors import ProfileFormatError
from coagdrift.profile_io import ProfileRecord, read_profile, write_profile

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=10, derandomize=True, deadline=None)
@given(v=st.floats(0.2, 0.8),
       fraction=st.floats(0.1, 0.9, exclude_min=True, exclude_max=True))
def test_solve_and_verify_agree(tmp_path_factory, v, fraction):
    # solve ends certified (0), uncertified (4) or unconverged (3); a file
    # it writes passes verify exactly when solve certified it
    out = tmp_path_factory.mktemp("prop") / "p.csv"
    m0 = fraction * cd.admissible_threshold(v)
    code = main(["solve", "--v", repr(v), "--m0", repr(m0), "--nodes", "257",
                 "--out", str(out)])
    assert code in (0, 3, 4)
    if code in (0, 4):
        assert main(["verify", str(out)]) == {0: 0, 4: 1}[code]


# Header keys of a profile file and values a mutation writes into them.
_HEADER_KEYS = ("v", "m0", "alpha", "tau_star", "tau_inf", "tail_exponent",
                "tol_inner", "tol_outer", "tol_residual", "certified")
_SPECIAL = ("nan", "-nan", "inf", "-inf", "0", "-0", "-1", "1", "2", "0.5", "1e308",
            "1e400", "1e-320", "", "x", "true", "false", "0x1p-3", "1_0")
_VALUES = st.one_of(st.sampled_from(_SPECIAL), st.floats().map(repr),
                    st.text(max_size=6))

_BYTE_EDIT = st.tuples(st.just("byte"), st.integers(0, 2**20),
                       st.integers(0, 3), st.binary(max_size=3))
_LINE_EDIT = st.tuples(st.just("line"), st.sampled_from(("drop", "dup", "swap", "replace")),
                       st.integers(0, 2**20), st.integers(0, 2**20), st.binary(max_size=24))
_HEADER_EDIT = st.tuples(st.just("header"), st.sampled_from(_HEADER_KEYS), _VALUES)
_CELL_EDIT = st.tuples(st.just("cell"), st.integers(0, 2**20), st.integers(0, 2), _VALUES)
# F of one row set to a finite value whose products overflow, and F set to
# zero from some row to the end
_HUGE_EDIT = st.tuples(st.just("huge"), st.integers(0, 2**20),
                       st.sampled_from(("1e200", "1e300", "1.7976931348623157e308")))
_ZERO_TAIL_EDIT = st.tuples(st.just("zero_tail"), st.integers(0, 2**20))


def _mutate(data: bytes, edits) -> bytes:
    """Apply byte, line, header, cell, huge-sample and zero-tail edits to a
    profile file."""
    for edit in edits:
        kind = edit[0]
        if kind == "byte":
            _, pos, dropped, inserted = edit
            pos %= len(data) + 1
            data = data[:pos] + inserted + data[pos + dropped:]
            continue
        lines = data.split(b"\n")
        if kind == "line":
            _, how, i, j, text = edit
            i, j = i % len(lines), j % len(lines)
            if how == "drop":
                del lines[i]
            elif how == "dup":
                lines.insert(i, lines[i])
            elif how == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            else:
                lines[i] = text
        elif kind == "header":
            _, key, value = edit
            prefix = f"# {key} =".encode()
            lines = [f"# {key} = {value}".encode("utf-8", "surrogatepass")
                     if line.startswith(prefix) else line for line in lines]
        elif kind == "cell":
            _, row, col, value = edit
            rows = [i for i, line in enumerate(lines) if line.count(b",") == 2]
            if rows:
                i = rows[row % len(rows)]
                cells = lines[i].split(b",")
                cells[col] = value.encode("utf-8", "surrogatepass")
                lines[i] = b",".join(cells)
        else:
            rows = [i for i, line in enumerate(lines)
                    if line.count(b",") == 2 and not line.startswith(b"z,")]
            if rows:
                k = edit[1] % len(rows)
                targets = rows[k:k + 1] if kind == "huge" else rows[k:]
                value = edit[2].encode() if kind == "huge" else b"0"
                for i in targets:
                    cells = lines[i].split(b",")
                    cells[1] = value
                    lines[i] = b",".join(cells)
        data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def profile_bytes(tmp_path_factory):
    """Two 257-node profile files: the README pair as solve writes it
    (uncertified at this size, verify exits 1) and the exponential family
    (verify exits 0)."""
    base = tmp_path_factory.mktemp("base")
    solved = base / "solved.csv"
    assert main(["solve", "--v", "0.5", "--m0", "0.005", "--nodes", "257",
                 "--out", str(solved)]) == 4
    v = 0.5
    grid = cd.build_grid(50.0, 257, v)
    closed_form = base / "exp.csv"
    write_profile(str(closed_form), ProfileRecord(
        v=v, m0=1.0 - v, alpha=v / (1 - v), tau_star=math.nan, tau_inf=(2 - v) / (1 - v),
        tail_exponent=math.inf, tol_inner=1e-10, tol_outer=1e-9, tol_residual=1e-5,
        certified=False, z=grid.nodes, F=cd.exponential_grid_function(v, grid).values,
        tau=v * grid.nodes,
    ))
    assert main(["verify", str(solved)]) == 1 and main(["verify", str(closed_form)]) == 0
    return solved.read_bytes(), closed_form.read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, derandomize=True, deadline=None)
@given(base=st.integers(0, 1),
       edits=st.lists(st.one_of(_BYTE_EDIT, _LINE_EDIT, _HEADER_EDIT, _CELL_EDIT,
                                _HUGE_EDIT, _ZERO_TAIL_EDIT),
                      min_size=1, max_size=3))
def test_mutated_profile_is_read_or_rejected(tmp_path_factory, profile_bytes, base, edits):
    # a mutated file either reads back or raises ProfileFormatError, and
    # verify answers it with 0 (pass), 1 (a check fails) or 2 (malformed),
    # with no RuntimeWarning
    path = tmp_path_factory.mktemp("mut") / "p.csv"
    path.write_bytes(_mutate(profile_bytes[base], edits))
    try:
        read_profile(str(path))
    except ProfileFormatError:
        pass
    assert main(["verify", str(path)]) in (0, 1, 2)


# Values of each command-line flag, as (usual, unusual): the unusual ones
# are zero, negative, non-finite, out-of-range and non-numeric text, drawn
# one time in five.  Sizes stay small (--nodes <= 257, --cells <= 2048),
# and the outer cap is always given.
_BAD = ("nan", "inf", "-inf", "-1", "0", "x", "")
_FLAG_VALUES = {
    "--v": (("0.5", "0.3", "0.7", "0.99"), ("0.9991", "0.99902", "1e-300", "1", *_BAD)),
    "--m0": (("0.005", "0.001", "0.02"), ("0.4999", "1e-301", "1e-320", "1", *_BAD)),
    "--nodes": (("65", "257"), ("2", "3", "5", "-1", "0", "x")),
    "--zmax": (("1e4", "1e6", "50"), ("1", "1e300", *_BAD)),
    "--tol-inner": (("1e-10", "1e-3"), _BAD),
    "--tol-outer": (("1e-9", "1e-2"), _BAD),
    "--tol-residual": (("1e-5", "1"), _BAD),
    "--max-iter": (("1", "3"), ("0", "-1", "x")),
    "--t0": (("1", "0.5"), ("2", *_BAD)),
    "--t1": (("1.05", "1.1"), ("2", *_BAD)),
    "--cells": (("16", "512", "2048"), ("1", "0", "-3", "x")),
    "--xmax": (("50", "5"), ("1e-3", "1e300", *_BAD)),
    "--cfl": (("0.5", "1"), ("1.5", *_BAD)),
    "--snapshots": (("1.05", "1.05,1.05", "-1,1.05"), ("a", *_BAD)),
    "--z-window": (("1", "10"), ("1e300", *_BAD)),
    "--record-every": (("1", "10"), ("0", "-1", "x")),
}
_OPTIONAL = {
    "threshold": ("--m0",),
    "solve": ("--zmax", "--tol-inner", "--tol-outer", "--tol-residual", "--force"),
    "simulate": ("--t0", "--t1", "--xmax", "--cfl", "--snapshots", "--z-window",
                 "--record-every", "--allow-truncation"),
}
_REQUIRED = {
    "threshold": ("--v",),
    "solve": ("--v", "--m0", "--nodes", "--max-iter"),
    "simulate": ("--cells",),
}
# RuntimeWarnings the package issues on purpose; any other one (numpy
# floating-point errors) fails the property.
_STATED_WARNINGS = r"m0 above the admissibility|monotone sweep violated|\d+ cells up to"


@st.composite
def _argv(draw, files):
    command = draw(st.sampled_from(("threshold", "solve", "verify", "simulate")))
    argv = [command]
    if command in ("verify", "simulate"):
        path = draw(st.sampled_from(files))
        argv += [path] if command == "verify" else ["--profile", path]
    if command == "verify":
        return argv
    flags = list(_REQUIRED[command]) + [
        flag for flag in _OPTIONAL[command] if draw(st.booleans())]
    for flag in flags:
        if flag in ("--force", "--allow-truncation"):
            argv.append(flag)
        else:
            usual, unusual = _FLAG_VALUES[flag]
            argv += [flag, draw(st.sampled_from(unusual if draw(st.integers(0, 4)) == 0
                                                else usual))]
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory, profile_bytes):
    """Profile paths the CLI property reads (the solved and the exponential
    profile, a missing file and a directory) and an output directory."""
    base = tmp_path_factory.mktemp("argv")
    paths = []
    for name, data in zip(("solved.csv", "exp.csv"), profile_bytes):
        (base / name).write_bytes(data)
        paths.append(str(base / name))
    return (*paths, str(base / "missing.csv"), str(base)), base


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_exit_code_contract(cli_files, data):
    # main answers every argument vector with an exit code 0-4, or argparse
    # rejects it with exit 2; it raises nothing else, and no numpy
    # floating-point warning escapes
    files, outdir = cli_files
    argv = data.draw(_argv(files))
    if argv[0] in ("solve", "simulate"):
        argv += ["--out", str(outdir / ("p.csv" if argv[0] == "solve" else "sim"))]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _STATED_WARNINGS, RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = None
            assert exc.code == 2, argv
    assert code is None or code in (0, 1, 2, 3, 4), argv
