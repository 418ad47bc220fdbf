"""Property tests of the pair quadrature rule, the command line and the
profile reader; skipped where hypothesis is absent."""

import math
import warnings

import numpy as np
import pytest

import coagdrift as cd
from coagdrift import cli
from coagdrift.cli import main
from coagdrift.errors import ProfileFormatError
from coagdrift.grids import _moments, _two_node_rule
from coagdrift.profile_io import ProfileRecord, read_profile, write_profile
from oracles import RecordingPool

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

_EPS = np.finfo(float).eps


@st.composite
def _pair_measure(draw):
    """A measure on [0, 1] with 1-50 points: w fractions that repeat, nearly
    repeat (up to 1e-6 apart) or sit at the ends, and weights that vanish,
    are subnormal or span 300 decades."""
    n = draw(st.integers(1, 50))
    base = draw(st.floats(0.0, 1.0))
    lam = draw(st.lists(st.one_of(
        st.floats(0.0, 1.0),
        st.just(base),
        st.floats(-1e-6, 1e-6).map(lambda e: min(1.0, max(0.0, base + e))),
        st.sampled_from((0.0, 1.0)),
    ), min_size=n, max_size=n))
    omega = draw(st.lists(st.one_of(
        st.just(0.0), st.just(5e-324), st.floats(1e-300, 1e3), st.floats(0.0, 1.0),
    ), min_size=n, max_size=n))
    return np.array(lam), np.array(omega)


def _transport(lam, omega, nodes, weights) -> float:
    """Transport (Wasserstein-1) distance between two measures on [0, 1]
    of equal mass: the integral of the absolute difference of their
    distribution functions."""
    t = np.concatenate([lam, nodes])
    order = np.argsort(t, kind="stable")
    cdf = np.cumsum(np.concatenate([omega, -weights])[order])
    return float(np.sum(np.abs(cdf[:-1]) * np.diff(t[order])))


# One atom behind a first point of zero weight: the moments about the first
# point leave a variance of 1.5e-16 s2 by rounding, which unguarded puts a
# second node at -0.14.
_ONE_ATOM = (np.array([0.24674784115974802] + 6 * [0.8612625322502753]),
             np.array([0.0, 0.23456017072188076, 0.0013814786584767495, 0.05014979591205792,
                       3227.466101224948, 0.0007016681943415193, 106.59755459554707]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(measures=st.lists(_pair_measure(), min_size=1, max_size=4))
@example(measures=[_ONE_ATOM])
def test_pair_gauss_rule(measures):
    # the sweep's two-node rule, built for several pairs at once as the plan
    # does: nodes in [0, 1], weights >= 0 summing to the mass, moments 0-3
    # reproduced where two nodes are used, a measure of one or two points
    # reproduced as a measure, and one atom by one node.  Largest values
    # seen over 60000 random measures of this kind: moment error 2.7e-11 m0
    # (a light first point far from the mass, about which the moments are
    # taken), transport distance 32 eps m0; over 100000 single atoms behind
    # a zero-weight first point, variance 1.5e-15 s2.
    counts = [lam.size for lam, _ in measures]
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    points = np.concatenate([lam for lam, _ in measures])
    first = points[starts]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = _moments(points - np.repeat(first, counts),
                           np.concatenate([omega for _, omega in measures]), starts)
        nodes, weights = _two_node_rule(first, moments)
    for p, (lam, omega) in enumerate(measures):
        x, w = nodes[:, p], weights[:, p]
        m0 = float(np.sum(omega))
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.all(w >= 0.0)
        assert abs(w.sum() - m0) <= 1e-14 * m0 + 1e-320
        if w[1] > 0.0:
            for k in range(4):
                assert abs(np.sum(w * x**k) - np.sum(omega * lam**k)) <= 1e-10 * m0 + 1e-320, k
        if lam.size == 1:
            assert x[0] == lam[0] and w[0] == omega[0] and w[1] == 0.0
        if lam.size <= 2:
            assert _transport(lam, omega, x, w) <= 1e-13 * m0 + 1e-320
        support = np.unique(lam[omega > 0.0])
        if support.size == 1:  # (a subnormal mass has no precision to place)
            assert w[1] == 0.0 and m0 * abs(x[0] - support[0]) <= 64 * _EPS * m0 + 1e-320


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
# one time in five.  Sizes stay small (--nodes <= 257, --cells <= 2048,
# --jobs <= 4), and the outer cap is always given to solve.
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
    "--snapshots": (("1.05", "1.05,1.05", "1,1.05"), ("-1,1.05", "1.05,5", "a", *_BAD)),
    "--z-window": (("1", "10"), ("1e300", *_BAD)),
    "--record-every": (("1", "10"), ("0", "-1", "x")),
    "--m0-list": (("0.005", "0.004,0.005", "0.001,0.02"), ("0.005,x", "nan", *_BAD)),
    "--jobs": (("1", "2", "4"), ("0", "-1", "x")),
}
_OPTIONAL = {
    "threshold": ("--m0",),
    "solve": ("--zmax", "--tol-inner", "--tol-outer", "--tol-residual", "--force"),
    "simulate": ("--t0", "--t1", "--xmax", "--cfl", "--snapshots", "--z-window",
                 "--record-every", "--allow-truncation"),
    "sweep": ("--nodes", "--max-iter", "--zmax", "--tol-inner", "--tol-outer",
              "--tol-residual", "--force", "--jobs"),
}
_REQUIRED = {
    "threshold": ("--v",),
    "solve": ("--v", "--m0", "--nodes", "--max-iter"),
    "simulate": ("--cells",),
    "sweep": ("--v", "--m0-list"),
}
# RuntimeWarnings the package issues on purpose; any other one (numpy
# floating-point errors) fails the property.
_STATED_WARNINGS = r"m0 above the admissibility|monotone sweep violated|\d+ cells up to"


@st.composite
def _argv(draw, files):
    command = draw(st.sampled_from(("threshold", "solve", "verify", "simulate", "sweep")))
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


def _exit_code_of_drawn_argv(cli_files, data, warnings_as_errors):
    """Draw an argument vector, run ``main`` on it and check its exit code:
    0-4, or argparse's 2.  Without ``warnings_as_errors`` no RuntimeWarning
    but those the package states may be shown; with it, each is raised.
    sweep hands its jobs to a recording pool, which answers them without
    starting a process or solving."""
    files, outdir = cli_files
    argv = data.draw(_argv(files))
    if argv[0] in ("solve", "simulate"):
        argv += ["--out", str(outdir / ("p.csv" if argv[0] == "solve" else "sim"))]
    if argv[0] == "sweep":
        argv += ["--out-dir", str(outdir / "sweep")]
    with warnings.catch_warnings(record=True) as shown, pytest.MonkeyPatch.context() as patch:
        if warnings_as_errors:
            warnings.simplefilter("error", RuntimeWarning)
        else:
            warnings.simplefilter("always", RuntimeWarning)
            warnings.filterwarnings("ignore", _STATED_WARNINGS, RuntimeWarning)
        patch.setattr(RecordingPool, "created", [])
        patch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = None
            assert exc.code == 2, argv
    assert code is None or code in (0, 1, 2, 3, 4), argv
    assert not [str(w.message) for w in shown if w.category is RuntimeWarning], argv


@settings(max_examples=250, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_exit_code_contract(cli_files, data):
    # main answers every argument vector with an exit code 0-4, or argparse
    # rejects it with exit 2; it raises nothing else, and no numpy
    # floating-point warning is shown
    _exit_code_of_drawn_argv(cli_files, data, warnings_as_errors=False)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_exit_code_contract_warnings_as_errors(cli_files, data):
    # with every RuntimeWarning raised as an error, a warning inside a
    # command (forced runs warn on purpose) ends in exit 3, not in a
    # traceback or in exit 1, the code of a failed verify check
    _exit_code_of_drawn_argv(cli_files, data, warnings_as_errors=True)
