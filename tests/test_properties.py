"""Property tests of the pair quadrature rule, the causality of the tau
map, the command line and the profile reader; skipped where hypothesis is
absent."""

import math
import warnings

import numpy as np
import pytest

import coagdrift as cd
from coagdrift import cli, grids
from coagdrift.cli import main
from coagdrift.errors import ProfileFormatError
from coagdrift.grids import _moment_table, _range_moments, _z_fraction_rule
from coagdrift.profile_io import ProfileRecord, read_profile, write_profile
from oracles import RecordingPool, tau_map

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

_EPS = np.finfo(float).eps


@st.composite
def _pair_measure(draw):
    """A pair as the plan sees it: 1-50 nodes at strictly increasing
    positions y, with gaps that span six decades, and their masses.  The
    masses vanish, are subnormal or span 300 decades each, or one node, the
    first or the last, carries the mass and the others up to 1e-300 of it.
    Returns the positions, the masses, the interval length dz >= the width
    in y and the z fraction of the first node."""
    n = draw(st.integers(1, 50))
    gaps = draw(st.lists(st.one_of(st.floats(1e-6, 1.0), st.just(1.0)),
                         min_size=n - 1, max_size=n - 1))
    y = draw(st.floats(0.0, 1e3)) + np.concatenate([[0.0], np.cumsum(gaps)])
    if draw(st.booleans()):
        mass = np.array(draw(st.lists(st.one_of(
            st.just(0.0), st.just(5e-324), st.floats(1e-300, 1e3), st.floats(0.0, 1.0),
        ), min_size=n, max_size=n)))
    else:
        heavy = draw(st.floats(1e-300, 1e3))
        mass = heavy * np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=n, max_size=n)))
        mass[draw(st.sampled_from((0, n - 1)))] = heavy
    width = y[-1] - y[0]
    span = draw(st.floats(1e-3, 1.0))  # the pair's share of its interval
    dz = width / span if width > 0.0 else 1.0
    lam0 = draw(st.floats(span, 1.0)) if width > 0.0 else draw(st.floats(0.0, 1.0))
    return y, mass, dz, lam0


def _transport(lam, omega, nodes, weights) -> float:
    """Transport (Wasserstein-1) distance between two measures on [0, 1]
    of equal mass: the integral of the absolute difference of their
    distribution functions."""
    t = np.concatenate([lam, nodes])
    order = np.argsort(t, kind="stable")
    cdf = np.cumsum(np.concatenate([omega, -weights])[order])
    return float(np.sum(np.abs(cdf[:-1]) * np.diff(t[order])))


def _pair_rules(pairs, lead, trail):
    """The two-node rules of ``pairs`` through the table path of
    ``pair_rule``: the pairs' nodes lie one after another in one table,
    behind ``lead`` and before ``trail`` nodes of other masses."""
    y = [np.arange(-len(lead), 0.0)]
    mass = [np.asarray(lead, dtype=float)]
    first, last = [], []
    at = len(lead)
    for py, pm, *_ in pairs:
        y.append(py + (y[-1][-1] + 1.0 - py[0] if y[-1].size else 0.0))
        mass.append(pm)
        first.append(at)
        last.append(at + py.size - 1)
        at += py.size
    y.append(y[-1][-1] + 1.0 + np.arange(len(trail)))
    mass.append(np.asarray(trail, dtype=float))
    y, mass = np.concatenate(y), np.concatenate(mass)
    first, last = np.array(first), np.array(last)
    table = _moment_table(mass, y)
    moments, origin = _range_moments(table, first, last)
    dz = np.array([p[2] for p in pairs])
    lam0 = np.array([p[3] for p in pairs])
    nodes, weights = _z_fraction_rule(moments, lam0 - (origin - y[first]) / dz, dz,
                                      y[last] - y[first])
    return nodes, weights, [lam0[p] - (y[first[p]:last[p] + 1] - y[first[p]]) / dz[p]
                            for p in range(len(pairs))]


# A pair of three nodes whose mass sits at the first: the table's moments
# about the middle of its split leave a variance at rounding level, from
# which a rule without the one-node test forms a second node far outside
# the pair, clipped to 0.
_FIRST_HEAVY = (np.array([0.0, 0.1, 0.30000000000000004]), np.array([0.54, 0.0, 0.0]),
                0.30000000000000004, 1.0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pairs=st.lists(_pair_measure(), min_size=1, max_size=4),
       lead=st.lists(st.floats(0.0, 1e3), max_size=5),
       trail=st.lists(st.floats(0.0, 1e3), max_size=5))
@example(pairs=[_FIRST_HEAVY], lead=[], trail=[])
def test_pair_gauss_rule(pairs, lead, trail):
    # the sweep's two-node rule, from the table of node moments, for
    # several pairs at once as the plan forms them: finite nodes in [0, 1],
    # weights >= 0 summing to the mass, moments 0-3 reproduced to 1e-10
    # mass width^s (width in z fraction), a pair of one or two nodes
    # reproduced as a measure, and one atom by one node
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes, weights, lams = _pair_rules(pairs, lead, trail)
    for p, ((_, mass, _, lam0), lam) in enumerate(zip(pairs, lams)):
        x, w = nodes[:, p], weights[:, p]
        m0 = float(np.sum(mass))
        width = lam[0] - lam[-1]
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.all(w >= 0.0)
        assert abs(w.sum() - m0) <= 1e-14 * m0 + 1e-320
        for s in range(1, 4):
            got, want = np.sum(w * (x - lam0) ** s), np.sum(mass * (lam - lam0) ** s)
            assert abs(got - want) <= 1e-10 * m0 * width**s + 1e-320, s
        if lam.size == 1:
            assert x[0] == lam[0] and w[0] == mass[0] and w[1] == 0.0
        if lam.size <= 2:
            assert _transport(lam, mass, x, w) <= 1e-13 * m0 + 1e-320
        support = lam[mass > 0.0]
        if support.size == 1:  # (a subnormal mass has no precision to place)
            assert w[1] == 0.0 and m0 * abs(x[0] - support[0]) <= 64 * _EPS * m0 + 1e-320


@pytest.fixture(scope="module")
def causal_map():
    """The README pair's seed on a 129-node grid, its barrier tau_star and
    its converged tau."""
    params = cd.ModelParams(0.5, 0.005)
    seed = cd.seed_profile(params, cd.build_grid(1e6, 129, 0.5))
    return params, seed, cd.derive_constants(params).tau_star, cd.inner_solve(seed, params).tau


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_map_is_causal(causal_map, data):
    # the map is of Volterra type: its image at z_j reads tau on [z_j/2,
    # z_j] only, so tau changed above node j, within [0, cap], leaves the
    # image at the nodes up to j the same in every bit.  inner_solve relies
    # on this to finish a block of rows before it sweeps the next
    params, seed, cap, solved = causal_map
    n = seed.grid.n
    base = data.draw(st.sampled_from((np.full(n, cap), solved.values)))
    j = data.draw(st.integers(1, n - 2))
    moved = base.copy()
    moved[j + 1:] = data.draw(st.lists(st.floats(0.0, cap), min_size=n - 1 - j,
                                       max_size=n - 1 - j))
    before, after = (tau_map(seed, cd.TauFunction(seed.grid, t, slope0=params.linear_coefficient),
                             params).values[:j + 1] for t in (base, moved))
    assert before.tobytes() == after.tobytes()


def test_causality_catches_a_row_base_read_ahead(monkeypatch, causal_map):
    # a mutant whose kernel sums take the row base from c_{j+1} in place of
    # c_j reads tau above z_j, and the property above fails on it
    kernel_sums = grids._PairRule.kernel_sums

    def read_ahead(rule, cum):
        row = np.arange(rule.rows.start + 1, rule.rows.stop + 1)
        return kernel_sums(rule, cum) * np.exp(cum[np.minimum(row + 1, cum.size - 1)] - cum[row])

    monkeypatch.setattr(grids._PairRule, "kernel_sums", read_ahead)
    with pytest.raises(AssertionError):
        test_map_is_causal(causal_map=causal_map)


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
