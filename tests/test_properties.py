"""Property tests of the command line and the profile reader; skipped where
hypothesis is absent."""

import math

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


def _mutate(data: bytes, edits) -> bytes:
    """Apply byte, line, header and cell edits to a profile file."""
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
        else:
            _, row, col, value = edit
            rows = [i for i, line in enumerate(lines) if line.count(b",") == 2]
            if rows:
                i = rows[row % len(rows)]
                cells = lines[i].split(b",")
                cells[col] = value.encode("utf-8", "surrogatepass")
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


@settings(max_examples=400, derandomize=True, deadline=None)
@given(base=st.integers(0, 1),
       edits=st.lists(st.one_of(_BYTE_EDIT, _LINE_EDIT, _HEADER_EDIT, _CELL_EDIT),
                      min_size=1, max_size=3))
def test_mutated_profile_is_read_or_rejected(tmp_path_factory, profile_bytes, base, edits):
    # a mutated file either reads back or raises ProfileFormatError, and
    # verify answers it with 0 (pass), 1 (a check fails) or 2 (malformed)
    path = tmp_path_factory.mktemp("mut") / "p.csv"
    path.write_bytes(_mutate(profile_bytes[base], edits))
    try:
        read_profile(str(path))
    except ProfileFormatError:
        pass
    assert main(["verify", str(path)]) in (0, 1, 2)
