"""Property tests of the command line; skipped where hypothesis is absent."""

import pytest

import coagdrift as cd
from coagdrift.cli import main

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
