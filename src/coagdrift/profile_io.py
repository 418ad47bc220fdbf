"""Profile files: a CSV with commented header metadata, plus JSON reports.

Layout of a profile file::

    # coagdrift-profile 1
    # v = 5e-01
    # m0 = ...            (all floats printed with 17 significant digits)
    ...
    z,F,tau
    0,0.004975...,0
    ...

Floats are written with 17 significant digits, so write-then-read
round-trips bit-exactly.  All writes go through a temp-then-rename step so
concurrent sweeps never expose half-written files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ProfileFormatError
from .grids import Grid, GridFunction
from .model import ModelParams

__all__ = ["ProfileRecord", "write_profile", "read_profile", "write_json", "atomic_write_text"]

_MAGIC = "coagdrift-profile 1"
_COLUMNS = "z,F,tau"

_HEADER_FLOATS = (
    "v",
    "m0",
    "alpha",
    "tau_star",
    "tau_inf",
    "tail_exponent",
    "tol_inner",
    "tol_outer",
    "tol_residual",
)


@dataclass
class ProfileRecord:
    """In-memory image of a profile file."""

    v: float
    m0: float
    alpha: float
    tau_star: float
    tau_inf: float
    tail_exponent: float
    tol_inner: float
    tol_outer: float
    tol_residual: float
    certified: bool
    z: np.ndarray
    F: np.ndarray
    tau: np.ndarray

    def params(self) -> ModelParams:
        return ModelParams(v=self.v, m0=self.m0)

    def grid_function(self) -> GridFunction:
        grid = Grid(nodes=self.z, v=self.v)
        return GridFunction(grid, self.F, tail_exponent=self.tail_exponent)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_profile(path: str, record: ProfileRecord) -> None:
    if not (record.z.size == record.F.size == record.tau.size):
        raise ProfileFormatError("column lengths differ")
    lines = [f"# {_MAGIC}"]
    for key in _HEADER_FLOATS:
        lines.append(f"# {key} = {_fmt(getattr(record, key))}")
    lines.append(f"# certified = {'true' if record.certified else 'false'}")
    lines.append(_COLUMNS)
    # Python floats: formatting a numpy scalar per element costs more
    for z, f, tau in zip(record.z.tolist(), record.F.tolist(), record.tau.tolist()):
        lines.append(f"{z:.17g},{f:.17g},{tau:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _check_header(values: dict[str, float]) -> None:
    """Header values the checks of ``verify`` rely on."""
    if not (0.0 < values["v"] < 1.0) or not (0.0 < values["m0"] < 1.0):
        raise ProfileFormatError("header parameters out of domain")
    for key in ("alpha", "tau_inf"):
        if not math.isfinite(values[key]):
            raise ProfileFormatError(f"header {key} must be finite")
    if not (math.isnan(values["tau_star"]) or 0.0 < values["tau_star"] < math.inf):
        raise ProfileFormatError("tau_star must be positive or nan")
    if not values["tail_exponent"] > 2.0:
        raise ProfileFormatError(
            "tail_exponent must exceed 2 (or be inf) for finite M0 and M1"
        )
    for key in ("tol_inner", "tol_outer", "tol_residual"):
        if not 0.0 < values[key] < math.inf:
            raise ProfileFormatError(f"header {key} must be positive and finite")


def _check_columns(v: float, data: np.ndarray) -> None:
    """Finite samples on a graded z column (uniform in log(1 + (1-v) z))."""
    if data.shape[0] < 2:
        raise ProfileFormatError("a profile needs at least 2 data rows")
    if not np.all(np.isfinite(data)):
        raise ProfileFormatError("data rows hold a non-finite value")
    z = data[:, 0]
    if z[0] != 0.0 or np.any(np.diff(z) <= 0.0):
        raise ProfileFormatError("z column must increase strictly from 0")
    dws = np.diff(np.log1p((1.0 - v) * z))
    if np.max(np.abs(dws - dws[0])) > 1e-9 * dws[0]:
        raise ProfileFormatError("z column is not uniform in log(1 + (1-v) z)")


def _parse_rows(rows: list[list[str]]) -> np.ndarray:
    """The data rows parsed one at a time, to name the first bad one."""
    data = np.empty((len(rows), 3))
    for r, parts in enumerate(rows):
        if len(parts) != 3:
            raise ProfileFormatError(f"row {r} does not have 3 columns")
        try:
            data[r] = [float(p) for p in parts]
        except ValueError as exc:
            raise ProfileFormatError(f"row {r} holds a non-numeric value") from exc
    return data


def read_profile(path: str) -> ProfileRecord:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ProfileFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProfileFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    if not lines or lines[0].strip() != f"# {_MAGIC}":
        raise ProfileFormatError(f"{path} is not a profile file (bad magic line)")

    header: dict[str, str] = {}
    body_start = None
    for i, line in enumerate(lines[1:], start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            try:
                key, value = stripped[1:].split("=", 1)
            except ValueError as exc:
                raise ProfileFormatError(f"bad header line: {line!r}") from exc
            header[key.strip()] = value.strip()
        elif stripped == _COLUMNS:
            body_start = i + 1
            break
        else:
            raise ProfileFormatError(f"unexpected line before column header: {line!r}")
    if body_start is None:
        raise ProfileFormatError("missing column header line")

    values: dict[str, float] = {}
    for key in _HEADER_FLOATS:
        if key not in header:
            raise ProfileFormatError(f"missing header key {key!r}")
        try:
            values[key] = float(header[key])
        except ValueError as exc:
            raise ProfileFormatError(f"bad float for header key {key!r}") from exc
    if header.get("certified") not in ("true", "false"):
        raise ProfileFormatError("missing or bad 'certified' header")
    _check_header(values)

    rows = [line.split(",") for line in lines[body_start:] if line.strip()]
    if not rows:
        raise ProfileFormatError("no data rows")
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        data = None
    if data is None or data.shape[1] != 3:
        data = _parse_rows(rows)  # names the bad row
    _check_columns(values["v"], data)
    return ProfileRecord(
        certified=header["certified"] == "true",
        z=np.ascontiguousarray(data[:, 0]),
        F=np.ascontiguousarray(data[:, 1]),
        tau=np.ascontiguousarray(data[:, 2]),
        **values,
    )


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
