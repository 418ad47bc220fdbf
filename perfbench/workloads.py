"""Workloads: seeded inputs and the checked operations they run.

An operation is one call of a public entry point, timed from outside:

* ``solve``   -- ``cli.main(["solve", ...])`` with CLI defaults except
  ``--nodes`` and the output paths;
* ``verify``  -- ``cli.main(["verify", <csv>])`` on the file just written;
* ``simulate`` -- the library calls ``cmd_simulate`` makes:
  ``default_domain_cutoff``, ``init_from_profile`` and
  ``simulate(..., profile=F, record_every=1)``, with the default convolution.

Every operation is checked after its timed interval; a check that fails
marks the operation failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import time

import numpy as np

from coagdrift import cli, evolution
from coagdrift.grids import build_grid
from coagdrift.model import admissible_threshold
from coagdrift.profiles import exponential_grid_function

NAMES = ("solve-default", "solve-fine", "simulate-exp")

# Certification gates of the solver (profiles.CERT_* and the CLI default
# --tol-residual), restated here so that a change to the program cannot
# loosen the benchmark's own checks.
F0_GATE = 1e-6
RESIDUAL_GATE = 1e-5
TAIL_GATE = 1e-2
M1_GATE = 5e-3

# Fixed reference bounds of simulate-exp against the closed form.  At this
# commit the run ends with a self-similar error of 2.7e-4 and a first-moment
# drift of 7.0e-4 (outflow through both ends of the domain).
SELF_SIMILAR_GATE = 5e-4
M1_DRIFT_GATE = 2e-3

# Drift parameter of the exponential family that simulate-exp evolves.
SIM_V = 0.5

# Seeded jitter of the solve points: v by up to +-V_JITTER, m0/m0_bar by up
# to +-FRACTION_JITTER around 1/2.  Every point in this box certifies at the
# default grid (scanned v +-0.01, m0/m0_bar 0.48..0.52), and the accuracy
# figures move by about 2% across it.
V_JITTER = 0.002
FRACTION_JITTER = 0.005

README_POINT = (0.5, 0.005)


@dataclasses.dataclass(frozen=True)
class Workload:
    """Inputs of one workload; a pass runs every operation once."""

    name: str
    points: tuple[tuple[float, float], ...] = ()  # (v, m0) for solve + verify
    nodes: int = 2049
    sim_t1: float = 0.0  # 0: no simulate operation
    cells: int = 4096


def _half_threshold_point(rng: random.Random, v: float) -> tuple[float, float]:
    v = v + rng.uniform(-V_JITTER, V_JITTER)
    fraction = 0.5 + rng.uniform(-FRACTION_JITTER, FRACTION_JITTER)
    return v, fraction * admissible_threshold(v)


def make_workload(name: str, seed: int) -> Workload:
    """Inputs of ``name`` drawn from ``seed``; the same seed gives the same
    inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "solve-default":
        points = (_half_threshold_point(rng, 0.3), README_POINT, _half_threshold_point(rng, 0.7))
        return Workload(name, points=points, nodes=2049)
    if name == "solve-fine":
        return Workload(name, points=(README_POINT,), nodes=4097)
    if name == "simulate-exp":
        # about 670 steps of the 4096-cell run, ~2.6 s at the direct convolution
        return Workload(name, sim_t1=1.2 * (1.0 + rng.uniform(-0.002, 0.002)))
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")


@dataclasses.dataclass
class OpResult:
    kind: str
    label: str
    wall_s: float
    ok: bool
    detail: str = ""
    outputs: dict = dataclasses.field(default_factory=dict)
    gate_use: float = 0.0


def _call(fn, *args):
    """Wall time, result and error text of one call.  An exception is a
    failed operation, not a crashed run."""
    start = time.perf_counter()
    try:
        result, error = fn(*args), ""
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


def _cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check(op: OpResult, check, *args) -> None:
    """Run ``check(op, *args)``, which records outputs on ``op`` and returns
    the failed gates; any failure, or an exception, fails the operation."""
    try:
        failures = check(op, *args)
    except Exception as exc:
        failures = [f"check raised {type(exc).__name__}: {exc}"]
    if failures:
        op.ok = False
        op.detail = "; ".join(failures)


def _read_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """z and F columns of a profile CSV, parsed without the package."""
    with open(path) as handle:
        rows = [line for line in handle if line.strip() and not line.startswith("#")]
    data = np.array([[float(x) for x in line.split(",")] for line in rows[1:]])
    return data[:, 0], data[:, 1]


def _tail_exponent(z: np.ndarray, F: np.ndarray) -> float:
    """Least-squares power of F over the top two decades of z."""
    sel = (z >= z[-1] / 100.0) & (z > 0.0) & (F > 0.0)
    slope, _ = np.polyfit(np.log(z[sel]), np.log(F[sel]), 1)
    return float(-slope)


class Runner:
    """Runs the passes of one workload and checks every output."""

    def __init__(self, workload: Workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.hashes: dict[str, str] = {}
        if workload.sim_t1:
            grid = build_grid(1e6, 2049, SIM_V)
            self.sim_profile = exponential_grid_function(SIM_V, grid)

    def run_pass(self, span=None) -> list[OpResult]:
        """Every operation of the workload once.  ``span(kind)`` gives the
        context each operation runs in; the traced run records a root span
        there."""
        span = span or (lambda kind: contextlib.nullcontext())
        results: list[OpResult] = []
        for i, (v, m0) in enumerate(self.workload.points):
            label = f"v={v:.6g} m0={m0:.6g} nodes={self.workload.nodes}"
            csv = os.path.join(self.workdir, f"point{i}.csv")
            meta = os.path.join(self.workdir, f"point{i}.json")
            solve = self._cli_op("solve", label, span, [
                "solve", "--v", repr(v), "--m0", repr(m0),
                "--nodes", str(self.workload.nodes), "--out", csv, "--meta", meta])
            verify = self._cli_op("verify", label, span, ["verify", csv])
            if solve.ok:
                _check(solve, self._check_profile, csv, meta, v, m0)
            results += [solve, verify]
        if self.workload.sim_t1:
            results.append(self._simulate(span))
        return results

    @staticmethod
    def _cli_op(kind: str, label: str, span, argv: list[str]) -> OpResult:
        with span(kind):
            wall, result, error = _call(_cli, argv)
        if not error and result[0] != 0:
            error = f"exit {result[0]}: {result[1].strip()}"
        return OpResult(kind, label, wall, not error, error)

    def _check_profile(self, op: OpResult, csv: str, meta: str, v: float, m0: float) -> list[str]:
        with open(csv, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        with open(meta) as handle:
            report = json.load(handle)["report"]
        z, F = _read_csv(csv)
        tau_inf = (2.0 - v) / (1.0 - v)
        f0_target = m0 * (1.0 - m0)
        m1_target = m0 / v
        tail = _tail_exponent(z, F)
        errors = {
            "f0_rel_err": abs(F[0] - f0_target) / f0_target,
            "residual_w": report["model_residual_norm"],
            "tail_rel_err": abs(tail - tau_inf) / tau_inf,
            "m1_rel_err": abs(report["M1"] - m1_target) / m1_target,
        }
        gates = {"f0_rel_err": F0_GATE, "residual_w": RESIDUAL_GATE,
                 "tail_rel_err": TAIL_GATE, "m1_rel_err": M1_GATE}
        op.outputs = {
            "F0": float(F[0]), "M1": report["M1"], "residual_w": report["model_residual_norm"],
            "tail_fit": report["tail_exponent_fit"], "tail_fit_csv": tail,
            "sweeps": report["inner_iterations_total"],
            "outer_iterations": report["outer_iterations"],
            "csv_sha256": digest, **errors,
        }
        op.gate_use = max(errors[k] / gates[k] for k in gates)
        failures = [f"{k}={errors[k]:.3e} > {gates[k]:.0e}"
                    for k in gates if not errors[k] <= gates[k]]
        if report["certified"] is not True:
            failures.append("report says uncertified")
        if self.hashes.setdefault(op.label, digest) != digest:
            failures.append("CSV differs from the previous pass (nondeterministic)")
        return failures

    def _simulate_once(self):
        wl, F = self.workload, self.sim_profile
        xmax = evolution.default_domain_cutoff(F, wl.sim_t1)
        state = evolution.init_from_profile(F, 1.0, wl.cells, xmax)
        final, diagnostics, _ = evolution.simulate(
            state, wl.sim_t1, profile=F, z_window=min(10.0, xmax / wl.sim_t1), record_every=1
        )
        return xmax, final, diagnostics

    def _simulate(self, span) -> OpResult:
        wl = self.workload
        label = f"v={SIM_V:g} t1={wl.sim_t1:.6g} cells={wl.cells}"
        with span("simulate"):
            wall, result, error = _call(self._simulate_once)
        op = OpResult("simulate", label, wall, not error, error)
        if op.ok:
            _check(op, self._check_simulation, *result)
        return op

    def _check_simulation(self, op: OpResult, xmax, final, diagnostics) -> list[str]:
        t1 = self.workload.sim_t1
        t_end, _, m1_end, _, sse = diagnostics[-1]
        m1_start = diagnostics[0][2]
        drift = abs(m1_end - m1_start) / m1_start
        digest = hashlib.sha256(np.ascontiguousarray(final.f).tobytes()).hexdigest()
        op.outputs = {
            "self_similar_err": sse, "m1_rel_drift": drift, "steps": len(diagnostics) - 1,
            "xmax": xmax, "state_sha256": digest,
        }
        op.gate_use = max(sse / SELF_SIMILAR_GATE, drift / M1_DRIFT_GATE)
        failures = []
        if t_end != t1 or final.t != t1:
            failures.append(f"run ended at t={final.t!r}, not t1")
        if not sse <= SELF_SIMILAR_GATE:
            failures.append(f"self_similar_err={sse:.3e} > {SELF_SIMILAR_GATE:.0e}")
        if not drift <= M1_DRIFT_GATE:
            failures.append(f"m1_rel_drift={drift:.3e} > {M1_DRIFT_GATE:.0e}")
        if not (np.all(np.isfinite(final.f)) and np.all(final.f >= 0.0)):
            failures.append("final state has negative or non-finite cells")
        if self.hashes.setdefault(op.label, digest) != digest:
            failures.append("final state differs from the previous pass (nondeterministic)")
        return failures


def warm_up(workload: Workload, workdir: str) -> None:
    """Run every code path of the workload once at a small size, so lazy
    set-up is done before timing.  Outcomes are not checked here."""
    small = dataclasses.replace(
        workload,
        points=((0.7, 0.5 * admissible_threshold(0.7)),) if workload.points else (),
        nodes=513,
        sim_t1=1.01 if workload.sim_t1 else 0.0,
        cells=256,
    )
    Runner(small, workdir).run_pass()
