"""coagdrift benchmark: time and check the solve, verify and simulate paths.

    python3 perfbench/run.py --workload solve-default --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separately traced run.  The last
line of standard output is one JSON object; the exit code is 0 only when
every operation passed its checks.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Single-threaded numerics, pinned before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np

from tracing import LAYERS, Tracer, duration, function_name, instrument, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Fresh processes timed from spawn to ready, half before the timed passes
# and half after them, so that they sample the whole run; setup_s is their
# median.
SETUP_PROBES = 6
# Calls per micro-measurement of the gain and drift terms of one step.
STEP_TERM_REPEATS = 100
# Largest share of an operation's wall time that may fall outside every
# traced layer before the trace is declared incomplete.
UNTRACED_SHARE_LIMIT = 0.02


def declared_metrics(key: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, as
    (percentile, nearest-rank value); None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[max(1, math.ceil(p * n / 100)) - 1]


def describe(values: list[float], unit: str) -> str:
    text = f"median {statistics.median(values):.6g} {unit}"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]} {tail[1]:.6g} {unit}"
    return text + f" (n={len(values)})"


def _median(values) -> float:
    """Median, 0 for no values; a median of counts stays a count."""
    values = list(values)
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def setup(workload_name: str, seed: int):
    """Imports, inputs and warm-up: everything before the first timed
    operation."""
    import workloads

    workload = workloads.make_workload(workload_name, seed)
    workdir = os.path.join(OUT, f"work-{workload_name}")
    workloads.warm_up(workload, os.path.join(workdir, "warm-up"))
    return workloads.Runner(workload, workdir)


def time_setup_probe(workload_name: str, seed: int) -> float:
    """Wall time from spawning a fresh benchmark process to its report that
    set-up is done."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
            "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return elapsed


def run_passes(seconds: float, one_pass, min_passes: int = 1) -> None:
    """Call ``one_pass`` until the next call would end after ``seconds``
    (judged by the median pass so far); at least ``min_passes`` times."""
    start = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        one_pass()
        durations.append(time.perf_counter() - t)
        if (len(durations) >= min_passes
                and time.perf_counter() - start + statistics.median(durations) > seconds):
            return


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------

def measure(runner, seed: int, seconds: float) -> dict:
    name = runner.workload.name
    before = SETUP_PROBES // 2
    setup_samples = [time_setup_probe(name, seed) for _ in range(before)]
    ops, pass_s = [], []

    def one_pass():
        results = runner.run_pass()
        ops.extend(results)
        pass_s.append(sum(op.wall_s for op in results))

    run_passes(seconds, one_pass)
    setup_samples += [time_setup_probe(name, seed) for _ in range(SETUP_PROBES - before)]
    return {
        "ops": ops,
        "values": {
            "setup_s": statistics.median(setup_samples),
            "pass_s": statistics.median(pass_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "gate_use": max(op.gate_use for op in ops),
        },
        "samples": {"setup_s": setup_samples, "pass_s": pass_s},
        "problems": [],
    }


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------

def _plan_peak_mb(workload) -> float:
    """Peak traced allocation while building each distinct half-range plan
    of the workload (largest over its grids)."""
    from coagdrift.grids import build_grid

    peak = 0.0
    for v, _ in workload.points:
        tracemalloc.start()
        try:
            build_grid(1e6, workload.nodes, v).half_range_plan()
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return peak


def _step_term_us(runner) -> tuple[float, float]:
    """Median microseconds of step(drift=False) and step(coagulation=False)
    on the workload's initial state, at the step size simulate would take."""
    from coagdrift import evolution

    wl = runner.workload
    if not wl.sim_t1:
        return 0.0, 0.0
    F = runner.sim_profile
    state = evolution.init_from_profile(F, 1.0, wl.cells, evolution.default_domain_cutoff(F, wl.sim_t1))
    speed = float(np.max(np.abs(state.u * state.edges - 1.0)))
    dt = min(0.5 * state.dx / speed, 0.25 / state.m0())
    result = []
    for flags in ({"drift": False}, {"coagulation": False}):
        samples = []
        for _ in range(STEP_TERM_REPEATS):
            start = time.perf_counter()
            evolution.step(state, dt, **flags)
            samples.append(time.perf_counter() - start)
        result.append(statistics.median(samples) * 1e6)
    return result[0], result[1]


class PassCounts:
    """Counts taken from return values at layer boundaries, one pass at a
    time."""

    def __init__(self):
        self._plans = weakref.WeakSet()
        self.reset()

    def reset(self):
        self.sweeps = self.outer_iterations = 0
        self.plan_points = self.plan_bytes = self.bytes_written = 0

    def hooks(self) -> dict:
        return {
            "inner_solve": self._inner,
            "outer_solve": self._outer,
            "half_range_plan": self._plan,
            "write_profile": self._written,
            "write_json": self._written,
        }

    def _inner(self, result, args):
        self.sweeps += result.iterations

    def _outer(self, result, args):
        self.outer_iterations += result[1].outer_iterations

    def _plan(self, plan, args):
        if plan not in self._plans:
            self._plans.add(plan)
            self.plan_points += int(getattr(plan, "size", 0))
            self.plan_bytes += sum(a.nbytes for a in vars(plan).values() if hasattr(a, "nbytes"))

    def _written(self, result, args):
        self.bytes_written += os.path.getsize(args[0])

    def snapshot(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


def layer_metrics(spans: list[list], counts: dict) -> dict:
    """Per-layer figures of one traced pass; ``spans`` hold parent indices
    local to the list."""
    own = self_times(spans)
    names = [function_name(s) for s in spans]

    def durations(fn):
        return [duration(s) for s, name in zip(spans, names) if name == fn]

    outer = {i for i, name in enumerate(names) if name == "outer_solve"}
    certify = {"residual_selfsimilar", "weighted_residual_norm", "tail_exponent_fit",
               "certification_checks"}
    inner_self = sum(t for t, name in zip(own, names) if name == "inner_solve")
    step_us = sorted(d * 1e6 for d in durations("step"))
    m = {f"{layer}.self_s": sum(t for s, t in zip(spans, own) if s[1] == layer)
         for layer in LAYERS}
    m.update({
        "grids.plan_build_s": sum(durations("half_range_plan")),
        "grids.plan_points": counts["plan_points"],
        "grids.plan_bytes": counts["plan_bytes"],
        "grids.sample_on_plan_s": sum(durations("sample_on_plan")),
        "grids.half_conv_s": sum(durations("half_convolution_at_nodes")),
        "grids.cum_log_integral_calls": len(durations("cumulative_log_integral")),
        "tau_iteration.sweeps": counts["sweeps"],
        "tau_iteration.sweep_ms": inner_self / counts["sweeps"] * 1e3 if counts["sweeps"] else 0.0,
        "tau_iteration.reconstruct_s": sum(durations("reconstruct_profile")),
        "profiles.outer_iterations": counts["outer_iterations"],
        "profiles.residual_calls": len(durations("residual_selfsimilar")),
        "profiles.certify_s": sum(duration(s) for s, name in zip(spans, names)
                                  if name in certify and s[4] in outer),
        "profile_io.write_s": sum(durations("write_profile")) + sum(durations("write_json")),
        "profile_io.read_s": sum(durations("read_profile")),
        "profile_io.bytes_written": counts["bytes_written"],
        "evolution.steps": len(step_us),
        "evolution.step_us_p50": _median(step_us),
        "evolution.step_us_p99": step_us[math.ceil(0.99 * len(step_us)) - 1] if step_us else 0.0,
        "evolution.diag_row_us": _median(d * 1e6 for d in durations("self_similar_error")),
        "evolution.diag_rows": len(durations("self_similar_error")),
    })
    return m


def check_accounting(spans: list[list]) -> list[str]:
    """Each operation (a root span) must be covered by its layers: at most
    UNTRACED_SHARE_LIMIT of its wall time falls outside every layer."""
    own = self_times(spans)
    problems = []
    for r, span in enumerate(spans):
        if span[4] >= 0:
            continue
        wall = duration(span)
        if own[r] > UNTRACED_SHARE_LIMIT * wall:
            problems.append(f"{span[0]}: {own[r] / wall:.1%} of its wall time is in no layer")
    return problems


def _local(spans: list[list], base: int) -> list[list]:
    """Copy of ``spans`` (which start at global index ``base``) with parent
    indices made local."""
    return [[*s[:4], s[4] - base if s[4] >= base else -1] for s in spans]


# Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("tau_iteration.sweeps", "profiles.outer_iterations",
                "grids.plan_points", "evolution.steps")


def trace_measure(runner, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer metrics are medians
    over the traced passes, tracing overhead is traced minus untraced wall
    time of the same operation."""
    tracer = Tracer()
    counts = PassCounts()
    plan_peak_mb = _plan_peak_mb(runner.workload)
    passes = []
    unwrapped: list[str] = []

    def traced_pass():
        counts.reset()
        base = len(tracer.spans)
        with instrument(tracer, counts.hooks()) as missing:
            ops = runner.run_pass(span=lambda kind: tracer.span(f"op:{kind}", "bench"))
        unwrapped[:] = missing
        return ops, counts.snapshot(), base, len(tracer.spans)

    def one_pair():
        # alternate which side goes first, so neither always pays for the
        # process's first full-size pass
        if len(passes) % 2:
            traced, *rest = traced_pass()
            plain = runner.run_pass()
        else:
            plain = runner.run_pass()
            traced, *rest = traced_pass()
        passes.append((plain, traced, *rest))

    run_passes(seconds, one_pair, min_passes=2)  # two, so EXACT_COUNTS are compared
    gain_us, drift_us = _step_term_us(runner)

    problems, per_pass = [], []
    for _, _, pass_counts, base, end in passes:
        spans = _local(tracer.spans[base:end], base)
        problems += check_accounting(spans)
        per_pass.append(layer_metrics(spans, pass_counts))
    for key in EXACT_COUNTS:
        if len({m[key] for m in per_pass}) > 1:
            problems.append(f"{key} differs between passes: {[m[key] for m in per_pass]}")
    metrics = {key: _median(m[key] for m in per_pass) for key in per_pass[0]}

    def walls(kind, which):
        return [op.wall_s for p in passes for op in p[which] if op.kind == kind]

    def overhead(kind):
        return _median(t.wall_s - u.wall_s for p in passes
                       for u, t in zip(p[0], p[1]) if u.kind == kind)

    metrics.update({
        "grids.plan_peak_mb": plan_peak_mb,
        "evolution.gain_us": gain_us,
        "evolution.drift_us": drift_us,
        "cli.solve_s": _median(walls("solve", 0)),
        "cli.verify_s": _median(walls("verify", 0)),
        "evolution.simulate_s": _median(walls("simulate", 0)),
        "trace.overhead_solve_s": overhead("solve"),
        "trace.overhead_simulate_s": overhead("simulate"),
    })
    trace_file = {
        "unwrapped": unwrapped,
        "passes": [{"counts": c, "spans": [[s[0], s[1], s[2] - tracer.spans[0][2], s[3] - s[2], s[4]]
                                          for s in _local(tracer.spans[b:e], b)]}
                   for _, _, c, b, e in passes],
    }
    return {
        "ops": [op for p in passes for op in p[0] + p[1]],
        "values": metrics,
        "samples": {"layers_per_pass": per_pass},
        "problems": problems,
        "trace": trace_file,
    }


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

ACCURACY = ("f0_rel_err", "residual_w", "tail_rel_err", "m1_rel_err",
            "self_similar_err", "m1_rel_drift")


def summary_lines(result: dict) -> list[str]:
    ops = result["ops"]
    lines = []
    for name, metric in result["metrics"].items():
        value = metric["value"]
        samples = result["samples"].get(name)
        if samples:
            text = describe(samples, metric["unit"])
        else:
            text = f"{value if isinstance(value, int) else format(value, '.6g')} {metric['unit']}"
        lines.append(f"  {name:32s} {text}")
    for kind in ("solve", "verify", "simulate"):
        walls = [op.wall_s for op in ops if op.kind == kind]
        if walls:
            lines.append(f"  {kind + '_s':32s} {describe(walls, 's')}")
    for key in ACCURACY:
        values = [op.outputs[key] for op in ops if key in op.outputs]
        if values:
            lines.append(f"  {key:32s} {max(values):.6g} (largest of {len(values)})")
    failed = [op for op in ops if not op.ok]
    lines.append(f"  {'ops_failed':32s} {len(failed)} count of {len(ops)} attempted")
    seen = set()
    for op in ops:
        if op.outputs and op.label not in seen:
            seen.add(op.label)
            shown = ", ".join(f"{k}={v:.10g}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in op.outputs.items())
            lines.append(f"  output {op.kind} {op.label}: {shown}")
    for op in failed:
        lines.append(f"  FAILED {op.kind} {op.label}: {op.detail}")
    for problem in result["problems"]:
        lines.append(f"  PROBLEM {problem}")
    return lines


def final_line(result: dict, units: dict[str, str]) -> dict:
    """The result object: metrics named and ordered as BENCHMARK.json
    declares them (a missing or extra metric is a problem), and the
    operation counts."""
    values = result["values"]
    if set(values) != set(units):
        result["problems"].append(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    failed = sum(1 for op in result["ops"] if not op.ok)
    return {"correct": failed == 0 and not result["problems"], "attempted": len(result["ops"]),
            "failed": failed, "metrics": result["metrics"]}


def environment() -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="solve-default, solve-fine or simulate-exp")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coagdrift", "__init__.py")):
        print(f"error: {SRC} holds no coagdrift package; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    runner = setup(args.workload, args.seed)
    import coagdrift

    if not os.path.abspath(coagdrift.__file__).startswith(SRC + os.sep):
        print(f"error: imported coagdrift from {coagdrift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        result = trace_measure(runner, args.seconds)
    else:
        result = measure(runner, args.seed, args.seconds)
    line = final_line(result, declared_metrics("per_layer" if args.trace else "end_to_end"))
    ops, correct = result["ops"], line["correct"]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(), "correct": correct, "metrics": result["metrics"],
        "samples": result["samples"], "problems": result["problems"],
        "ops": [vars(op) for op in ops],
    }
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    if "trace" in result:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w") as handle:
            json.dump(result["trace"], handle)

    print(f"coagdrift benchmark {stem}: " + ", ".join(f"{k}={v}" for k, v in environment().items()))
    print("\n".join(summary_lines(result)))
    print(f"  details -> {os.path.relpath(os.path.join(OUT, 'result-' + stem + '.json'), ROOT)}")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
