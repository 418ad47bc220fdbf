"""Command-line interface: solve, verify, threshold, simulate, sweep.

Exit codes are a stable contract: 0 success, 2 usage/domain/malformed input
or an output path that cannot be written, 3 numerical non-convergence,
scheme failure, or a RuntimeWarning that the warning filters raise as an
error (``PYTHONWARNINGS=error::RuntimeWarning``), 4 uncertified forced
output.  ``verify`` additionally exits 1 when a recomputed check fails.
Every failure prints one ``error:`` line; ``_run`` alone maps an error to
its code.  The environment variable COAGDRIFT_OUTDIR supplies the default
output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

from .errors import (
    CoagDriftError,
    ConvergenceError,
    ParameterDomainError,
    ProfileFormatError,
    SchemeFailureError,
    ThresholdExceededError,
)
from .evolution import default_domain_cutoff, init_from_profile, simulate
from .model import ModelParams, admissible_threshold, derive_constants, iteration_barrier
from .profile_io import ProfileRecord, atomic_write_text, read_profile, write_json, write_profile
from .profiles import OuterSolveOptions, certification_checks, outer_solve, recover_tau

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_UNCERTIFIED = 4


def _outdir() -> str:
    return os.environ.get("COAGDRIFT_OUTDIR", ".")


def _profile_path(directory: str, v: float, m0: float) -> str:
    """Default profile CSV of (v, m0) in ``directory``; both numbers are
    written in full (``repr``), so distinct inputs never share a file."""
    return os.path.join(directory, f"profile_v{v!r}_m0{m0!r}.csv")


def _default_paths(args) -> tuple[str, str]:
    out = args.out or _profile_path(_outdir(), args.v, args.m0)
    meta = args.meta or os.path.splitext(out)[0] + ".json"
    return out, meta


# ----------------------------------------------------------------------
# threshold
# ----------------------------------------------------------------------

def cmd_threshold(args) -> int:
    m0_bar = admissible_threshold(args.v)
    print(f"v      = {args.v:.17g}")
    print(f"a_0    = {ModelParams.limiting_tail_exponent(args.v):.17g}")
    print(f"m0_bar = {m0_bar:.17g}")
    if args.m0 is not None:
        try:
            constants = derive_constants(ModelParams(v=args.v, m0=args.m0))
        except ThresholdExceededError:
            print(f"m0     = {args.m0:.17g}  inadmissible (m0 > m0_bar)")
        else:
            print(f"m0         = {args.m0:.17g}")
            print(f"sigma_star = {constants.sigma_star:.17g}")
            print(f"tau_star   = {constants.tau_star:.17g}")
    return EXIT_OK


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def _solve_options(args) -> OuterSolveOptions:
    return OuterSolveOptions(
        zmax=args.zmax,
        nodes=args.nodes,
        tol=args.tol_outer,
        max_outer=args.max_iter,
        tol_inner=args.tol_inner,
        tol_residual=args.tol_residual,
        force=args.force,
    )


def _write_solution(params, opts, F, report, out: str, meta: str) -> None:
    """Write profile F with its recovered tau to ``out`` and the report to
    ``meta``; tau_star is NaN where the barrier is not certified."""
    tau_star, certified = iteration_barrier(params, force=True)
    write_profile(out, ProfileRecord(
        v=params.v,
        m0=params.m0,
        alpha=params.alpha,
        tau_star=tau_star if certified else math.nan,
        tau_inf=params.tau_inf,
        tail_exponent=F.tail_exponent,
        tol_inner=opts.tol_inner,
        tol_outer=opts.tol,
        tol_residual=opts.tol_residual,
        certified=report.certified,
        z=F.grid.nodes,
        F=F.values,
        tau=recover_tau(F).values,
    ))
    write_json(meta, _metadata(params, opts, report))


def _gnuplot_script(csv_path: str) -> str:
    return (
        "set datafile separator ','\n"
        "set logscale xy\n"
        "set xlabel 'z'\n"
        "set ylabel 'F(z)'\n"
        f"plot '{csv_path}' every ::1 using 1:2 with lines title 'profile'\n"
    )


def cmd_solve(args) -> int:
    params = ModelParams(v=args.v, m0=args.m0)
    opts = _solve_options(args)
    out, meta = _default_paths(args)
    try:
        F, report = outer_solve(params, opts)
    except ConvergenceError as exc:
        if exc.best is not None and exc.report is not None:
            _write_solution(params, opts, exc.best, exc.report, out, meta)
            print(f"best iterate written to {out}", file=sys.stderr)
        raise

    _write_solution(params, opts, F, report, out, meta)
    if args.gnuplot:
        atomic_write_text(os.path.splitext(out)[0] + ".gnuplot", _gnuplot_script(out))
    print(f"profile  -> {out}")
    print(f"metadata -> {meta}")
    print(
        f"certified={report.certified} F0={report.F0:.17g} "
        f"residual={report.model_residual_norm:.3e} tail={report.tail_exponent_fit:.5f}"
    )
    if not report.certified:
        return EXIT_UNCERTIFIED
    return EXIT_OK


def _metadata(params: ModelParams, opts: OuterSolveOptions, report) -> dict:
    return {
        "v": params.v,
        "m0": params.m0,
        "zmax": opts.zmax,
        "nodes": opts.nodes,
        "tol_inner": opts.tol_inner,
        "tol_outer": opts.tol,
        "tol_residual": opts.tol_residual,
        "force": opts.force,
        "report": report.to_dict(),
    }


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    record = read_profile(args.profile)
    cert = certification_checks(record.grid_function(), record.params(), record.tol_residual)
    for name, ok, detail in cert.checks:
        print(f"{name:9s}: {'PASS' if ok else 'FAIL'}  {detail}")
    return EXIT_OK if cert.ok else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _write_run(outdir: str, state, diagnostics, snapshots) -> None:
    """Write the diagnostics and one CSV per snapshot, the final (or
    last-good) state included, to ``outdir``, which is made only now, so
    that a run refused up front leaves no directory behind."""
    os.makedirs(outdir, exist_ok=True)
    lines = ["t,m0,m1,u,self_similar_error"]
    for row in diagnostics:
        lines.append(",".join(f"{x:.17g}" for x in row))
    atomic_write_text(os.path.join(outdir, "diagnostics.csv"), "\n".join(lines) + "\n")

    snapshots = dict(snapshots)
    snapshots[state.t] = state
    for t_snap, snap in sorted(snapshots.items()):
        rows = ["x,f"]
        for x, f in zip(snap.centers, snap.f):
            rows.append(f"{x:.17g},{f:.17g}")
        atomic_write_text(
            os.path.join(outdir, f"snapshot_t{t_snap:g}.csv"), "\n".join(rows) + "\n"
        )
    print(f"diagnostics -> {os.path.join(outdir, 'diagnostics.csv')}")


def cmd_simulate(args) -> int:
    record = read_profile(args.profile)
    F = record.grid_function()
    xmax = args.xmax if args.xmax is not None else default_domain_cutoff(F, args.t1)
    state = init_from_profile(F, args.t0, args.cells, xmax, strict=not args.allow_truncation)
    z_window = args.z_window if args.z_window is not None else min(10.0, xmax / args.t1)
    outdir = args.out or _outdir()
    try:
        state, diagnostics, snapshots = simulate(
            state,
            args.t1,
            cfl=args.cfl,
            profile=F,
            z_window=z_window,
            snapshot_times=args.snapshots,
            record_every=args.record_every,
        )
    except SchemeFailureError as exc:
        _write_run(outdir, exc.state, exc.diagnostics, exc.snapshots)
        print("run aborted; last-good state preserved")
        raise
    _write_run(outdir, state, diagnostics, snapshots)
    print(f"final self-similar deviation: {diagnostics[-1][4]:.6e}")
    return EXIT_OK


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def _sweep_worker(payload: dict) -> tuple[float, int, str]:
    ns = argparse.Namespace(**payload)
    return ns.m0, _run(cmd_solve, ns), ns.out


def cmd_sweep(args) -> int:
    jobs = []
    for m0 in args.m0_list:
        payload = dict(vars(args))
        payload.pop("func", None)
        payload.pop("m0_list", None)
        payload.pop("jobs", None)
        payload["m0"] = m0
        payload["out"] = _profile_path(args.out_dir or _outdir(), args.v, m0)
        payload["meta"] = None
        jobs.append(payload)

    workers = args.jobs or min(len(jobs), os.cpu_count() or 1)
    results = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for m0, code, out in pool.map(_sweep_worker, jobs):
            results.append((m0, code, out))
            print(f"m0={m0!r}: exit {code}  ({out})")
    codes = {code for _, code, _ in results}
    for severity in (EXIT_USAGE, EXIT_NUMERICAL, EXIT_UNCERTIFIED):
        if severity in codes:
            return severity
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """Flag type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """Flag type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    """Flag type: comma-separated numbers, empty items skipped."""
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _m0_list(text: str) -> tuple[float, ...]:
    """Flag type: one or more comma-separated masses, each a finite number
    in (0, 1)."""
    values = _float_list(text)
    if not values or not all(0.0 < m0 < 1.0 for m0 in values):
        raise argparse.ArgumentTypeError(f"expected one or more numbers in (0, 1), got {text!r}")
    return values


def _add_solve_flags(parser: argparse.ArgumentParser) -> None:
    default = OuterSolveOptions()
    parser.add_argument("--zmax", type=float, default=default.zmax,
                        help="grid cutoff (default %(default)g)")
    parser.add_argument("--nodes", type=int, default=default.nodes,
                        help="grid nodes (default %(default)d)")
    parser.add_argument("--tol-inner", dest="tol_inner", type=_positive_float,
                        default=default.tol_inner,
                        help="sup-norm of a pair block's last tau sweep (default %(default)g)")
    parser.add_argument("--tol-outer", dest="tol_outer", type=_positive_float, default=default.tol,
                        help="bound on the estimated weighted distance of the outer iterate "
                             "to its fixed point (default %(default)g)")
    parser.add_argument("--tol-residual", dest="tol_residual", type=_positive_float,
                        default=default.tol_residual,
                        help="certification bound on the weighted residual norm")
    parser.add_argument("--max-iter", dest="max_iter", type=_positive_int,
                        default=default.max_outer,
                        help="outer iteration cap")
    parser.add_argument("--force", action="store_true",
                        help="run above the admissibility threshold (uncertified)")
    parser.add_argument("--gnuplot", action="store_true",
                        help="emit a gnuplot script next to the CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coagdrift",
        description="Self-similar profiles for a coagulation model with mean-field drift",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="admissibility threshold and barrier constants")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--m0", type=float, default=None)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("solve", help="solve a fat-tail profile and write CSV + JSON")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--m0", type=float, required=True)
    _add_solve_flags(p)
    p.add_argument("--out", default=None, help="profile CSV path")
    p.add_argument("--meta", default=None, help="metadata JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="recompute checks for a stored profile")
    p.add_argument("profile")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="evolve a profile with the time-dependent model")
    p.add_argument("--profile", required=True)
    p.add_argument("--t0", type=_positive_float, default=1.0)
    p.add_argument("--t1", type=_positive_float, default=2.0)
    p.add_argument("--cells", type=int, default=4096)
    p.add_argument("--xmax", type=_positive_float, default=None,
                   help="domain cutoff (default: 99.9%% volume coverage at t1)")
    p.add_argument("--cfl", type=float, default=0.5)
    p.add_argument("--snapshots", type=_float_list, default=(),
                   help="comma list of snapshot times")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--allow-truncation", action="store_true",
                   help="downgrade the 99.9%% coverage check to a warning")
    p.add_argument("--z-window", dest="z_window", type=_positive_float, default=None)
    p.add_argument("--record-every", dest="record_every", type=_positive_int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="solve several m0 values in parallel")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--m0-list", dest="m0_list", type=_m0_list, required=True)
    _add_solve_flags(p)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: one per m0, at most the CPU count)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        if args.t1 <= args.t0:
            parser.error(f"argument --t1: must exceed --t0 = {args.t0!r}, got {args.t1!r}")
        outside = [t for t in args.snapshots if not args.t0 <= t <= args.t1]
        if outside:
            parser.error(f"argument --snapshots: times {', '.join(map(repr, outside))} "
                         f"lie outside [t0, t1] = [{args.t0!r}, {args.t1!r}]")
    return _run(args.func, args)


def _run(command, args) -> int:
    """Exit code of ``command(args)``: a package error, an unwritable
    output (``OSError``) or a warning that the filters raise as an error is
    mapped to its code and printed as one ``error:`` line; a warning that
    the filters let through prints as one ``warning:`` line."""
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return command(args)
    except ThresholdExceededError as exc:
        print(f"error: {exc}; pass --force for an exploratory, uncertified run",
              file=sys.stderr)
        return EXIT_USAGE
    except (ProfileFormatError, ParameterDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CoagDriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RuntimeWarning as exc:
        print(f"error: a warning was raised as an error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
