"""Command-line surface: config ingestion, solver/verifier/simulator
subcommands, CSV/JSON emission with re-run manifests, optional SVG plots.

Each cmd_* returns (exit code, stdout document, files) and does no I/O;
`main` alone reads the config, writes the files, prints and maps every
error to an exit code: 0 success, 1 mathematical or verification failure,
2 user input error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .control import (MAX_BOUNDARY_GRID, U_report, _boundary_table,
                      from_stopping, single_regime_boundary, solve_control,
                      verify_hjb)
from .control import U as U_value
from .errors import (AssumptionViolated, OutOfRange, SolverError,
                     VerificationFailed)
from .mcsim import (Policy, SimConfig, estimate_value, simulate_traces,
                    trace_to_csv)
from .model import (_count, check_assumptions, feasibility_scan,
                    params_from_config)
from .stopping import solve_z, verify_fbp, x_star

EXIT_OK, EXIT_MATH, EXIT_USER, EXIT_IO = 0, 1, 2, 3
MAX_SCAN_STEPS = 1000   # scan-region builds its steps^2 CSV lines in memory


def _load_params(path):
    """The parameters of the config file at path and the file's sha256;
    OutOfRange if it cannot be read, decoded or made into parameters."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise OutOfRange(f"cannot read config {path!r}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise OutOfRange(f"config {path!r} is not valid JSON at byte offset "
                         f"{exc.pos}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise OutOfRange(f"config {path!r} is not UTF-8 at byte offset "
                         f"{exc.start}") from exc
    try:
        return params_from_config(cfg), hashlib.sha256(raw).hexdigest()
    except SolverError as exc:
        raise OutOfRange(f"invalid parameters: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise OutOfRange(f"malformed config: {exc}") from exc


def _emit(doc) -> None:
    """Write doc to stdout: text as it is, anything else as JSON (never
    NaN or infinity)."""
    sys.stdout.write(doc if isinstance(doc, str)
                     else json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _write_files(args, cfg_hash, files, t0) -> None:
    """Write files (path -> text) as given, then, for a command with
    --out, its re-run record next to args.out: the options are the parsed
    arguments, the config being named by its hash."""
    if hasattr(args, "out"):   # simulate's --trace-out gets no manifest
        options = {k: v for k, v in vars(args).items()
                   if k not in ("command", "config", "func")}
        manifest = {
            "tool": "regime-extract",
            "version": __version__,
            "subcommand": args.command,
            "config_sha256": cfg_hash,
            "options": options,
            "outputs": list(files),
            "wall_clock_s": round(time.time() - t0, 6),
        }
        files = {**files, args.out + ".manifest.json":
                 json.dumps(manifest, indent=2) + "\n"}
    for path, text in files.items():
        with open(path, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------

def cmd_check(args, params):
    report = check_assumptions(params, eps=args.eps)
    out = report.to_dict()
    out["case"] = "B" if report.case_b else (
        "conditions_met" if report.all_ok else "conditions_failed")
    return (EXIT_OK if report.all_ok else EXIT_MATH), out, None


def cmd_solve(args, params):
    try:
        sol = solve_z(params)
    except AssumptionViolated as exc:
        return EXIT_MATH, {"error": "AssumptionViolated", "detail": str(exc),
                           "report": exc.report.to_dict() if exc.report
                           else None}, None
    rt = sol.roots
    return EXIT_OK, {
        "case": sol.case,
        "z1": sol.z1,
        "z2": sol.z2,
        "zhat2": sol.zhat2,
        "alpha": [-rt.alpha4, -rt.alpha3, rt.alpha3, rt.alpha4, rt.alpha5],
        "a": [rt.a1, rt.a2, rt.a3, rt.a4],
        "relabeled": sol.relabeled,
        "residuals": {"G1": sol.g1_residual, "G2": sol.g2_residual},
    }, None


def cmd_boundary(args, params):
    _count("--grid", args.grid, 2, MAX_BOUNDARY_GRID)
    cs = solve_control(params)
    sol = cs.stopping
    t = _boundary_table(cs, args.grid)
    rows = np.column_stack([t.x, t.b_star_1, t.b_star_2, t.b_sharp_1,
                            t.b_sharp_2])
    ys = np.linspace(0.0, 1.0, args.grid)
    rows_y = np.column_stack([
        ys, x_star(sol, 1, ys), x_star(sol, 2, ys),
        single_regime_boundary(params, params.sigma1, ys),
        single_regime_boundary(params, params.sigma2, ys)])
    files = {
        args.out: _csv(["x", "b1_star", "b2_star",
                        "bhash_sigma1", "bhash_sigma2"], rows),
        _suffixed(args.out, "_y"): _csv(["y", "x1_star", "x2_star",
                                         "xhash_sigma1", "xhash_sigma2"],
                                        rows_y)}
    if args.svg:
        files[args.out + ".svg"] = _svg_curves(
            t.x, rows[:, 1:],
            ["b1_star", "b2_star", "bhash_sigma1", "bhash_sigma2"])
    return EXIT_OK, None, files


def cmd_value(args, params):
    cs = solve_control(params)
    return EXIT_OK, U_report(cs, args.x, args.y, args.regime).to_dict(), None


def cmd_verify(args, params):
    sol = solve_z(params)
    try:
        fbp = [rep.to_dict() for rep in verify_fbp(
            sol, [k/10.0 for k in range(1, 10)], n_points=args.fbp_points)]
        hjb = verify_hjb(from_stopping(sol), nx=args.hjb_nx,
                         ny=args.hjb_ny).to_dict()
    except VerificationFailed as exc:
        return EXIT_MATH, {"status": "fail", "detail": str(exc),
                           "report": exc.report.to_dict() if exc.report
                           else None}, None
    return EXIT_OK, {"status": "pass",
                     "worst_fbp_ode": max(r["worst_ode"] for r in fbp),
                     "worst_fbp_c1": max(r["worst_c1"] for r in fbp),
                     "worst_hjb": hjb["worst_max_abs"], "fbp": fbp,
                     "hjb": hjb}, None


def cmd_simulate(args, params):
    cs = solve_control(params)
    try:
        policy = Policy(args.policy)
        sim = SimConfig(dt=args.dt, horizon=args.horizon, n_paths=args.paths,
                        base_seed=args.seed, antithetic=not args.no_antithetic)
        outcome = estimate_value(cs, args.x, args.y, args.regime, policy, sim)
    except SolverError as exc:
        raise OutOfRange(f"invalid simulation parameters: {exc}") from exc
    out, files = outcome.to_dict(), None
    if args.policy == "reflect_optimal":
        out["u_value"] = uval = U_value(cs, args.x, args.y, args.regime)
        out["abs_diff_vs_u"] = abs(outcome.mean - uval)
    if args.trace_out:   # one path: the only one the CSV holds
        trace = simulate_traces(cs, args.x, args.y, args.regime, policy,
                                replace(sim, antithetic=False), 1)
        text = io.StringIO()
        trace_to_csv(trace, text)
        files = {args.trace_out: text.getvalue()}
        out["trace_out"] = args.trace_out
    return EXIT_OK, out, files


def cmd_scan_region(args):
    try:
        s1_lo, s1_hi = (float(t) for t in args.sigma1_range.split(":"))
        s2_lo, s2_hi = (float(t) for t in args.sigma2_range.split(":"))
    except ValueError:
        raise OutOfRange("ranges must look like LO:HI") from None
    if s1_hi < s1_lo or s2_hi < s2_lo:
        raise OutOfRange("ranges must have LO <= HI")
    _count("--steps", args.steps, 1, MAX_SCAN_STEPS)
    with np.errstate(all="ignore"):   # feasibility_scan refuses NaN ends
        s1 = np.linspace(s1_lo, s1_hi, args.steps)
        s2 = np.linspace(s2_lo, s2_hi, args.steps)
    try:
        feas, caseb = feasibility_scan(args.rho, args.lambda1, args.lambda2,
                                       s1, s2)
    except SolverError as exc:
        raise OutOfRange(f"invalid scan parameters: {exc}") from exc
    lines = ["sigma1,sigma2,feasible,case_b"]
    for j2, v2 in enumerate(s2):
        for j1, v1 in enumerate(s1):
            lines.append(f"{float(v1)!r},{float(v2)!r},{int(feas[j2, j1])},"
                         f"{int(caseb[j2, j1])}")
    text = "\n".join(lines) + "\n"
    if not args.out:
        return EXIT_OK, text, None
    files = {args.out: text}
    if args.svg:
        files[args.out + ".svg"] = _svg_raster(s1, s2, feas)
    return EXIT_OK, None, files


# ---------------------------------------------------------------------------

def _suffixed(path: str, suffix: str) -> str:
    if path.endswith(".csv"):
        return path[:-4] + suffix + ".csv"
    return path + suffix


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(repr(float(vv)) for vv in row) for row in rows]
    return "\n".join(lines) + "\n"


def _svg_curves(xs, curves, names, width=640, height=420) -> str:
    x0, x1 = float(xs[0]), float(xs[-1])
    pad = 50
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect x="{pad}" y="{pad}" width="{width-2*pad}" '
             f'height="{height-2*pad}" fill="none" stroke="black"/>']

    def sx(v):
        return pad + (v - x0)/(x1 - x0)*(width - 2*pad)

    def sy(v):
        return height - pad - v*(height - 2*pad)

    for curve, name, color in zip(curves.T, names, colors):
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(v)):.2f}"
                       for x, v in zip(xs, curve))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    for j, (name, color) in enumerate(zip(names, colors)):
        parts.append(f'<text x="{pad+8}" y="{pad+16+14*j}" fill="{color}" '
                     f'font-size="12">{name}</text>')
    parts.append(f'<text x="{width//2}" y="{height-12}" font-size="12" '
                 f'text-anchor="middle">x</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_raster(s1, s2, feasible, width=560, height=560) -> str:
    pad = 50
    n1, n2 = s1.size, s2.size
    cw = (width - 2*pad)/n1
    ch = (height - 2*pad)/n2
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    for j2 in range(n2):
        for j1 in range(n1):
            if feasible[j2, j1]:
                x = pad + j1*cw
                y = height - pad - (j2 + 1)*ch
                parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" '
                             f'width="{cw:.2f}" height="{ch:.2f}" '
                             f'fill="#999999"/>')
    parts.append(f'<rect x="{pad}" y="{pad}" width="{width-2*pad}" '
                 f'height="{height-2*pad}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{width//2}" y="{height-12}" font-size="12" '
                 f'text-anchor="middle">sigma1</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: each parse makes a new
    namespace, so every in-process `main` call can share it."""
    ap = argparse.ArgumentParser(
        prog="regime-extract",
        description="Two-regime optimal extraction: solve, verify, simulate.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="JSON parameter file")
        return p

    p = with_config(sub.add_parser("check", help="evaluate feasibility conditions"))
    p.add_argument("--eps", type=float, default=0.0,
                   help="margin added to strict inequalities")
    p.set_defaults(func=cmd_check)

    p = with_config(sub.add_parser("solve", help="solve the smooth-fit system"))
    p.set_defaults(func=cmd_solve)

    p = with_config(sub.add_parser("boundary", help="emit boundary CSVs"))
    p.add_argument("--grid", type=int, default=400)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_boundary)

    p = with_config(sub.add_parser("value", help="value and derivatives at a state"))
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--regime", type=int, required=True)
    p.set_defaults(func=cmd_value)

    p = with_config(sub.add_parser("verify", help="free-boundary and HJB checks"))
    p.add_argument("--fbp-points", type=int, default=10000)
    p.add_argument("--hjb-nx", type=int, default=400)
    p.add_argument("--hjb-ny", type=int, default=50)
    p.set_defaults(func=cmd_verify)

    p = with_config(sub.add_parser("simulate", help="Monte Carlo policy value"))
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--regime", type=int, required=True)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--seed", type=int, default=20_240_601)
    p.add_argument("--policy", default="reflect_optimal")
    p.add_argument("--no-antithetic", action="store_true")
    p.add_argument("--trace-out", default=None,
                   help="dump one traced path to CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan-region", help="feasibility raster over volatilities")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--sigma1-range", required=True, metavar="LO:HI")
    p.add_argument("--sigma2-range", required=True, metavar="LO:HI")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_scan_region)
    return ap


def main(argv=None) -> int:
    """Parse argv, run the subcommand on the checked config, write its
    files, emit its stdout document and map every error that escapes to
    an exit code: the one place the CLI does I/O."""
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        if args.command == "scan-region":
            cfg_hash, (code, doc, files) = None, args.func(args)
        else:
            params, cfg_hash = _load_params(args.config)
            code, doc, files = args.func(args, params)
        if files:
            _write_files(args, cfg_hash, files, t0)
        if doc is not None:
            _emit(doc)
        return code
    except BrokenPipeError:
        # the reader closed stdout (`... | head -1`): exit quietly, with
        # stdout on devnull so that the flush at exit cannot fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):   # not a file
            return EXIT_IO
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_IO
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    except OutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
