"""Command-line surface: config ingestion, solver/verifier/simulator
subcommands, CSV/JSON emission with re-run manifests, optional SVG plots.

Exit codes: 0 success, 1 mathematical or verification failure, 2 user
input error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .control import (U_report, b_sharp, b_star, from_stopping,
                      single_regime_boundary, verify_hjb)
from .control import U as U_value
from .errors import (AssumptionViolated, OutOfRange, SolverError,
                     VerificationFailed)
from .mcsim import (Policy, SimConfig, estimate_value, simulate_traces,
                    trace_to_csv)
from .model import check_assumptions, feasibility_scan, params_from_config
from .stopping import perturbed, solve_z, verify_fbp, x_star

EXIT_OK, EXIT_MATH, EXIT_USER, EXIT_IO = 0, 1, 2, 3
MAX_SCAN_STEPS = 1000   # scan-region builds its steps^2 CSV lines in memory


def _load_config(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read config {path!r}: {exc}", file=sys.stderr)
        return None, None
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        print(f"error: config {path!r} is not valid JSON at byte offset "
              f"{exc.pos}: {exc.msg}", file=sys.stderr)
        return None, None
    except UnicodeDecodeError as exc:
        print(f"error: config {path!r} is not UTF-8 at byte offset "
              f"{exc.start}", file=sys.stderr)
        return None, None
    return cfg, hashlib.sha256(raw).hexdigest()


def _params_or_none(cfg):
    try:
        return params_from_config(cfg)
    except SolverError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed config: {exc}", file=sys.stderr)
    return None


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, allow_nan=False))


def _write_manifest(args, cfg_hash, outputs, t0):
    """Re-run record next to args.out; the options are the parsed
    arguments, the config being named by its hash."""
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "config", "func")}
    manifest = {
        "tool": "regime-extract",
        "version": __version__,
        "subcommand": args.command,
        "config_sha256": cfg_hash,
        "options": options,
        "outputs": outputs,
        "wall_clock_s": round(time.time() - t0, 6),
    }
    path = str(args.out) + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------

def cmd_check(args, params, cfg_hash) -> int:
    report = check_assumptions(params, eps=args.eps)
    out = report.to_dict()
    out["case"] = "B" if report.case_b else (
        "conditions_met" if report.all_ok else "conditions_failed")
    _emit(out)
    return EXIT_OK if report.all_ok else EXIT_MATH


def cmd_solve(args, params, cfg_hash) -> int:
    try:
        sol = solve_z(params)
    except AssumptionViolated as exc:
        _emit({"error": "AssumptionViolated", "detail": str(exc),
               "report": exc.report.to_dict() if exc.report else None})
        return EXIT_MATH
    rt = sol.roots
    _emit({
        "case": sol.case,
        "z1": sol.z1,
        "z2": sol.z2,
        "zhat2": sol.zhat2,
        "alpha": [rt.alpha1, rt.alpha2, rt.alpha3, rt.alpha4, rt.alpha5],
        "a": [rt.a1, rt.a2, rt.a3, rt.a4],
        "relabeled": sol.relabeled,
        "residuals": {"G1": sol.g1_residual, "G2": sol.g2_residual},
    })
    return EXIT_OK


def cmd_boundary(args, params, cfg_hash) -> int:
    t0 = time.time()
    if args.grid < 2:
        print("error: --grid must be at least 2", file=sys.stderr)
        return EXIT_USER
    cs = from_stopping(solve_z(params))
    sol = cs.stopping
    x_lo = x_star(sol, 2, 1.0) - 1.0
    x_hi = x_star(sol, 1, 0.0) + 1.0
    xs = np.linspace(x_lo, x_hi, args.grid)
    rows = np.column_stack([
        xs, b_star(cs, 1, xs), b_star(cs, 2, xs),
        b_sharp(params, params.sigma1, xs), b_sharp(params, params.sigma2, xs)])
    ys = np.linspace(0.0, 1.0, args.grid)
    rows_y = np.column_stack([
        ys, x_star(sol, 1, ys), x_star(sol, 2, ys),
        single_regime_boundary(params, params.sigma1, ys),
        single_regime_boundary(params, params.sigma2, ys)])
    out_y = _suffixed(args.out, "_y")
    try:
        _write_csv(args.out, ["x", "b1_star", "b2_star",
                              "bhash_sigma1", "bhash_sigma2"], rows)
        _write_csv(out_y, ["y", "x1_star", "x2_star",
                           "xhash_sigma1", "xhash_sigma2"], rows_y)
        outputs = [args.out, out_y]
        if args.svg:
            svg = args.out + ".svg"
            _svg_curves(svg, xs, rows[:, 1:5],
                        ["b1_star", "b2_star", "bhash_sigma1", "bhash_sigma2"])
            outputs.append(svg)
        _write_manifest(args, cfg_hash, outputs, t0)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_value(args, params, cfg_hash) -> int:
    cs = from_stopping(solve_z(params))
    rep = U_report(cs, args.x, args.y, args.regime)
    _emit(rep.to_dict())
    return EXIT_OK


def cmd_verify(args, params, cfg_hash) -> int:
    sol = solve_z(params)
    if args.inject_z2_error:
        sol = perturbed(sol, 1e-3)
    try:
        fbp = [rep.to_dict() for rep in verify_fbp(
            sol, [k/10.0 for k in range(1, 10)], n_points=args.fbp_points)]
        hjb = verify_hjb(from_stopping(sol), nx=args.hjb_nx,
                         ny=args.hjb_ny).to_dict()
    except VerificationFailed as exc:
        _emit({"status": "fail", "detail": str(exc),
               "report": exc.report.to_dict() if exc.report else None})
        return EXIT_MATH
    _emit({"status": "pass",
           "worst_fbp_ode": max(r["worst_ode"] for r in fbp),
           "worst_fbp_c1": max(r["worst_c1"] for r in fbp),
           "worst_hjb": hjb["worst_max_abs"], "fbp": fbp, "hjb": hjb})
    return EXIT_OK


def cmd_simulate(args, params, cfg_hash) -> int:
    kinds = {"reflect_optimal": Policy.reflect_optimal,
             "never_extract": Policy.never_extract,
             "extract_all_at_start": Policy.extract_all_at_start}
    if args.policy not in kinds:
        print(f"error: unknown policy {args.policy!r}", file=sys.stderr)
        return EXIT_USER
    cs = from_stopping(solve_z(params))
    try:
        sim = SimConfig(dt=args.dt, horizon=args.horizon, n_paths=args.paths,
                        base_seed=args.seed, antithetic=not args.no_antithetic)
        outcome = estimate_value(cs, args.x, args.y, args.regime,
                                 kinds[args.policy](), sim)
    except (OutOfRange, SolverError) as exc:
        print(f"error: invalid simulation parameters: {exc}", file=sys.stderr)
        return EXIT_USER
    out = outcome.to_dict()
    if args.policy == "reflect_optimal":
        uval = U_value(cs, args.x, args.y, args.regime)
        out["u_value"] = uval
        out["abs_diff_vs_u"] = abs(outcome.mean - uval)
    if args.trace_out:
        tr_cfg = SimConfig(dt=args.dt, horizon=args.horizon,
                           n_paths=max(2, min(args.paths, 16)),
                           base_seed=args.seed, antithetic=False)
        trace = simulate_traces(cs, args.x, args.y, args.regime,
                                kinds[args.policy](), tr_cfg, tr_cfg.n_paths)
        try:
            trace_to_csv(trace, args.trace_out)
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return EXIT_IO
        out["trace_out"] = args.trace_out
    _emit(out)
    return EXIT_OK


def cmd_scan_region(args) -> int:
    t0 = time.time()
    try:
        s1_lo, s1_hi = (float(t) for t in args.sigma1_range.split(":"))
        s2_lo, s2_hi = (float(t) for t in args.sigma2_range.split(":"))
    except ValueError:
        print("error: ranges must look like LO:HI", file=sys.stderr)
        return EXIT_USER
    bounds = (s1_lo, s1_hi, s2_lo, s2_hi, args.rho, args.lambda1, args.lambda2)
    if (not all(map(math.isfinite, bounds)) or args.steps < 1 or s1_hi < s1_lo
            or s2_hi < s2_lo or min(s1_lo, s2_lo, *bounds[4:]) <= 0):
        print("error: need finite positive rates and nonempty positive ranges",
              file=sys.stderr)
        return EXIT_USER
    if args.steps > MAX_SCAN_STEPS:
        print(f"error: --steps must be at most {MAX_SCAN_STEPS}",
              file=sys.stderr)
        return EXIT_USER
    s1 = np.linspace(s1_lo, s1_hi, args.steps)
    s2 = np.linspace(s2_lo, s2_hi, args.steps)
    feas, caseb = feasibility_scan(args.rho, args.lambda1, args.lambda2, s1, s2)
    lines = ["sigma1,sigma2,feasible,case_b"]
    for j2, v2 in enumerate(s2):
        for j1, v1 in enumerate(s1):
            lines.append(f"{float(v1)!r},{float(v2)!r},{int(feas[j2, j1])},"
                         f"{int(caseb[j2, j1])}")
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
            outputs = [args.out]
            if args.svg:
                svg = args.out + ".svg"
                _svg_raster(svg, s1, s2, feas)
                outputs.append(svg)
            _write_manifest(args, None, outputs, t0)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _suffixed(path: str, suffix: str) -> str:
    if path.endswith(".csv"):
        return path[:-4] + suffix + ".csv"
    return path + suffix


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(vv)) for vv in row) + "\n")


def _svg_curves(path, xs, curves, names, width=640, height=420) -> None:
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
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _svg_raster(path, s1, s2, feasible, width=560, height=560) -> None:
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
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--inject-z2-error", action="store_true",
                   help="test hook: perturb z2 by 1e-3 after solving")
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
    """Parse argv, load the config once, run the subcommand and map every
    typed error that escapes it to an exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scan-region":
            return args.func(args)
        cfg, cfg_hash = _load_config(args.config)
        if cfg is None:
            return EXIT_USER
        params = _params_or_none(cfg)
        if params is None:
            return EXIT_USER
        return args.func(args, params, cfg_hash)
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
    except OutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
