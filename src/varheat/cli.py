"""Command-line front end.

    varheat solve    [--config PATH] [--N int] [--out PATH] [--format csv|json]
    varheat eigs     [--config PATH] [--N int] [--count int] [--out PATH] [--format ...]
    varheat eigfuns  [--config PATH] [--N int] [--out PATH] [--format ...]
    varheat verify   [suite] [--config PATH]   (suite: table1 | figure2 |
                                                determinant | convergence | all)

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
CSV output uses a header row, comma separators, LF line endings, and 17
significant digits; JSON round-trips exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .config import RunConfig, _validate, parse_config
from .coefficients import build_travel_time
from .errors import ConfigError, VarheatError
from .oracles import fd_eigenvalues, fd_eigenvector
from .spectrum import eigenfunction, find_eigenvalues
from .svg import LineSeries, write_line_plot
from .transform import solve_grid
from .verify import SUITES, run_suite

__all__ = ["main", "cmd_solve", "cmd_eigs", "cmd_eigfuns", "cmd_verify"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_table(path, fmt, header, rows):
    """``rows`` under ``header``: CSV, or for ``fmt`` json a list of objects."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if fmt == "csv":
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                      for v in row) + "\n")
        else:
            json.dump([dict(zip(header, row)) for row in rows], handle, indent=2,
                      sort_keys=True)
            handle.write("\n")


def _exact_solution(cfg: RunConfig):
    """Closed-form benchmark solution when the config names one."""
    if cfg.is_parabolic_benchmark():
        return lambda x, t: x * (1.0 - x) * math.exp(-t)
    if cfg.sigma_kind == "constant" and cfg.profile_kind == "sine":
        s = cfg.sigma_value
        return lambda x, t: math.exp(-((math.pi * s) ** 2) * t) * math.sin(math.pi * x)
    return None


def cmd_solve(cfg: RunConfig) -> int:
    c = cfg.conductivity()
    tt = build_travel_time(c)
    spec = cfg.series_spec()
    q0, q0_knots = cfg.profile()
    xs = np.linspace(0.0, 1.0, cfg.solve_x_points)
    exact = _exact_solution(cfg)

    rows = []
    svg_series = []
    max_err = {}
    # One contour and one Phi batch serve every requested time.
    batch = solve_grid(c, tt, q0, xs, cfg.solve_times, spec, all_orders=True,
                       q0_knots=q0_knots)
    for t in cfg.solve_times:
        res = batch[float(t)]
        for n in sorted(res):
            samples = res[n]
            for s in samples:
                rows.append((s.x, s.t, s.value, s.imag_residual, n))
                if exact is not None:
                    err = abs(s.value - exact(s.x, s.t))
                    max_err[n] = max(max_err.get(n, 0.0), err)
            svg_series.append(LineSeries(
                [s.x for s in samples], [s.value for s in samples],
                f"N={n}, t={t:g}"))
        if exact is not None:
            svg_series.append(LineSeries(
                xs, [exact(x, t) for x in xs], f"exact, t={t:g}", dashed=True))

    out_path = cfg.output_path or f"solve.{cfg.output_format}"
    _write_table(out_path, cfg.output_format, ["x", "t", "q", "imag_residual", "N"], rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    if exact is not None:
        for n in sorted(max_err):
            print(f"max |q_N - exact| at N={n}: {max_err[n]:.6e}")
    if cfg.output_svg:
        write_line_plot(cfg.output_svg, svg_series, title="solution profiles",
                        xlabel="x", ylabel="q")
        print(f"wrote {cfg.output_svg}")
    return 0


def cmd_eigs(cfg: RunConfig) -> int:
    c = cfg.conductivity()
    tt = build_travel_time(c)
    spec = cfg.series_spec()
    pairs = find_eigenvalues(c, tt, spec, cfg.eigs_count)
    records = [{"m": p.m, "kappa": p.kappa, "lambda": p.lam,
                "residual": p.residual, "N": p.truncation_N} for p in pairs]
    if cfg.eigs_oracle:
        refs = fd_eigenvalues(c, cfg.eigs_count, 512)
        for rec, ref in zip(records, refs):
            rec["fd_lambda"] = ref
            rec["abs_diff"] = abs(rec["lambda"] - ref)

    out_path = cfg.output_path or f"eigs.{cfg.output_format}"
    header = list(records[0])
    _write_table(out_path, cfg.output_format, header,
                 [tuple(r[h] for h in header) for r in records])
    print(f"wrote {out_path} ({len(records)} modes)")
    for rec in records:
        line = f"m={rec['m']}  lambda={rec['lambda']:.6f}  residual={rec['residual']:.2e}"
        if "fd_lambda" in rec:
            line += f"  fd={rec['fd_lambda']:.6f}  diff={rec['abs_diff']:.2e}"
        print(line)
    return 0


def cmd_eigfuns(cfg: RunConfig) -> int:
    c = cfg.conductivity()
    tt = build_travel_time(c)
    xs = np.linspace(0.0, 1.0, cfg.eigfuns_x_points)
    truncations = cfg.eigfuns_truncations or [cfg.series_N]

    columns = {}
    svg_series = []
    for N in truncations:
        spec_n = dataclasses.replace(cfg.series_spec(), truncation_N=N)
        pairs = find_eigenvalues(c, tt, spec_n, max(cfg.eigfuns_modes))
        for m in cfg.eigfuns_modes:
            ef = eigenfunction(c, tt, pairs[m - 1], spec_n)
            vals = ef(xs)
            columns[f"X{m}_N{N}"] = vals
            svg_series.append(LineSeries(xs, vals, f"m={m}, N={N}"))
    # grid reference, normalized the same way (unit L^2, positive slope)
    for m in cfg.eigfuns_modes:
        gx, gv = fd_eigenvector(c, m, 1024)
        svg_series.append(LineSeries(gx[::8], gv[::8], f"m={m}, grid ref", dashed=True))

    out_path = cfg.output_path or f"eigfuns.{cfg.output_format}"
    header = ["x"] + list(columns.keys())
    rows = [tuple([x] + [float(columns[h][i]) for h in header[1:]])
            for i, x in enumerate(xs)]
    _write_table(out_path, cfg.output_format, header, rows)
    print(f"wrote {out_path} ({len(rows)} rows, {len(columns)} eigenfunctions)")
    if cfg.output_svg:
        write_line_plot(cfg.output_svg, svg_series, title="eigenfunctions",
                        xlabel="x", ylabel="X_m")
        print(f"wrote {cfg.output_svg}")
    return 0


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    try:
        results = run_suite(suite, seed=cfg.verify_seed)
    except KeyError:
        raise ConfigError(f"unknown verify suite {suite!r}; "
                          f"choose {'|'.join([*SUITES, 'all'])}")
    for res in results:
        print(res.line())
    failed = sum(0 if r.passed else 1 for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="varheat",
        description="Variable-conductivity heat solver, spectrum, and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "eigs", "eigfuns", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a key=value config file")
        p.add_argument("--N", type=int, default=None, help="series truncation override")
        p.add_argument("--out", default=None, help="output file path override")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        if name == "eigs":
            p.add_argument("--count", type=int, default=None)
        if name == "verify":
            p.add_argument("suite", nargs="?", default="all", choices=(*SUITES, "all"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.N is not None:
            cfg.series_N = args.N
        if args.out is not None:
            cfg.output_path = args.out
        if args.format is not None:
            cfg.output_format = args.format
        if getattr(args, "count", None) is not None:
            cfg.eigs_count = args.count
        _validate(cfg)  # the overrides take the file's range checks

        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "eigs":
            return cmd_eigs(cfg)
        if args.command == "eigfuns":
            return cmd_eigfuns(cfg)
        return cmd_verify(cfg, args.suite)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VarheatError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
