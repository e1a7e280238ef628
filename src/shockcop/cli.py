"""Command-line front end.

Subcommands: eval, grid, validate-gen, check, sample, check-empirical,
reconstruct, roundtrip.  Exit codes are a stable contract: 0 on success or a
passing check, 1 on a failed check or unwritable output, 2 on usage, parse, or
illegal-configuration errors.  Every CSV output starts with a comment line
recording the tool version, the descriptor, and the seed when one applies.

The CLI calls no BLAS or LAPACK routine, so it defaults OPENBLAS_NUM_THREADS to
1 before numpy loads: each command then starts without an OpenBLAS thread pool.
A value set in the environment is kept.  Library imports leave BLAS alone.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # no BLAS calls here; a pool costs start time

import numpy as np

from . import __version__
from . import checks
from . import shock_models as sm
from .descriptors import parse_copula, parse_distribution, parse_generator, parse_model
from .errors import ReconstructionError, ShockcopError
from .generators import DEFAULT_GRID, DEFAULT_RESOLUTION, GeneratorClass, validate
from .sampling import (
    empirical_copula,
    read_pairs_csv,
    sample_model,
    sup_distance,
    sup_distance_at,
    write_pairs_csv,
)
from .tables import write_blocks, write_table

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@contextlib.contextmanager
def _open_out(path):
    """Standard output for no path or ``-``; else the file, closed on exit."""
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}") from exc
    with fh:
        yield fh


class _OutputError(Exception):
    pass


def cmd_eval(args) -> int:
    c = parse_copula(args.copula)
    value = c.value(args.u, args.v)
    print(f"{value:.15g}")
    return EXIT_OK


_GRID_ROWS = 64  # lattice rows evaluated and written at a time: memory grows with n, not n^2


def _at_least(low, args, *options) -> None:
    """Refuse an integer option below ``low`` as a usage error that names it."""
    for name in options:
        if getattr(args, name) < low:
            raise ValueError(f"--{name} must be at least {low}, got {getattr(args, name)}")


def _finite_non_negative(args, *options) -> None:
    """Refuse a tolerance that is negative, NaN or infinite as a usage error that names it.

    An unset option (None) keeps its documented default.
    """
    for name in options:
        value = getattr(args, name)
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ValueError(f"--{name} must be finite and non-negative, got {value}")


def cmd_grid(args) -> int:
    _at_least(1, args, "n")
    c = parse_copula(args.copula)
    us = np.linspace(0.0, 1.0, args.n + 1)
    blocks = (
        (np.repeat(rows, us.size), np.tile(us, rows.size), c.value_array(rows[:, None], us).ravel())
        for rows in (us[i : i + _GRID_ROWS] for i in range(0, us.size, _GRID_ROWS))
    )
    with _open_out(args.out) as fh:
        comment = f"shockcop={__version__} descriptor={c.describe()} n={args.n}"
        write_blocks(fh, comment, "u,v,C", blocks)
    return EXIT_OK


def cmd_validate_gen(args) -> int:
    _at_least(3, args, "grid")
    _finite_non_negative(args, "tol")
    gen = parse_generator(args.generator, GeneratorClass(args.cls))
    report = validate(gen, grid_size=args.grid, tol=args.tol)
    print(f"generator {gen.describe()} as {args.cls}: {'passed' if report.passed else 'failed'}")
    print(report.render_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_check(args) -> int:
    _at_least(3, args, "grid")
    _at_least(1, args, "rectangles")
    _at_least(0, args, "seed")
    _finite_non_negative(args, "tol")
    c = parse_copula(args.copula)
    report = checks.check_copula_axioms(
        c, grid=args.grid, rectangles=args.rectangles, tol=args.tol, seed=args.seed
    )
    _emit_report(report, args)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sample(args) -> int:
    _at_least(0, args, "seed")
    model = parse_model(args.model)
    pairs = sample_model(model, args.n, args.seed)
    with _open_out(args.out) as fh:
        write_pairs_csv(fh, pairs, kind="ranks" if args.ranks else "raw", version=__version__)
    return EXIT_OK


def cmd_check_empirical(args) -> int:
    _at_least(2, args, "grid")
    _finite_non_negative(args, "eps")
    c = parse_copula(args.against)
    source = sys.stdin if args.infile in (None, "-") else args.infile
    pairs = read_pairs_csv(source)
    emp = empirical_copula(pairs)
    dist, (u, v) = sup_distance_at(emp, c, grid=args.grid)
    eps = args.eps if args.eps is not None else checks.monte_carlo_eps(pairs.n)
    status = "pass" if dist <= eps else "FAIL"
    print(
        f"sup distance on {args.grid}-grid between {emp.describe()} and "
        f"{c.describe()}: {dist:.6g} at ({u:.6g}, {v:.6g}) (bound {eps:.6g}) [{status}]"
    )
    return EXIT_OK if dist <= eps else EXIT_CHECK_FAILED


def cmd_reconstruct(args) -> int:
    _at_least(1, args, "grid", "points")
    _finite_non_negative(args, "tol")
    c = parse_copula(args.copula)
    margin_u = parse_distribution(args.fu)
    margin_v = parse_distribution(args.fv)
    model, report = sm.audited_reconstruction(c, margin_u, margin_v, args.grid, args.tol)
    _emit_report(report, args)
    if not report.passed:
        return EXIT_CHECK_FAILED
    if args.out:
        xs = sm.support_grid([margin_u, margin_v], args.points)
        laws = (model.f_x, model.f_y, model.g1, model.g2)
        with _open_out(args.out) as fh:
            comment = f"shockcop={__version__} descriptor={c.describe()} reconstruction"
            write_table(fh, comment, "x,f_x,f_y,g1,g2", [xs, *(law.cdf_array(xs) for law in laws)])
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    _at_least(1, args, "grid")
    _at_least(8, args, "resolution")
    _finite_non_negative(args, "tol", "eps")
    c = parse_copula(args.copula)
    margin_u = parse_distribution(args.fu)
    margin_v = parse_distribution(args.fv)
    model = sm.reconstruct(c, margin_u, margin_v, grid_size=args.grid, tol=args.tol)
    # the margins' quantiles at the compared levels are knots: the distance reads no interpolation
    at = [f.quantile_array(np.linspace(0.0, 1.0, 11)[1:-1]) for f in sm.margins(model)]
    reinduced = sm.induced_copula(model, resolution=args.resolution, points=at)
    dist = sup_distance(reinduced, c, grid=11)
    status = "pass" if dist <= args.eps else "FAIL"
    print(
        f"roundtrip {c.describe()}: reconstructed {model.describe()}; "
        f"re-induced sup distance {dist:.6g} (bound {args.eps:.6g}) [{status}]"
    )
    return EXIT_OK if dist <= args.eps else EXIT_CHECK_FAILED


def _emit_report(report, args) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "csv":
        print("\n".join(report.csv_rows()))
    else:
        print(report.render_text())
    out = getattr(args, "report_out", None)
    if out:
        with _open_out(out) as fh:
            fh.write("\n".join(report.csv_rows()) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shockcop",
        description="Shock-model copula toolkit: evaluate, validate, sample, reconstruct.",
    )
    parser.add_argument("--version", action="version", version=f"shockcop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a copula at a point")
    p.add_argument("copula")
    p.add_argument("u", type=float)
    p.add_argument("v", type=float)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("grid", help="export C(u,v) on an (n+1)^2 lattice as CSV")
    p.add_argument("copula")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("validate-gen", help="validate a generator against a class")
    p.add_argument("generator")
    p.add_argument("--class", dest="cls", choices=sorted(c.value for c in GeneratorClass), required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=cmd_validate_gen)

    p = sub.add_parser("check", help="run the copula axiom suite")
    p.add_argument("copula")
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--rectangles", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--report-out", default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sample", help="draw coupled pairs from a shock model")
    p.add_argument("model")
    p.add_argument("-n", "--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--ranks", action="store_true", help="emit normalized ranks instead of variates")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("check-empirical", help="sup distance of a sample CSV to a copula")
    p.add_argument("--against", required=True)
    p.add_argument("--in", dest="infile", default=None, help="sample CSV (default stdin)")
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(fn=cmd_check_empirical)

    p = sub.add_parser("reconstruct", help="invert a copula + margins into a shock model")
    p.add_argument("copula")
    p.add_argument("--fu", required=True)
    p.add_argument("--fv", required=True)
    p.add_argument("--grid", type=int, default=sm.RECONSTRUCTION_GRID)
    p.add_argument("--tol", type=float, default=sm.RECONSTRUCTION_TOL)
    p.add_argument("--points", type=int, default=41, help="rows in the emitted CDF table")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--report-out", default=None)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="reconstruct, re-induce, and compare to the original")
    p.add_argument("copula")
    p.add_argument("--fu", required=True)
    p.add_argument("--fv", required=True)
    p.add_argument("--grid", type=int, default=sm.RECONSTRUCTION_GRID)
    p.add_argument("--tol", type=float, default=sm.RECONSTRUCTION_TOL)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p.set_defaults(fn=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve both
        return int(exc.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK_FAILED
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ReconstructionError as exc:
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ShockcopError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
