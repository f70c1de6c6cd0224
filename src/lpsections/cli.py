"""Command-line front end.

Subcommands: volume, kernel, crossing, verify, clt, optimize.  Tables go
to standard output (or --output-path) as CSV (default) or JSON with the
fixed schemas from lpsections.schemas; diagnostics go to standard error
only.  All state is in flags (no environment variables), so a recorded
command line reproduces its output byte for byte.

Exit codes: 0 success, 1 an inequality/assertion suite failed,
2 usage error, 3 numerical non-convergence, 4 internal error (any
other exception, reported on one line of standard error).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import analysis, hankel
from .closedform import section_value
from .direction import Direction
from .hankel import NonConvergenceError, section_volume_quadrature
from .montecarlo import McSpec, clt_experiment, estimate_section_volume
from .optimize import maximize_direction
from .schemas import SCHEMAS, validate_output

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4

# a `kernel` table needs --s-max / --step below this (about as many rows)
KERNEL_MAX_ROWS = 10 ** 6
# --diag, --a2 and --n-list entries may not exceed this
# (a quadrature volume on diag 10^6 peaks at about 300 MiB)
MAX_DIMENSION = 10 ** 6
# optimize --n may not exceed this: the simplex and its weights hold
# 2 (n + 1) n doubles, about 256 MiB here
OPTIMIZE_MAX_DIMENSION = 4096


def _check_dimension(flag: str, n: int, limit: int = MAX_DIMENSION) -> None:
    if n > limit:
        raise ValueError(f"{flag} must be at most {limit}, got {n}")


def _parse_p(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    try:
        p = float(text)
    except ValueError:
        raise ValueError(f"cannot parse exponent {text!r}")
    if math.isinf(p) or not p >= 1.0:
        raise ValueError("exponent must be a float >= 1 or the literal 'inf'")
    return p


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _parse_seed(text: str) -> int:
    # McSpec and the optimizer's RngStream both accept only [0, 2^64) and
    # raise ValueError outside it; checking here names the flag
    seed = int(text)
    if not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError("--seed must be in [0, 2^64)")
    return seed


def _format_p(p: float) -> str:
    return "inf" if math.isinf(p) else repr(float(p))


def _parse_direction(args) -> tuple[Direction, str]:
    picked = [x for x in (args.a, args.diag, args.a2) if x is not None]
    if len(picked) != 1:
        raise ValueError("exactly one of --a, --diag, --a2 is required")
    if args.diag is not None:
        if args.diag < 1:
            raise ValueError("--diag needs n >= 1")
        _check_dimension("--diag", args.diag)
        return Direction.diagonal(args.diag), f"diag:{args.diag}"
    if args.a2 is not None:
        if args.a2 < 2:
            raise ValueError("--a2 needs n >= 2")
        _check_dimension("--a2", args.a2)
        return Direction.two_equal(args.a2), f"a2:{args.a2}"
    try:
        entries = [float(v) for v in args.a.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse --a {args.a!r}")
    d = Direction(entries)
    return d, "custom:" + ";".join(repr(v) for v in d.entries)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(args, subcommand: str, rows: list[dict]) -> None:
    payload = {"subcommand": subcommand, "rows": rows}
    validate_output(subcommand, payload)
    cols = list(SCHEMAS[subcommand])
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    else:
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(_cell(row[c]) for c in cols))
        text = "\n".join(lines) + "\n"
    if args.output_path:
        try:
            with open(args.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output-path {args.output_path!r}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _cmd_volume(args) -> int:
    p = _parse_p(args.p)
    direction, a_spec = _parse_direction(args)
    if args.engine == "closed":
        value = section_value(p, direction)
        if value is None:
            raise ValueError("closed engine needs a direction with at most 2 nonzero entries")
        row = dict(engine="closed_form", value=value, err_bound=0.0, samples=None, seed=None)
    elif args.engine == "quad":
        res = section_volume_quadrature(p, direction, args.tol)
        row = dict(engine=res.engine, value=res.value, err_bound=res.err_bound,
                   samples=None, seed=None)
    else:
        res = estimate_section_volume(p, direction, McSpec(samples=args.samples, seed=args.seed))
        row = dict(engine=res.engine, value=res.value, err_bound=res.err_bound,
                   samples=args.samples, seed=args.seed)
    row.update(p=_format_p(p), n=direction.n, a_spec=a_spec)
    _emit(args, "volume", [row])
    return EXIT_OK


def _cmd_kernel(args) -> int:
    p = _parse_p(args.p)
    if (args.s_max + 1e-12) / args.step >= KERNEL_MAX_ROWS:
        raise ValueError(f"--s-max / --step must be below {KERNEL_MAX_ROWS} (one row per step)")
    # s = k * step, not a running sum, so the grid does not drift
    grid = np.arange(int((args.s_max + 1e-12) / args.step) + 2) * args.step
    grid = grid[grid <= args.s_max + 1e-12]
    # looked up on the module, so that a hook on hankel.kernel_values sees this call
    values, errs = hankel.kernel_values(p, grid, trunc_target=max(args.tol, 1e-12) / 2.0)
    rows = [dict(p=_format_p(p), s=float(s), value=float(v), err_bound=float(e))
            for s, v, e in zip(grid, values, errs)]
    _emit(args, "kernel", rows)
    return EXIT_OK


def _cmd_crossing(args) -> int:
    p = _parse_p(args.p)
    report = analysis.crossing_scan(p, args.n_max, args.tol)
    rows = []
    for e in report.per_n:
        rows.append(dict(
            p=_format_p(p), n=e.n, a_diag=e.a_diag.value, a_diag_err=e.a_diag.err_bound,
            a2=e.a_two, holds=e.holds, indeterminate=e.indeterminate,
            first_n_holds=report.first_n_holds,
            holds_for_all_tail=report.holds_for_all_tail,
        ))
    _emit(args, "crossing", rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    suites = ("lemma1", "lipschitz", "sufficient") if args.suite == "all" else (args.suite,)
    rows = []
    ok = True
    for suite in suites:
        if suite == "lemma1":
            ineqs = analysis.verify_lemma1()
        elif suite == "sufficient":
            ineqs = analysis.verify_sufficient()
        else:
            ineqs = analysis.verify_lipschitz(args.tol)
        for q in ineqs:
            ok = ok and q.satisfied
            rows.append(dict(suite=suite, name=q.name, p=_format_p(q.p), n=q.n,
                             lhs=q.lhs, rhs=q.rhs, satisfied=q.satisfied, margin=q.margin))
    _emit(args, "verify", rows)
    return EXIT_OK if ok else EXIT_FAILED_CHECK


def _cmd_clt(args) -> int:
    p = _parse_p(args.p)
    try:
        n_list = [int(v) for v in args.n_list.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse --n-list {args.n_list!r}")
    for n in n_list:
        _check_dimension("each --n-list entry", n)
    rows_out = []
    for row in clt_experiment(p, n_list, McSpec(samples=args.samples, seed=args.seed)):
        rows_out.append(dict(p=_format_p(p), n=row.n, estimate=row.estimate,
                             std_err=row.std_err, c_p=row.c_p_target))
    _emit(args, "clt", rows_out)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    p = _parse_p(args.p)
    _check_dimension("--n", args.n, OPTIMIZE_MAX_DIMENSION)
    report = maximize_direction(p, args.n, budget=args.budget, tol=args.tol, seed=args.seed)
    rows = []
    base = dict(p=_format_p(p), n=args.n, engine="quadrature", converged=report.converged)
    for it, val in report.trace:
        rows.append(dict(base, record="trace", iteration=it, value=val,
                         err_bound=None, coords=None))
    rows.append(dict(base, record="best", iteration=report.iterations,
                     value=report.best_value.value,
                     err_bound=report.best_value.err_bound,
                     coords=";".join(repr(v) for v in report.best.entries)))
    _emit(args, "optimize", rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lpsec",
        description="Section volumes of complex l_p balls: engines, scans, and checks.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(sp, tol=None, sampling=False):
        # each subcommand declares only the flags its handler reads
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--output-path", default=None)
        if tol is not None:
            sp.add_argument("--tol", type=_positive_float, default=tol)
        if sampling:
            sp.add_argument("--seed", type=_parse_seed, default=0)
            sp.add_argument("--samples", type=int, default=10 ** 6)

    sp = sub.add_parser("volume", help="one section volume")
    sp.add_argument("--p", required=True)
    sp.add_argument("--a", default=None, help="comma-separated coordinates")
    sp.add_argument("--diag", type=int, default=None, help="main diagonal of dimension n")
    sp.add_argument("--a2", type=int, default=None, help="two equal coordinates padded to n")
    sp.add_argument("--engine", choices=("quad", "mc", "closed"), required=True)
    common(sp, tol=1e-8, sampling=True)
    sp.set_defaults(fn=_cmd_volume)

    kernel_help = f"kernel table on an s grid (--s-max / --step below {KERNEL_MAX_ROWS})"
    sp = sub.add_parser("kernel", help=kernel_help, description=kernel_help)
    sp.add_argument("--p", required=True)
    sp.add_argument("--s-max", type=_positive_float, required=True)
    sp.add_argument("--step", type=_positive_float, required=True)
    common(sp, tol=1e-8)
    sp.set_defaults(fn=_cmd_kernel)

    sp = sub.add_parser("crossing", help="diagonal-vs-two-coordinate crossing scan")
    sp.add_argument("--p", required=True)
    sp.add_argument("--n-max", type=int, required=True)
    common(sp, tol=1e-5)
    sp.set_defaults(fn=_cmd_crossing)

    sp = sub.add_parser("verify", help="inequality suites; exit 1 on any violation "
                        "(--tol sets the quadrature budget of the lipschitz rows)")
    sp.add_argument("--suite", choices=("lemma1", "lipschitz", "sufficient", "all"),
                    default="all")
    common(sp, tol=1e-4)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("clt", help="second-negative-moment scaling experiment")
    sp.add_argument("--p", required=True)
    sp.add_argument("--n-list", required=True, help="comma-separated dimensions")
    common(sp, sampling=True)
    sp.set_defaults(fn=_cmd_clt)

    sp = sub.add_parser("optimize", help="maximize the volume over directions")
    sp.add_argument("--p", required=True)
    sp.add_argument("--n", type=int, required=True)
    # the optimizer runs on quadrature only; the flag stays because callers pass it
    sp.add_argument("--engine", choices=("quad",), required=True)
    sp.add_argument("--budget", type=int, default=240)
    sp.add_argument("--seed", type=_parse_seed, default=0, help="seeds the random starts")
    common(sp, tol=1e-2)
    sp.set_defaults(fn=_cmd_optimize)

    return top


@functools.lru_cache(maxsize=None)
def _pin_allocator() -> None:
    """Fix glibc's mmap (32 MiB) and trim (128 MiB) thresholds, once per
    process.  Left dynamic they follow the allocation history, and the
    kernel's temporaries are reused or faulted back in on every call
    depending on what ran before.  A no-op without glibc's mallopt."""
    import ctypes  # not at import, so start-up time stays the same
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    if mallopt(-3, 32 << 20) == 1:  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
        mallopt(-1, 128 << 20)


def main(argv=None) -> int:
    _pin_allocator()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a crash must not read as exit 1, a failed suite
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
