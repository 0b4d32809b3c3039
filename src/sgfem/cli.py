"""Command line entry point.

Subcommands: ``tables`` (iteration-count sweeps), ``cpattern`` (tensor
truncation counts), ``norms`` (stiffness norm decay data), ``export``
(write one problem instance to files) and ``solve`` (one preconditioned
solve).  Results go to stdout or, with --out, to CSV files; an --out or
--dest that cannot be written is a usage error before any work.

Exit status: 0 on success, 1 when a command refuses a setup that does
not fit in memory, 2 on a usage error (a bad argument or config, or a
problem the library rejects, such as more KL modes than mesh nodes), 3
when ``solve`` does not converge within its iteration cap.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import fields

from .experiments import (
    DEFAULT_COV,
    TABLE_KINDS,
    TRUNCATIONS,
    ExperimentConfig,
    Report,
    _problem,
    emit_c_pattern,
    emit_norm_decay,
    export_case,
    load_config,
    report_csv,
    report_markdown,
    run_table,
)
from .krylov import flexible_cg
from .linalg import FactorizationError
from .preconditioners import KINDS, make_preconditioner


def _checked(convert, *rules):
    """argparse type: ``convert`` the text, then reject a value that fails
    one of the ``(rule, ok)`` pairs, in order, as a usage error naming
    the first rule it fails."""
    def check(text):
        value = convert(text)
        for rule, ok in rules:
            if not ok(value):
                raise argparse.ArgumentTypeError(
                    f"must be {rule}, got {text}")
        return value
    check.__name__ = convert.__name__  # argparse: "invalid int value"
    return check


_POSITIVE_INT = _checked(int, (">= 1", lambda v: v >= 1))
_NONNEG_INT = _checked(int, (">= 0", lambda v: v >= 0))
# the comparisons fail on NaN
_NONNEG_FLOAT = _checked(float, (">= 0", lambda v: v >= 0))
_POSITIVE_FLOAT = _checked(float, ("> 0", lambda v: v > 0),
                           ("finite", math.isfinite))


def _probe(folder: str, path: str) -> None:
    """Reject ``path`` as a usage error unless ``folder`` takes a new
    file, tried by creating an unnamed temporary one."""
    try:
        with tempfile.TemporaryFile(dir=folder):
            pass
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot write to {path}: {exc.strerror}") from None


def _output(suffix: str = ""):
    """argparse type: an output file path, ``suffix`` appended, that is
    not a directory and whose directory takes a new file."""
    def check(text):
        path = text + suffix
        if os.path.isdir(path):
            raise argparse.ArgumentTypeError(
                f"cannot write to {path}: Is a directory")
        _probe(os.path.dirname(path) or ".", path)
        return text
    return check


def _directory(text):
    """argparse type: an output directory that exists or can be made:
    its nearest existing ancestor is a directory that takes a new file."""
    folder = os.path.abspath(text)
    while not os.path.exists(folder):
        folder = os.path.dirname(folder)
    _probe(folder, text)
    return text


def _add_config_flags(p):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--N", type=int, help="stochastic dimension")
    p.add_argument("--P", type=int, help="solution polynomial degree")
    p.add_argument("--n", type=int, help="mesh subdivisions per side")
    p.add_argument("--tol", type=float, help="relative residual tolerance")
    p.add_argument("--maxit", type=int, help="iteration cap")
    p.add_argument("--sigma-mode", choices=("moment", "gaussian"),
                   dest="sigma_mode", help="CoV to Gaussian sigma mapping")
    p.add_argument("--norm", choices=("frob", "two"),
                   help="stiffness matrix norm")


def _config_from(args):
    """The config file with every flag that names a config field on top.

    A config file that cannot be read or a value the config rejects is a
    usage error: it ends the program the way argparse does, with one
    ``sg: error:`` line and exit status 2.
    """
    names = {f.name for f in fields(ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in names}
    try:
        return load_config(args.config, **overrides)
    except OSError as exc:
        message = f"cannot read config file {args.config}: {exc.strerror}"
    except ValueError as exc:
        message = str(exc)
    print(f"sg: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _emit(report, out, markdown=False):
    text = report_markdown(report) if markdown else report_csv(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sg",
        description="Stochastic Galerkin solver experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="run one iteration-count sweep")
    p.add_argument("which", choices=TABLE_KINDS)
    _add_config_flags(p)
    p.add_argument("--out", type=_output(),
                   help="CSV output path (default stdout)")
    p.add_argument("--markdown", action="store_true",
                   help="emit a Markdown table instead of CSV")

    p = sub.add_parser("cpattern",
                       help="nonzero counts of the truncated tensor")
    p.add_argument("--N", type=_POSITIVE_INT, required=True)
    p.add_argument("--P", type=_NONNEG_INT, required=True)
    p.add_argument("--lt", type=_NONNEG_INT, required=True,
                   help="truncation degree")
    p.add_argument("--out", type=_output(),
                   help="CSV output path (default stdout)")

    p = sub.add_parser("norms", help="stiffness norm decay data")
    _add_config_flags(p)
    p.add_argument("--out", type=_output("_norms.csv"),
                   help="path prefix; writes <out>_norms.csv and "
                        "<out>_weighted.csv")

    p = sub.add_parser("export", help="write one instance to files")
    _add_config_flags(p)
    p.add_argument("--dest", type=_directory, required=True,
                   help="output directory")
    p.add_argument("--cov", type=_POSITIVE_FLOAT, default=DEFAULT_COV,
                   help="coefficient of variation in percent")
    p.add_argument("--cap", type=_NONNEG_INT, default=5000,
                   help="size cap for the dense global matrix")

    p = sub.add_parser("solve", help="one preconditioned solve")
    p.add_argument("--precond", required=True, choices=KINDS)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--lt", type=_NONNEG_INT,
                       help="standard truncation degree")
    group.add_argument("--tau", type=_NONNEG_FLOAT,
                       help="adaptive truncation threshold")
    p.add_argument("--cov", type=_POSITIVE_FLOAT, default=DEFAULT_COV,
                   help="coefficient of variation in percent")
    _add_config_flags(p)
    p.add_argument("--out", type=_output(),
                   help="CSV output path (default stdout)")
    return ap


def _cmd_tables(args):
    config = _config_from(args)
    report = run_table(config, args.which)
    _emit(report, args.out, args.markdown)
    return 0


def _cmd_cpattern(args):
    nnz, n_mv = emit_c_pattern(args.N, args.P, args.lt)
    report = Report("cpattern", ("N", "P", "lt", "nnz", "n_mv"),
                    ({"N": args.N, "P": args.P, "lt": args.lt,
                      "nnz": nnz, "n_mv": n_mv},))
    _emit(report, args.out)
    return 0


def _cmd_norms(args):
    config = _config_from(args)
    norms, weighted = emit_norm_decay(config)
    if args.out:
        _emit(norms, f"{args.out}_norms.csv")
        _emit(weighted, f"{args.out}_weighted.csv")
    else:
        _emit(norms, None)
        sys.stdout.write("\n")
        _emit(weighted, None)
    return 0


def _cmd_export(args):
    config = _config_from(args)
    manifest = export_case(config, args.dest, cov=args.cov, cap=args.cap)
    for name in sorted(manifest):
        print(f"{name}: {manifest[name]}")
    return 0


def _cmd_solve(args):
    config = _config_from(args)
    op, b = _problem(config, cov_pct=args.cov)
    flag = "lt" if args.lt is not None else "tau"  # exclusive flags
    value = getattr(args, flag)
    trunc = None if value is None else TRUNCATIONS[flag](config, op)(value)
    pre = make_preconditioner(op, args.precond, trunc)
    _, rep = flexible_cg(op.matvec, pre.apply, b, tol=config.tol,
                         maxit=config.maxit)
    row = {"precond": args.precond, "cov": args.cov, "n": config.n,
           "ndof": op.n_global,
           "lt": args.lt if args.lt is not None else "",
           "tau": args.tau if args.tau is not None else "",
           "it": rep.iterations, "kappa": rep.kappa,
           "converged": rep.converged}
    report = Report("solve", tuple(row), (row,))
    _emit(report, args.out)
    return 0 if rep.converged else 3


_COMMANDS = {"tables": _cmd_tables, "cpattern": _cmd_cpattern,
             "norms": _cmd_norms, "export": _cmd_export,
             "solve": _cmd_solve}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MemoryError as exc:  # a setup refused before it allocates
        print(f"sg {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except FactorizationError:  # a failed factor is not the caller's
        raise
    except ValueError as exc:  # a problem argument the library rejects
        print(f"sg {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
