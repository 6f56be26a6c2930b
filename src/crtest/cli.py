"""Command line interface.

Three subcommands:

* ``test``      — run one independence test on a CSV file
* ``simulate``  — rejection rate for a single parameter cell
* ``power``     — rejection-rate table over (a, n, alpha) grids

Exit codes: 0 success, 1 data or numeric error, 2 usage error.

Only what ``test --method jel`` runs loads with this module; the
normal-calibrated test and the harness load when a command needs them.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import __version__
from ._checks import BLOCK_ELEMS, level
from .errors import CrtestError
from .ingest import IngestResult, IngestSpec, RunReport, ingest
from .jel import jel_test

_INT_RE = re.compile(r"^\d+$")


def _labels(text: str) -> frozenset[str]:
    out = frozenset(part.strip() for part in text.split(",") if part.strip())
    if not out:
        raise argparse.ArgumentTypeError("expected a comma-separated list of labels")
    return out


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _column(text: str) -> str | int:
    # pure digits are treated as a zero-based position, anything else as a name
    return int(text) if _INT_RE.match(text) else text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtest",
        description="Independence tests for failure time vs. failure cause "
        "in two-cause competing risks data.",
    )
    parser.add_argument("--version", action="version", version=f"crtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run one test on a CSV file")
    t.add_argument("--input", required=True, help="CSV file path")
    t.add_argument("--time-col", required=True, type=_column,
                   help="failure-time column: header name, or 0-based index")
    t.add_argument("--cause-col", required=True, type=_column,
                   help="cause column: header name, or 0-based index")
    t.add_argument("--cause1", required=True, type=_labels,
                   help="comma-separated labels recoded to cause 1")
    t.add_argument("--cause2", required=True, type=_labels,
                   help="comma-separated labels recoded to cause 2")
    t.add_argument("--drop", type=_labels, default=frozenset(),
                   help="comma-separated labels whose rows are dropped (e.g. censored)")
    t.add_argument("--method", choices=("jel", "ddk"), default="jel")
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--one-sided", action="store_true",
                   help="upper-tail decision for --method ddk (default is two-sided)")
    t.add_argument("--no-header", action="store_true",
                   help="the file has no header row; columns must be indices")
    t.add_argument("--format", choices=("text", "json"), default="text")
    t.add_argument("--out", help="write the report here instead of stdout")

    s = sub.add_parser("simulate", help="rejection rate for one parameter cell")
    _sim_common(s)
    s.add_argument("--a", type=float, required=True, help="dependence parameter in [1, 2]")
    s.add_argument("--n", type=int, required=True,
                   help=f"sample size per replication, 3 to {BLOCK_ELEMS}")
    s.add_argument("--alpha", type=_float_list, default=(0.05,),
                   help="level(s), comma-separated (default 0.05)")

    w = sub.add_parser("power", help="rejection-rate table over (a, n, alpha) grids")
    _sim_common(w)
    w.add_argument("--a-grid", type=_float_list, required=True,
                   help="comma-separated dependence parameters in [1, 2]")
    w.add_argument("--n-grid", type=_int_list, required=True,
                   help=f"comma-separated sample sizes, each 3 to {BLOCK_ELEMS}")
    w.add_argument("--alphas", type=_float_list, required=True,
                   help="comma-separated levels")

    return parser


def _sim_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="exponential baseline rate (default 1.0)")
    p.add_argument("--p1", type=float, required=True, help="cause-1 mass in [0, 0.5]")
    p.add_argument("--reps", type=int, default=2000,
                   help="replications, >= 100 (default 2000; table-scale runs use 10000)")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--method", choices=("jel", "ddk", "both"), default="both")
    p.add_argument("--ddk-one-sided", action="store_true",
                   help="upper-tail ddk decision in the table (default is two-sided)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: CRTEST_THREADS, 0 = auto)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write the table here instead of stdout")


def _methods(choice: str) -> tuple[str, ...]:
    return ("jel", "ddk") if choice == "both" else (choice,)


def _cmd_test(args: argparse.Namespace) -> str:
    # refuse a bad level before reading the file, however large or missing
    level(args.alpha)
    spec = IngestSpec(
        path=args.input,
        time_column=args.time_col,
        cause_column=args.cause_col,
        cause1_labels=args.cause1,
        cause2_labels=args.cause2,
        drop_labels=args.drop,
        has_header=not args.no_header,
    )
    ing: IngestResult = ingest(spec)
    if args.method == "jel":
        result = jel_test(ing.sample, alpha=args.alpha)
    else:
        from .ddk import ddk_test

        result = ddk_test(ing.sample, alpha=args.alpha, two_sided=not args.one_sided)
    report = RunReport(
        method=args.method,
        result=result,
        n_used=ing.n_used,
        n_dropped=ing.n_dropped,
        input_sha256=ing.fingerprint,
        tool_version=__version__,
    )
    return report.to_json() if args.format == "json" else report.to_text()


def _cmd_simulate(args: argparse.Namespace) -> str:
    """Run ``simulate`` or ``power``; ``simulate`` is the one-point grid."""
    from .datagen import FamilyParams
    from .mc import SimConfig, run, to_csv, to_json

    if args.command == "simulate":
        a_grid, n_grid, alphas = (args.a,), (args.n,), args.alpha
    else:
        a_grid, n_grid, alphas = args.a_grid, args.n_grid, args.alphas
    config = SimConfig(
        # a is a placeholder: the run takes it from a_grid, cell by cell
        params=FamilyParams(lam=args.lam, p1=args.p1, a=1.0, seed=args.seed),
        n_grid=n_grid,
        alpha_grid=alphas,
        a_grid=a_grid,
        reps=args.reps,
        methods=_methods(args.method),
        ddk_two_sided=not args.ddk_one_sided,
    )
    table = run(config, workers=args.workers)
    return to_json(table) if args.format == "json" else to_csv(table)


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "test" and args.one_sided and args.method != "ddk":
            parser.error("--one-sided applies to --method ddk only")
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        output = _cmd_test(args) if args.command == "test" else _cmd_simulate(args)
        if args.out:
            Path(args.out).write_text(output, encoding="utf-8")
    except (CrtestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(output)
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
