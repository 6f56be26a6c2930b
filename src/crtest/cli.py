"""Command line interface.

Two subcommands:

* ``test``   — run one independence test on a CSV file
* ``power``  — rejection-rate table over (a, n, alpha) grids; one cell is
  a grid of one value each

The CLI owns its outputs: this module writes the ``test`` report (text,
or JSON at ``SCHEMA_VERSION``), and ``power`` writes ``mc``'s table as CSV
or JSON.  Exit codes: 0 success, 1 data or numeric error, 2 usage error.

Only what ``test --method jel`` runs loads with this module; the
normal-calibrated test and the harness load when a command needs them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from ._checks import BLOCK_ELEMS, level
from .errors import CrtestError
from .jel import jel_test
from .reader import IngestResult, IngestSpec, ingest

SCHEMA_VERSION = 1  # of the ``test`` report


def _labels(text: str) -> frozenset[str]:
    out = frozenset(part.strip() for part in text.split(",") if part.strip())
    if not out:
        raise argparse.ArgumentTypeError("expected a comma-separated list of labels")
    return out


def _list(kind, what: str):
    """An argparse type: comma-separated ``kind`` values, as a tuple."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return parse


def _column(text: str) -> str | int:
    # ASCII digits alone are a zero-based position, anything else a name:
    # int() would also take other scripts' digits and surrounding whitespace
    return int(text) if text.isascii() and text.isdigit() else text


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
    t.set_defaults(run=_cmd_test, parser=t)

    w = sub.add_parser("power", help="rejection-rate table over (a, n, alpha) grids")
    w.add_argument("--a-grid", type=_list(float, "numbers"), required=True,
                   help="comma-separated dependence parameters in [1, 2]")
    w.add_argument("--n-grid", type=_list(int, "integers"), required=True,
                   help=f"comma-separated sample sizes, each 3 to {BLOCK_ELEMS}")
    w.add_argument("--alphas", type=_list(float, "numbers"), default=(0.05,),
                   help="comma-separated levels (default 0.05)")
    w.add_argument("--p1", type=float, required=True, help="cause-1 mass in [0, 0.5]")
    w.add_argument("--reps", type=int, default=2000,
                   help="replications, >= 100 (default 2000; table-scale runs use 10000)")
    w.add_argument("--seed", type=int, required=True, help="master seed")
    w.add_argument("--method", choices=("jel", "ddk", "both"), default="both")
    w.add_argument("--ddk-one-sided", action="store_true",
                   help="upper-tail ddk decision in the table (default is two-sided)")
    w.add_argument("--workers", type=int, default=0,
                   help="worker processes (default 0 = one per CPU)")
    w.add_argument("--format", choices=("csv", "json"), default="csv")
    w.add_argument("--out", help="write the table here instead of stdout")
    w.set_defaults(run=_cmd_power, parser=w)

    return parser


def _cmd_test(args: argparse.Namespace) -> str:
    if args.one_sided and args.method != "ddk":
        args.parser.error("--one-sided applies to --method ddk only")
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
    if args.format == "json":
        return json.dumps({
            "schema_version": SCHEMA_VERSION,
            "method": args.method,
            "n_used": ing.n_used,
            "n_dropped": ing.n_dropped,
            "input_sha256": ing.fingerprint,
            "tool_version": __version__,
            "result": result.to_dict(),
        }, indent=2) + "\n"
    lines = [
        f"method:        {args.method}",
        f"input sha256:  {ing.fingerprint}",
        f"rows used:     {ing.n_used}    rows dropped: {ing.n_dropped}",
        f"delta_hat:     {result.delta_hat:.6g}",
    ]
    if args.method == "jel":
        # a hull violation's statistic is +inf, which formats as "inf"
        lines.append(f"statistic:     {result.statistic:.6g}  (chi-square df=1 calibration)")
        if not result.hull_ok:
            lines.append("note:          0 outside pseudo-value hull; treated as reject")
        if result.degenerate:
            lines.append("note:          degenerate sample (no pseudo-value spread)")
    else:
        side = "two-sided" if result.two_sided else "one-sided"
        lines.append(f"z:             {result.z:.6g}  ({side} normal calibration)")
        lines.append(f"p1_hat:        {result.p1_hat:.6g}")
    lines.append(f"p value:       {result.p_value:.6g}")
    lines.append(f"decision:      {'reject' if result.reject else 'do not reject'} "
                 f"independence at alpha={result.alpha:g}")
    return "\n".join(lines) + "\n"


def _cmd_power(args: argparse.Namespace) -> str:
    if args.ddk_one_sided and args.method == "jel":
        args.parser.error("--ddk-one-sided applies to --method ddk or both only")
    from .datagen import FamilyParams
    from .mc import SimConfig, run, to_csv, to_json

    config = SimConfig(
        # placeholders: the run takes a from a_grid cell by cell, and lam moves no cell
        params=FamilyParams(lam=1.0, p1=args.p1, a=1.0, seed=args.seed),
        n_grid=args.n_grid,
        alpha_grid=args.alphas,
        a_grid=args.a_grid,
        reps=args.reps,
        methods=("jel", "ddk") if args.method == "both" else (args.method,),
        ddk_two_sided=not args.ddk_one_sided,
    )
    table = run(config, workers=args.workers)
    return to_json(table) if args.format == "json" else to_csv(table)


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        output = args.run(args)
        if args.out:
            Path(args.out).write_text(output, encoding="utf-8")
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
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
