"""Command line front end.

Subcommands: enumerate parameter grids, certify one instance, compute a
free distance from a matrix file, print the reference table, run the
self test.  Exit codes: 0 success, 2 parameter or input error, 3 failed
certification check, 4 refused distance computation (also a search that
does not fit in memory).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import selftest
from .block import DESK_ENUM_BUDGET
from .certify import Budgets, EFFORTS, FAULTS, certify_plan
from .convo import PolyMatrix, format_poly_matrix, parse_poly_matrix, reduce
from .errors import AqccError, CatastrophicEncoder, ParamOutOfRange, PartitionInvalid, RankDeficient
from .families import (
    FAMILIES,
    FamilyParams,
    construction_i_plan,
    demo_vectors,
    enumerate_family,
    layout,
    validate_params,
)
from .matrix import field_from_order
from .trellis import DEFAULT_STATE_BUDGET, DEFAULT_WORK_BUDGET, free_distance


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_text(rows, fmt: str) -> str:
    """rows: iterable of (family, q, params dict, n, k, gamma, dz, dx)."""
    if fmt == "json":
        payload = [
            {
                "family": family,
                "q": q,
                "params": params,
                "n": n,
                "k": k,
                "gamma": gamma,
                "dz": dz,
                "dx": dx,
            }
            for family, q, params, n, k, gamma, dz, dx in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    lines = ["family,q,params,n,k,gamma,dz,dx"]
    for family, q, params, n, k, gamma, dz, dx in rows:
        cell = " ".join(f"{a}={b}" for a, b in params.items())
        lines.append(f"{family},{q},{cell},{n},{k},{gamma},{dz},{dx}")
    return "\n".join(lines) + "\n"


def decimal(text: str) -> int:
    """ASCII decimal digits after an optional "-", as in parse_poly_matrix;
    int() alone would also take "+5", "1_6", " 5" and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_ranges(pairs) -> dict | None:
    """NAME=LO:HI items as {name: (lo, hi)}; enumerate_family judges them."""
    if not pairs:
        return None
    out = {}
    for item in pairs:
        name, _, span = item.partition("=")
        lo, colon, hi = span.partition(":")
        if not name or not colon:
            raise ParamOutOfRange(f"range must look like i=3:5, got {item!r}")
        if name in out:
            raise ParamOutOfRange(f"--range gives {name} twice")
        try:
            out[name] = (decimal(lo), decimal(hi))
        except ValueError:
            raise ParamOutOfRange(f"range bounds must be integers, got {item!r}") from None
    return out


def cmd_enumerate(args) -> int:
    rows = enumerate_family(args.family, args.q, ranges=_parse_ranges(args.range))
    flat = (
        (p.family, p.q, p.coordinates(), e.n, e.k_formula, e.gamma_formula, e.dz_bound, e.dx_bound)
        for p, e in rows
    )
    _emit(_rows_text(flat, args.format), args.out)
    return 0


def cmd_certify(args) -> int:
    budgets = Budgets(enum=args.enum_budget, state=args.state_budget, work=args.work_budget)
    partition = None
    if args.partition is not None:
        partition = tuple(decimal(s) for s in args.partition.split(","))  # ValueError exits 2
    params = FamilyParams(
        args.family, args.q, i=args.i, t=args.t, n=args.n, k=args.k, partition=partition
    )
    validate_params(params)
    if params.family == "I":
        field = field_from_order(params.q)
        try:
            vectors = demo_vectors(field, params.n, partition, seed=args.seed)
            plan = construction_i_plan(field, vectors, partition)
        except PartitionInvalid as exc:  # a request no plan fits, not a failed check
            raise ParamOutOfRange(str(exc)) from None
    else:
        plan = layout(params)
    cert = certify_plan(
        plan, effort=args.effort, budgets=budgets, fault=args.inject_fault, seed=args.seed
    )
    _emit(cert.to_json(), args.out)
    return 0


def cmd_distance(args) -> int:
    with open(args.matrix) as fh:
        text = fh.read()
    try:
        g = parse_poly_matrix(text)
    except ValueError as exc:
        raise ParamOutOfRange(f"bad matrix file: {exc}") from None
    try:
        g = reduce(g)  # free_distance takes a reduced g as it is
        res = free_distance(
            g, state_budget=args.state_budget, work_budget=args.work_budget
        )
    except RankDeficient as exc:
        # dependent rows map a nonzero input to zero: refused as catastrophic
        raise CatastrophicEncoder(str(exc)) from None
    lines = [f"q={g.field.q} rows={g.rows} cols={g.cols} gamma={sum(g.row_degrees)}"]
    if res.exact:
        lines.append(f"free distance: exact {res.lower} ({res.method})")
    else:
        lines.append(
            f"free distance: bounds [{res.lower}, {res.upper}] ({res.method})"
        )
    if res.witness is not None:
        row = PolyMatrix.from_coefficients(g.field, res.witness[:, None])
        lines.append(f"witness: {format_poly_matrix(row)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_table(args) -> int:
    _emit(_rows_text(selftest.REFERENCE_ROWS, args.format), args.out)
    return 0


def cmd_selftest(args) -> int:
    return selftest.run_battery()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqcc",
        description="Asymmetric quantum convolutional codes from split parity checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    budgets = argparse.ArgumentParser(add_help=False)
    budgets.add_argument("--state-budget", type=decimal, default=DEFAULT_STATE_BUDGET,
                         help="trellis state cap (default %(default)s)")
    budgets.add_argument("--work-budget", type=decimal, default=DEFAULT_WORK_BUDGET,
                         help="trellis edge cap (default %(default)s)")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="PATH", help="write output to a file")

    p = sub.add_parser("enumerate", parents=[output],
                       help="list expected tuples for a family grid")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--q", type=decimal, required=True)
    p.add_argument("--range", action="append", metavar="NAME=LO:HI",
                   help="narrow one parameter, e.g. --range i=3:5")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("certify", parents=[budgets, output],
                       help="build one instance and emit its certificate")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--q", type=decimal, required=True)
    p.add_argument("--i", type=decimal)
    p.add_argument("--t", type=decimal)
    p.add_argument("--n", type=decimal)
    p.add_argument("--k", type=decimal)
    p.add_argument("--partition", metavar="K0,P0,K1,P1,...",
                   help="interleaved row counts (family I)")
    p.add_argument("--effort", choices=EFFORTS, default="desk")
    p.add_argument("--inject-fault", nargs="?", const="mutate-row",
                   choices=FAULTS, help="deliberately break one build step")
    p.add_argument("--seed", type=decimal, default=0)
    p.add_argument("--enum-budget", type=decimal, default=DESK_ENUM_BUDGET,
                   help="codeword enumeration cap (default %(default)s)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("distance", parents=[budgets, output],
                       help="free distance of a polynomial matrix file")
    p.add_argument("matrix", help="text file, q= header then one row per line")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("table", parents=[output],
                       help="print the reference parameter table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParamOutOfRange as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except CatastrophicEncoder as exc:
        print(f"distance refused: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("distance refused: the search does not fit in memory; "
              "lower --state-budget or --work-budget", file=sys.stderr)
        return 4
    except AqccError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
