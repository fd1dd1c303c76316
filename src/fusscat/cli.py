"""Command-line front end.

Subcommands: count, equiv, canon, convert, table, verify.  Exit codes:
0 for success (and for "equivalent" / "all cells agree"), 1 for a
negative verdict (not equivalent, or a count mismatch), 2 for usage or
data errors, 3 for an internal error (a crash, never a verdict).
Output is deterministic; counts are printed as decimal strings.  An
expression argument of "-" reads one line from stdin.

Each command imports the layers (and json) it uses when it runs, so a
process loads only what its command needs.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import BudgetError, DomainError, FusscatError
from .params import Params

if TYPE_CHECKING:
    from .dyck import DyckTuple


def _int_range(text: str) -> range:
    """Range syntax: "3" or "2..4" (inclusive); an empty one is refused."""
    lo, sep, hi = text.partition("..")
    span = range(int(lo), int(hi if sep else lo) + 1)
    if not span:
        raise argparse.ArgumentTypeError("empty range %s (LO > HI)" % text)
    return span


def _operand(text: str) -> str:
    if text == "-":
        return sys.stdin.readline().rstrip("\n")
    return text


_READ_FORMATS = ("expr", "dyck")
_WRITE_FORMATS = ("expr", "tuple", "ns")


def _read(text: str, fmt: str, params: Params) -> DyckTuple:
    from . import dyck, expr

    return (expr._read if fmt == "expr" else dyck.parse_dyck)(text, params)


def _render(d: DyckTuple, fmt: str, params: Params) -> str:
    from . import dyck, expr

    if fmt == "expr":
        return expr._write(d.entries, params.m, "minimal")
    return dyck.print_dyck(d, fmt)


def _cmd_count(args) -> int:
    from . import counting

    params = Params(args.m, args.k)
    length = args.length if args.length is not None else args.leaves - 1
    route = (counting.count_minimal_brute if args.brute
             else counting.modular_fuss_catalan)
    print(route(params, length))
    return 0


def _cmd_equiv(args) -> int:
    import json

    from . import dyck

    params = Params(args.m, args.k)
    tuples = [_read(_operand(text), "expr", params)
              for text in (args.left, args.right)]
    same = dyck.equivalent(tuples[0], tuples[1], params)
    record = {
        "equivalent": same,
        "signatures": [list(dyck.signature(d, params)) for d in tuples],
    }
    if same:
        record["canonical"] = _render(dyck.canonicalize(tuples[0], params),
                                      "expr", params)
    print(json.dumps(record))
    return 0 if same else 1


def _cmd_canon(args) -> int:
    import json

    from . import dyck

    params = Params(args.m, args.k)
    minimal = dyck.canonicalize(
        _read(_operand(args.input), args.in_format, params), params)
    record = {
        "canonical": _render(minimal, args.out_format, params),
        "signature": list(dyck.signature(minimal, params)),
    }
    print(json.dumps(record))
    return 0


def _cmd_convert(args) -> int:
    params = Params(args.m, 1)  # conversion is k-independent
    d = _read(_operand(args.input), args.from_format, params)
    print(_render(d, args.to_format, params))
    return 0


def _cmd_table(args) -> int:
    from . import counting

    rows = []
    for m in args.m_range:
        for k in args.k_range:
            params = Params(m, k)
            for length in args.length_range:
                if not params.fits(length):
                    continue
                rows.append((m, k, length,
                             counting.modular_fuss_catalan(params, length)))
    if args.format == "csv":
        print("m,k,length,count")
        for m, k, length, count in rows:
            print("%d,%d,%d,%d" % (m, k, length, count))
    else:
        import json

        for m, k, length, count in rows:
            print(json.dumps({"m": m, "k": k, "length": length,
                              "count": str(count)}))
    return 0


def _cmd_verify(args) -> int:
    from . import counting

    shortest = args.m_range[0] - 1  # each m checks lengths from m-1
    if args.max_length < shortest:
        raise DomainError("--max-length %d leaves no cell to check; the "
                          "shortest is %d" % (args.max_length, shortest))
    routes = [("formula", counting.modular_fuss_catalan),
              ("brute", counting.count_minimal_brute)]
    if args.classes:
        routes.append(("classes", lambda params, length: len(
            counting.enumerate_classes(params, length + 1))))
    mismatches = cells = 0
    for m in args.m_range:
        for k in args.k_range:
            params = Params(m, k)
            for length in range(m - 1, args.max_length + 1, m - 1):
                cells += 1
                line = "m=%d k=%d length=%d" % (m, k, length)
                values = set()  # of the routes that ran
                for name, route in routes:
                    try:
                        value = route(params, length)
                    except BudgetError:
                        line += " %s=skipped" % name
                    else:
                        line += " %s=%d" % (name, value)
                        values.add(value)
                print(line + (" ok" if len(values) <= 1 else " MISMATCH"))
                mismatches += len(values) > 1
    print("checked %d cells, %d mismatches" % (cells, mismatches))
    return 1 if mismatches else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusscat",
        description="Canonical forms and exact counting for k-associative "
                    "m-ary operations.")
    parser.add_argument("--version", action="version",
                        version="fusscat %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--m", type=int, required=True, help="arity (>= 2)")
        p.add_argument("--k", type=int, required=True,
                       help="associativity degree (>= 1)")

    p = sub.add_parser("count", help="number of equivalence classes")
    common(p)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--length", type=int, help="tuple length L")
    size.add_argument("--leaves", type=int, help="leaf count N (= L + 1)")
    p.add_argument("--brute", action="store_true",
                   help="count by enumeration instead of the formula")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("equiv", help="test two expressions for equivalence")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("canon", help="canonical form of an expression or path")
    common(p)
    p.add_argument("--in", dest="in_format", choices=_READ_FORMATS,
                   default="expr")
    p.add_argument("--out", dest="out_format", choices=_WRITE_FORMATS,
                   default="expr")
    p.add_argument("input")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--m", type=int, required=True, help="arity (>= 2)")
    p.add_argument("--from", dest="from_format", required=True,
                   choices=_READ_FORMATS)
    p.add_argument("--to", dest="to_format", required=True,
                   choices=_WRITE_FORMATS)
    p.add_argument("input")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("table", help="count table over parameter ranges")
    p.add_argument("--m-range", type=_int_range, required=True,
                   metavar="LO..HI")
    p.add_argument("--k-range", type=_int_range, required=True,
                   metavar="LO..HI")
    p.add_argument("--length-range", type=_int_range, required=True,
                   metavar="LO..HI")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="cross-check formula against brute force")
    p.add_argument("--m-range", type=_int_range, required=True,
                   metavar="LO..HI")
    p.add_argument("--k-range", type=_int_range, required=True,
                   metavar="LO..HI")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--classes", action="store_true",
                   help="also enumerate classes where the budget allows")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # A count may have more digits than Python (3.11 on) converts to text
    # by default, so the commands that print counts lift that limit.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift = digits and args.func in (_cmd_count, _cmd_table, _cmd_verify)
    if lift:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except FusscatError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 2
    except Exception as error:
        print("error: internal: %s: %s" % (type(error).__name__, error),
              file=sys.stderr)
        return 3
    finally:
        if lift:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
