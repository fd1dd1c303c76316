"""Command-line front end.

Subcommands: count, equiv, canon, convert, table, verify.  Exit codes:
0 for success (and for "equivalent" / "all cells agree"), 1 for a
negative verdict (not equivalent, or a count mismatch), 2 for usage or
data errors, 3 for an internal error (a crash, never a verdict).
Output is deterministic; counts are printed as decimal strings.  An
expression argument of "-" reads one line from stdin.

Each command imports the layers it uses when it runs, so a process
loads (and without bytecode caches compiles) only what its command
needs: `count` and `table` load the formula module alone, and no command
loads the tree layer or json, as _json writes the records.  One table,
_COMMANDS, declares every command's arguments.  _plain reads an ordinary
command line from it: the command, its options spelled in full and each
given once, then its positionals.  Any other argv, and help and
--version, go to argparse, which is imported only then and builds its
parser from the same table, so its help and error text are its own.
"""

import sys
from types import SimpleNamespace

from . import __version__
from .errors import BudgetError, DomainError, FusscatError
from .params import Params

TYPE_CHECKING = False  # typing's flag, without loading typing (and re)
if TYPE_CHECKING:
    from .dyck import DyckTuple


def _int_range(text: str) -> range:
    """Range syntax: "3" or "2..4" (inclusive); an empty one is refused."""
    lo, sep, hi = text.partition("..")
    span = range(int(lo), int(hi if sep else lo) + 1)
    if not span:
        import argparse

        raise argparse.ArgumentTypeError("empty range %s (LO > HI)" % text)
    return span


def _operand(text: str) -> str:
    if text == "-":
        return sys.stdin.readline().rstrip("\n")
    return text


_READ_FORMATS = ("expr", "dyck")
_WRITE_FORMATS = ("expr", "tuple", "ns")


def _read(text: str, fmt: str, params: Params) -> "DyckTuple":
    from . import dyck, expr

    return (expr._read if fmt == "expr" else dyck.parse_dyck)(text, params)


def _render(d: "DyckTuple", fmt: str, params: Params) -> str:
    from . import dyck, expr

    if fmt == "expr":
        return expr._write(d.entries, params.m, "minimal")
    return dyck.print_dyck(d, fmt)


def _json(record: dict) -> str:
    """json.dumps(record) for the records printed here: the writers' text
    needs no escape, and repr writes ints and lists of them as JSON."""
    return "{%s}" % ", ".join(
        '"%s": %s' % (key, str(value).lower() if isinstance(value, bool)
                      else '"%s"' % value if isinstance(value, str)
                      else repr(value))
        for key, value in record.items())


def _cmd_count(args) -> int:
    if args.brute:
        from .counting import count_minimal_brute as route
    else:
        from .formula import modular_fuss_catalan as route

    params = Params(args.m, args.k)
    length = args.length if args.length is not None else args.leaves - 1
    print(route(params, length))
    return 0


def _cmd_equiv(args) -> int:
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
    print(_json(record))
    return 0 if same else 1


def _cmd_canon(args) -> int:
    from . import dyck

    params = Params(args.m, args.k)
    minimal = dyck.canonicalize(
        _read(_operand(args.input), args.in_format, params), params)
    record = {
        "canonical": _render(minimal, args.out_format, params),
        "signature": list(dyck.signature(minimal, params)),
    }
    print(_json(record))
    return 0


def _cmd_convert(args) -> int:
    params = Params(args.m, 1)  # conversion is k-independent
    d = _read(_operand(args.input), args.from_format, params)
    print(_render(d, args.to_format, params))
    return 0


def _cmd_table(args) -> int:
    from .formula import modular_fuss_catalan

    rows = []
    for m in args.m_range:
        for k in args.k_range:
            params = Params(m, k)
            for length in args.length_range:
                if not params.fits(length):
                    continue
                rows.append((m, k, length,
                             modular_fuss_catalan(params, length)))
    if args.format == "csv":
        print("m,k,length,count")
        for m, k, length, count in rows:
            print("%d,%d,%d,%d" % (m, k, length, count))
    else:
        for m, k, length, count in rows:
            print(_json({"m": m, "k": k, "length": length,
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
        routes.append(("classes", counting._count_classes))
    mismatches = cells = 0
    for m in args.m_range:
        for k in args.k_range:
            params = Params(m, k)
            for length in range(m - 1, args.max_length + 1, m - 1):
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
                if not values:  # no route ran, so the cell is not checked
                    print(line + " unchecked")
                    continue
                cells += 1
                print(line + (" ok" if len(values) == 1 else " MISMATCH"))
                mismatches += len(values) > 1
    print("checked %d cells, %d mismatches" % (cells, mismatches))
    return 1 if mismatches else 0


_MK = [("--m", dict(type=int, required=True, help="arity (>= 2)")),
       ("--k", dict(type=int, required=True,
                    help="associativity degree (>= 1)"))]
_RANGES = [(flag, dict(type=_int_range, required=True, metavar="LO..HI"))
           for flag in ("--m-range", "--k-range", "--length-range")]

# Each command's function, help, arguments (as add_argument takes them,
# in the order argparse adds them) and required one-of group of options.
_COMMANDS = {
    "count": (_cmd_count, "number of equivalence classes", _MK + [
        ("--length", dict(type=int, help="tuple length L")),
        ("--leaves", dict(type=int, help="leaf count N (= L + 1)")),
        ("--brute", dict(action="store_true",
                         help="count by enumeration instead of the formula"))],
        ("--length", "--leaves")),
    "equiv": (_cmd_equiv, "test two expressions for equivalence",
              _MK + [("left", {}), ("right", {})], ()),
    "canon": (_cmd_canon, "canonical form of an expression or path", _MK + [
        ("--in", dict(dest="in_format", choices=_READ_FORMATS,
                      default="expr")),
        ("--out", dict(dest="out_format", choices=_WRITE_FORMATS,
                       default="expr")),
        ("input", {})], ()),
    "convert": (_cmd_convert, "convert between representations", _MK[:1] + [
        ("--from", dict(dest="from_format", required=True,
                        choices=_READ_FORMATS)),
        ("--to", dict(dest="to_format", required=True,
                      choices=_WRITE_FORMATS)),
        ("input", {})], ()),
    "table": (_cmd_table, "count table over parameter ranges", _RANGES + [
        ("--format", dict(choices=("csv", "json"), default="csv"))], ()),
    "verify": (_cmd_verify, "cross-check formula against brute force",
               _RANGES[:2] + [
                   ("--max-length", dict(type=int, required=True)),
                   ("--classes", dict(action="store_true", help="also "
                       "enumerate classes where the budget allows"))], ()),
}


def _dashed(text: str) -> bool:
    return text[:1] == "-" and text != "-"


def _plain(argv: list[str]) -> "SimpleNamespace | None":
    """What argparse returns for the command, then its options, spelled
    in full and each given once, then its positionals, with every value
    valid and no token but a lone "-" starting with "-"; None for any
    other argv, which argparse reads instead."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments, one_of = _COMMANDS[argv[0]]
    options = {flag: kw for flag, kw in arguments if flag[0] == "-"}
    names = [flag for flag, _ in arguments if flag[0] != "-"]
    given, at = {}, 1
    while at < len(argv) and _dashed(argv[at]):
        flag, kw = argv[at], options.get(argv[at])
        if kw is None or flag in given:
            return None
        if "action" in kw:  # store_true
            given[flag], at = True, at + 1
            continue
        if at + 1 == len(argv) or _dashed(argv[at + 1]):
            return None
        try:
            value = kw.get("type", str)(argv[at + 1])
        except Exception:  # argparse calls it again, and reports it
            return None
        if value not in kw.get("choices", [value]):
            return None
        given[flag], at = value, at + 2
    if (len(argv) - at != len(names) or any(map(_dashed, argv[at:]))
            or any(kw.get("required") and flag not in given
                   for flag, kw in options.items())
            or one_of and sum(flag in given for flag in one_of) != 1):
        return None
    args = {kw.get("dest", flag[2:].replace("-", "_")): given.get(
                flag, kw.get("default", False if "action" in kw else None))
            for flag, kw in options.items()}
    return SimpleNamespace(command=argv[0], func=func, **args,
                           **dict(zip(names, argv[at:])))


def _build_parser():
    """argparse's parser over _COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fusscat",
        description="Canonical forms and exact counting for k-associative "
                    "m-ary operations.")
    parser.add_argument("--version", action="version",
                        version="fusscat %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, arguments, one_of) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        group = one_of and p.add_mutually_exclusive_group(required=True)
        for flag, kw in arguments:
            (group if flag in one_of else p).add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain(argv) or _build_parser().parse_args(argv)
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
