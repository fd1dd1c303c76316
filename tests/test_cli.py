"""Command-line behaviour, exercised in-process through cli.main."""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import fusscat.cli as cli
import fusscat.counting
import fusscat.dyck
import fusscat.formula
import fusscat.tree
from conftest import edit_once


@pytest.fixture
def run(capsys, monkeypatch):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""

    def call(*argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 0
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


# --------------------------------------------------------------------- count

def test_count_formula(run):
    code, out, err = run("count", "--m", "3", "--k", "2", "--length", "6")
    assert (code, out, err) == (0, "10\n", "")


def test_count_by_leaves(run):
    code, out, _ = run("count", "--m", "3", "--k", "2", "--leaves", "7")
    assert (code, out) == (0, "10\n")


def test_count_brute(run):
    code, out, _ = run("count", "--m", "2", "--k", "2", "--length", "4",
                       "--brute")
    assert (code, out) == (0, "8\n")


def test_count_brute_over_budget_exits_2_at_once(run):
    start = time.monotonic()
    code, out, err = run("count", "--m", "2", "--k", "1",
                         "--length", "1000000000000", "--brute")
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    # One tuple at k = 1, but of more entries than the budget.
    assert err == ("error: tuples of 1000000000000 entries exceed the "
                   "budget of 1000000\n")


def test_count_past_the_formula_work_limit_exits_2_at_once(run):
    start = time.monotonic()
    code, out, err = run("count", "--m", "2", "--k", "1",
                         "--leaves", "1000001")
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: length 1000000 is past the formula's "
                          "work limit: ")


def test_count_prints_more_digits_than_the_int_to_text_limit(run):
    # fuss_catalan(2, 8001) has 4,811 digits, past the default limit of
    # 4,300 that Python puts on converting an int to text since 3.11.
    get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
    set_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    limit = get_digits()
    code, out, err = run("count", "--m", "2", "--k", "8000",
                         "--length", "8000")
    assert (code, err, len(out)) == (0, "", 4812)
    assert get_digits() == limit  # restored when the command ends
    set_digits(0)
    try:
        assert out == "%d\n" % fusscat.counting.fuss_catalan(2, 8001)
    finally:
        set_digits(limit)


def test_count_requires_exactly_one_size_flag(run):
    code, _, _ = run("count", "--m", "3", "--k", "2",
                     "--length", "6", "--leaves", "7")
    assert code == 2
    code, _, _ = run("count", "--m", "3", "--k", "2")
    assert code == 2


@pytest.mark.parametrize("size", [("--leaves", "1"), ("--length", "0")])
@pytest.mark.parametrize("brute", [(), ("--brute",)])
def test_count_of_one_operand_is_one(run, size, brute):
    code, out, err = run("count", "--m", "3", "--k", "2", *size, *brute)
    assert (code, out, err) == (0, "1\n", "")


def test_count_rejects_bad_length(run):
    code, out, err = run("count", "--m", "3", "--k", "2", "--length", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_count_rejects_bad_arity(run):
    code, _, err = run("count", "--m", "1", "--k", "2", "--length", "4")
    assert code == 2
    assert err.startswith("error: ")


# --------------------------------------------------------------------- equiv

def test_equiv_positive(run):
    code, out, _ = run("equiv", "--m", "3", "--k", "2",
                       "((x1*x2*x3)*x4*x5)*x6*x7",
                       "x1*x2*((x3*x4*x5)*x6*x7)")
    assert code == 0
    record = json.loads(out)
    assert record["equivalent"] is True
    assert record["canonical"] == "x1*x2*x3*x4*x5*x6*x7"
    assert record["signatures"] == [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]


def test_equiv_negative(run):
    code, out, _ = run("equiv", "--m", "3", "--k", "2",
                       "(x1*x2*x3)*x4*x5", "x1*(x2*x3*x4)*x5")
    assert code == 1
    record = json.loads(out)
    assert record["equivalent"] is False
    assert "canonical" not in record
    assert record["signatures"] == [[0, 0, 0], [2, 0, 0]]


def test_equiv_reads_stdin_for_dash(run):
    code, out, _ = run("equiv", "--m", "3", "--k", "2",
                       "-", "x1*x2*x3*x4*x5*x6*x7",
                       stdin="((x1*x2*x3)*x4*x5)*x6*x7\n")
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def test_equiv_malformed_input(run):
    code, out, err = run("equiv", "--m", "3", "--k", "2", "x1*", "x1")
    assert code == 2
    assert out == ""
    assert "offset" in err


def test_equiv_of_a_1000_operand_flat_product(run):
    flat = "*".join("x%d" % i for i in range(1, 1001))
    code, out, err = run("equiv", "--m", "2", "--k", "2", flat, flat)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["equivalent"] is True
    assert record["canonical"] == flat


# --------------------------------------------------------------------- canon

def test_canon_expression_roundtrip(run):
    code, out, _ = run("canon", "--m", "3", "--k", "2",
                       "x1*((x2*x3*x4)*x5*x6)*x7")
    assert code == 0
    record = json.loads(out)
    assert record["canonical"] == "x1*x2*x3*x4*x5*x6*x7"
    assert record["signature"] == [0, 0, 0, 0, 0]


def test_canon_tuple_already_minimal(run):
    code, out, _ = run("canon", "--m", "3", "--k", "3",
                       "--in", "dyck", "--out", "tuple", "(2,0,2,0)")
    assert code == 0
    record = json.loads(out)
    assert record["canonical"] == "(2,0,2,0)"
    assert record["signature"] == [0, 2, 0]


def test_canon_ns_output(run):
    code, out, _ = run("canon", "--m", "3", "--k", "2", "--out", "ns",
                       "x1*x2*x3*x4*x5*x6*x7")
    assert code == 0
    assert json.loads(out)["canonical"] == "NNNNNNSSSSSS"


def test_canon_accepts_ns_input(run):
    code, out, _ = run("canon", "--m", "3", "--k", "2",
                       "--in", "dyck", "--out", "expr", "NNSSNNSS")
    assert code == 0
    assert json.loads(out)["canonical"] == "x1*x2*(x3*x4*x5)"


def test_canon_has_no_dyck_output_alias(run):
    code, out, err = run("canon", "--m", "3", "--k", "2", "--out", "dyck",
                         "x1*x2*x3")
    assert code == 2
    assert "invalid choice" in err


# ------------------------------------------------------------------- convert

def test_convert_expr_to_tuple(run):
    code, out, _ = run("convert", "--m", "3", "--from", "expr",
                       "--to", "tuple", "x1*x2*(x3*x4*x5)")
    assert (code, out) == (0, "(2,0,2,0)\n")


def test_convert_roundtrips(run):
    source = "x1*(x2*x3*x4)*x5"
    _, ns, _ = run("convert", "--m", "3", "--from", "expr", "--to", "ns",
                   source)
    _, back, _ = run("convert", "--m", "3", "--from", "dyck", "--to",
                     "expr", ns.strip())
    assert back == source + "\n"
    _, tup, _ = run("convert", "--m", "3", "--from", "dyck",
                    "--to", "tuple", ns.strip())
    assert tup == "(2,2,0,0)\n"
    _, again, _ = run("convert", "--m", "3", "--from", "dyck",
                      "--to", "ns", tup.strip())
    assert again == ns


def test_convert_rejects_malformed_input(run):
    for argv in (("convert", "--m", "3", "--from", "expr",
                  "--to", "tuple", "x1*(x2)"),
                 ("convert", "--m", "3", "--from", "dyck",
                  "--to", "expr", "NNSX"),
                 ("convert", "--m", "3", "--from", "dyck",
                  "--to", "expr", "(1,0)")):
        code, out, err = run(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_a_tuple_entry_past_the_int_to_text_limit(run):
    # int() refuses texts past 4,300 digits; parse_dyck refuses the entry
    # first, and leading zeros do not count
    ones = "1" + "0" * 5000
    for argv, length in (
            (("canon", "--m", "2", "--k", "1", "--in", "dyck",
              "(%s,0)" % ones), 2),
            (("convert", "--m", "2", "--from", "dyck", "--to", "tuple",
              "(%s)" % ones), 1)):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err == ("error: an entry of 5001 digits passes the tuple's "
                       "length %d\n" % length)
    code, out, err = run("convert", "--m", "2", "--from", "dyck",
                         "--to", "tuple", "(%s1)" % ("0" * 4999))
    assert (code, out, err) == (0, "(1)\n", "")


def test_convert_has_no_dyck_prefixed_words(run):
    for argv in (("--from", "dyck-ns", "--to", "expr"),
                 ("--from", "dyck-tuple", "--to", "expr"),
                 ("--from", "expr", "--to", "dyck-ns"),
                 ("--from", "expr", "--to", "dyck-tuple")):
        code, out, err = run("convert", "--m", "3", *argv, "x1*x2*x3")
        assert (code, out) == (2, "")
        assert "invalid choice" in err


def test_text_and_tuple_convert_without_trees(run, monkeypatch):
    def no_trees(self, children=()):
        raise AssertionError("a Tree was built")

    monkeypatch.setattr(fusscat.tree.Tree, "__init__", no_trees)
    code, out, _ = run("equiv", "--m", "3", "--k", "2",
                       "((x1*x2*x3)*x4*x5)*x6*x7", "x1*x2*((x3*x4*x5)*x6*x7)")
    assert (code, json.loads(out)["canonical"]) == (0, "x1*x2*x3*x4*x5*x6*x7")
    for source in (("--in", "expr", "x1*x2*(x3*x4*x5)"),
                   ("--in", "dyck", "NNSSNNSS")):
        code, out, _ = run("canon", "--m", "3", "--k", "2", *source,
                           "--out", "expr")
        assert (code, json.loads(out)["canonical"]) == (0, "x1*x2*(x3*x4*x5)")
    code, out, _ = run("convert", "--m", "3", "--from", "expr", "--to", "ns",
                       "x1*(x2*x3*x4)*x5")
    assert (code, out) == (0, "NNSNNSSS\n")


# --------------------------------------------------------------------- table

def test_table_csv_exact_output(run):
    code, out, _ = run("table", "--m-range", "3", "--k-range", "2",
                       "--length-range", "2..6")
    assert code == 0
    assert out == "m,k,length,count\n3,2,2,1\n3,2,4,3\n3,2,6,10\n"


def test_table_json_counts_are_strings(run):
    code, out, _ = run("table", "--m-range", "2", "--k-range", "2",
                       "--length-range", "5", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [{"m": 2, "k": 2, "length": 5, "count": "16"}]


def test_records_print_as_json_dumps_would(run):
    # The commands write their records by hand, without the json module,
    # which is the oracle here: equiv with both verdicts, canon in every
    # --out format, and table's JSON lines.
    rng = random.Random(21)
    verdicts = set()
    for _ in range(40):
        m, k = rng.randint(2, 4), rng.randint(1, 3)
        params = fusscat.Params(m, k)
        trees = list(fusscat.enumerate_trees(params, 1 + (m - 1)
                                             * rng.randint(0, 5)))
        left, right = (fusscat.unparse(rng.choice(trees)) for _ in "lr")
        code, out, _ = run("equiv", "--m", str(m), "--k", str(k), left, right)
        record = json.loads(out)
        verdicts.add(record["equivalent"])
        assert (code, out) == (1 - record["equivalent"],
                               json.dumps(record) + "\n")
        for fmt in cli._WRITE_FORMATS:
            code, out, _ = run("canon", "--m", str(m), "--k", str(k),
                               "--out", fmt, left)
            assert (code, out) == (0, json.dumps(json.loads(out)) + "\n")
    assert verdicts == {True, False}
    code, out, _ = run("table", "--m-range", "2..4", "--k-range", "1..3",
                       "--length-range", "0..30", "--format", "json")
    assert code == 0
    assert out == "".join(json.dumps(json.loads(line)) + "\n"
                          for line in out.splitlines())


def test_the_record_writer_is_json_dumps_on_seeded_records():
    # Any subset of the kinds of value the records hold, in any order:
    # a verdict, writer text, counts, signatures and pairs of them.
    rng = random.Random(21)

    def ints(most):
        return [rng.randint(0, 10**rng.randint(0, 30))
                for _ in range(rng.randint(0, most))]

    for _ in range(300):
        values = {"equivalent": rng.random() < 0.5,
                  "canonical": "".join(rng.choices("x0123456789*()NS,",
                                                   k=rng.randint(0, 12))),
                  "length": rng.randint(0, 99),
                  "signature": ints(4),
                  "signatures": [ints(3) for _ in range(rng.randint(0, 2))]}
        record = {key: values[key] for key in
                  rng.sample(sorted(values), rng.randint(0, len(values)))}
        assert cli._json(record) == json.dumps(record)


def test_table_skips_lengths_with_no_trees(run):
    code, out, _ = run("table", "--m-range", "3", "--k-range", "1",
                       "--length-range", "1")
    assert (code, out) == (0, "m,k,length,count\n")


def test_table_has_a_row_at_length_0(run):
    code, out, _ = run("table", "--m-range", "2..3", "--k-range", "2",
                       "--length-range", "0..2")
    assert (code, out) == (0, "m,k,length,count\n2,2,0,1\n2,2,1,1\n"
                              "2,2,2,2\n3,2,0,1\n3,2,2,1\n")


def test_table_matches_library_and_is_deterministic(run):
    argv = ("table", "--m-range", "2..3", "--k-range", "1..2",
            "--length-range", "1..4")
    code, out, _ = run(*argv)
    assert code == 0
    again = run(*argv)
    assert again == (code, out, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows  # the grid is not empty
    for m, k, length, count in rows:
        expected = fusscat.counting.modular_fuss_catalan(
            fusscat.Params(int(m), int(k)), int(length))
        assert int(count) == expected


@pytest.mark.parametrize("flag", ["--m-range", "--k-range", "--length-range"])
def test_table_refuses_an_empty_range(run, flag):
    ranges = {"--m-range": "2..3", "--k-range": "1", "--length-range": "1..3"}
    ranges[flag] = "4..2"
    code, out, err = run("table", *(x for pair in ranges.items() for x in pair))
    assert (code, out) == (2, "")
    assert "argument %s: empty range 4..2" % flag in err


# -------------------------------------------------------------------- verify

def test_verify_clean_grid(run):
    code, out, _ = run("verify", "--m-range", "2..3", "--k-range", "1..2",
                       "--max-length", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "checked 12 cells, 0 mismatches"
    assert all(line.endswith(" ok") for line in lines[:-1])
    assert "m=2 k=1 length=1 formula=1 brute=1 ok" in lines


def test_verify_with_classes(run):
    code, out, _ = run("verify", "--m-range", "3", "--k-range", "2",
                       "--max-length", "6", "--classes")
    assert code == 0
    assert "m=3 k=2 length=6 formula=10 brute=10 classes=10 ok" in \
        out.splitlines()


def test_verify_skips_classes_over_budget(run, monkeypatch):
    monkeypatch.setenv("FUSSCAT_BUDGET", "5")
    code, out, _ = run("verify", "--m-range", "3", "--k-range", "2",
                       "--max-length", "6", "--classes")
    assert code == 0
    lines = out.splitlines()
    assert "m=3 k=2 length=6 formula=10 brute=skipped classes=skipped ok" \
        in lines
    assert "m=3 k=2 length=4 formula=3 brute=3 classes=3 ok" in lines


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
def test_verify_classes_at_the_budget_edge_builds_no_tree():
    # (2, 3, 13) has 742,900 trees, the most the default budget admits at
    # m = 2.  The classes route holds one residue key per class: building
    # the classes there took 286 MiB peak RSS.  The child reads its own
    # peak, VmHWM in KiB: ru_maxrss would keep the peak of this process,
    # from which the child was forked.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("FUSSCAT_BUDGET", None)
    code = ("import sys\n"
            "from fusscat.cli import main\n"
            "code = main(['verify', '--m-range', '2', '--k-range', '3', "
            "'--max-length', '13', '--classes'])\n"
            "for line in open('/proc/self/status'):\n"
            "    if line.startswith('VmHWM:'):\n"
            "        print(line.split()[1], file=sys.stderr)\n"
            "sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == [
        "m=2 k=3 length=13 formula=143365 brute=143365 classes=143365 ok",
        "checked 13 cells, 0 mismatches"]
    assert int(done.stderr) < 64 * 1024


def test_verify_skips_the_brute_over_budget(run):
    # The brute may walk min(Catalan(L), 2^(L-1)) tuples at k = 2: the
    # default budget admits 2^19 at L = 20, though the trees pass it from
    # L = 14 (Catalan(14) = 2,674,440), and stops the brute at L = 21.
    # The formula still runs in every cell.
    start = time.monotonic()
    code, out, _ = run("verify", "--m-range", "2", "--k-range", "2",
                       "--max-length", "30")
    assert time.monotonic() - start < 10.0
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "checked 30 cells, 0 mismatches"
    assert "m=2 k=2 length=14 formula=8192 brute=8192 ok" in lines
    assert "m=2 k=2 length=20 formula=524288 brute=524288 ok" in lines
    assert "m=2 k=2 length=21 formula=1048576 brute=skipped ok" in lines
    assert "m=2 k=2 length=30 formula=%d brute=skipped ok" % 2**29 in lines


def test_verify_skips_the_formula_past_its_work_limit(run, monkeypatch):
    # At k = 1 the sum has L + 1 terms: work 13 * 12**2 = 1872 <= 2000 at
    # L = 12, and 14 * 13**2 = 2366 > 2000 at L = 13, where the brute
    # still counts.
    monkeypatch.setattr(fusscat.formula, "FORMULA_WORK_LIMIT", 2000)
    code, out, err = run("verify", "--m-range", "2", "--k-range", "1",
                         "--max-length", "13")
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == [
        "m=2 k=1 length=12 formula=1 brute=1 ok",
        "m=2 k=1 length=13 formula=skipped brute=1 ok",
        "checked 13 cells, 0 mismatches"]
    # With the brute over budget there too (its one tuple at k = 1 has L
    # entries), no route runs at L = 13: that cell is not checked.
    monkeypatch.setenv("FUSSCAT_BUDGET", "12")
    code, out, err = run("verify", "--m-range", "2", "--k-range", "1",
                         "--max-length", "13")
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == [
        "m=2 k=1 length=12 formula=1 brute=1 ok",
        "m=2 k=1 length=13 formula=skipped brute=skipped unchecked",
        "checked 12 cells, 0 mismatches"]


@pytest.mark.parametrize("name,argv,cell", [
    ("modular_fuss_catalan", (), "formula=2 brute=1 MISMATCH"),
    ("count_minimal_brute", (), "formula=1 brute=2 MISMATCH"),
    ("_count_classes", ("--classes",), "formula=1 brute=1 classes=2 MISMATCH"),
], ids=["formula", "brute", "classes"])
def test_verify_reports_mismatches(run, monkeypatch, name, argv, cell):
    # One route counts one class too many at L = 2
    right = getattr(fusscat.counting, name)

    def wrong(params, length):
        return right(params, length) + (length == 2)

    monkeypatch.setattr(fusscat.counting, name, wrong)
    code, out, _ = run("verify", "--m-range", "2", "--k-range", "1",
                       "--max-length", "3", *argv)
    agree = "formula=1 brute=1%s ok" % (" classes=1" if argv else "")
    assert code == 1
    assert out.splitlines() == ["m=2 k=1 length=1 " + agree,
                                "m=2 k=1 length=2 " + cell,
                                "m=2 k=1 length=3 " + agree,
                                "checked 3 cells, 1 mismatches"]


@pytest.mark.parametrize("argv,message", [
    (("--m-range", "3..2", "--max-length", "4"), "empty range 3..2"),
    (("--k-range", "2..1", "--max-length", "4"), "empty range 2..1"),
    (("--max-length=-2",), "--max-length -2 leaves no cell to check; "
                           "the shortest is 1"),
    (("--max-length", "-1"), "--max-length -1 leaves no cell"),
    (("--m-range", "3..4", "--max-length", "1"), "--max-length 1 leaves "
                                                 "no cell to check; the "
                                                 "shortest is 2"),
])
def test_verify_refuses_an_empty_grid(run, argv, message):
    ranges = {"--m-range": "2", "--k-range": "1"}
    for flag in argv[:1]:
        ranges.pop(flag, None)
    code, out, err = run("verify", *argv,
                         *(x for pair in ranges.items() for x in pair))
    assert (code, out) == (2, "")
    assert message in err


def test_verify_checks_a_grid_that_only_its_least_arity_fills(run):
    code, out, _ = run("verify", "--m-range", "2..3", "--k-range", "1",
                       "--max-length", "1")
    assert code == 0
    assert out.splitlines() == ["m=2 k=1 length=1 formula=1 brute=1 ok",
                                "checked 1 cells, 0 mismatches"]


# ------------------------------------------------------------------- general

def test_version(run):
    assert run("--version") == (0, "fusscat %s\n" % fusscat.__version__, "")
    assert fusscat.__version__ == "0.1.0"


def test_missing_subcommand_is_a_usage_error(run):
    code, _, err = run()
    assert code == 2
    assert "usage" in err


def test_unknown_subcommand_is_a_usage_error(run):
    code, _, _ = run("frobnicate")
    assert code == 2


# What the parent of the table-driven parser printed (code, stdout,
# stderr) for the help of the top level and of each command, and for a
# usage error of each, at 80 columns; Python 3.10 to 3.12 print the same
# text, and 3.13's argparse words its help differently.
_HELP_AND_ERRORS = (
    [["-h"]] + [[command, "-h"] for command in cli._COMMANDS] + [
        [], ["frobnicate"], ["count", "--m", "3", "--k", "2"],
        ["count", "--m", "3", "--k", "2", "--length", "6", "--bogus"],
        ["equiv", "--m", "2", "--k", "2", "x1*x2"],
        ["canon", "--m", "2", "--k", "2", "--in", "ns", "x"],
        ["convert", "--m", "2", "--from", "expr", "x"],
        ["table", "--m-range", "3..2", "--k-range", "1", "--length-range",
         "1"],
        ["verify", "--m-range", "2", "--k-range", "1", "--max-length", "x"]])
_HELP_AND_ERRORS_DIGEST = dict.fromkeys(
    [(3, 10), (3, 11), (3, 12)],
    "828c28f36ceafbb2d6c47f5c4ee924a514fb9e5610e0a3e7be57d1f30680e841")
_HELP_AND_ERRORS_DIGEST[3, 13] = (
    "c2f4b3a3ca894d6bdfd2f564b179e9d8fa6b68224523fd9c6b5408a8795f37fc")


def test_help_and_usage_errors_are_argparse_text_unchanged(run, monkeypatch):
    want = _HELP_AND_ERRORS_DIGEST.get(sys.version_info[:2])
    if want is None:
        pytest.skip("no digest recorded for this Python version")
    monkeypatch.setenv("COLUMNS", "80")
    outs = [run(*argv) for argv in _HELP_AND_ERRORS]
    assert all(code in (0, 2) for code, _, _ in outs)
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == want


def test_unexpected_exception_exits_3(run, monkeypatch):
    def broken(d, params):
        raise ValueError("boom")

    monkeypatch.setattr(fusscat.dyck, "signature", broken)
    code, out, err = run("equiv", "--m", "3", "--k", "2", "x1*x2*x3",
                         "x1*x2*x3")
    assert (code, out) == (3, "")
    assert err == "error: internal: ValueError: boom\n"


def test_a_closed_stdout_exits_2(run, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr("sys.stdout", Closed())
    code, _, err = run("count", "--m", "3", "--k", "2", "--length", "6")
    assert (code, err) == (2, "")


def _dash_m(module: str) -> tuple[int, str, str]:
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", module, "count", "--m", "3", "--k", "2",
         "--length", "6"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_python_dash_m_runs_the_cli():
    assert _dash_m("fusscat.cli") == (0, "10\n", "")


def test_python_dash_m_fusscat_runs_the_cli():
    assert _dash_m("fusscat") == (0, "10\n", "")


# ---------------------------------------------------------------------- fuzz

# Sizes stay small or far past a limit, so every run ends at once: a
# huge length is refused before any work, a small one is counted fast.
_FUZZ_NUMBERS = ["0", "1", "2", "3", "4", "5", "6", "8", "-1", "-7", "",
                 "x", "2.5", "1e3", "+3", "0_2", "\u0662", "10" * 40,
                 "9" * 5000, "1000000", "1000000000000", str(2**63)]
_FUZZ_RANGES = ["1", "2", "3", "2..4", "1..3", "4..2", "0..2", "x..3",
                "2..", "..3", "-1..1", "1000000"]
_FUZZ_LENGTH_RANGES = ["0..12", "5", "12..0", "0..x", "1000000",
                       "2000000..2000001", "-3..3"]
_FUZZ_TUPLES = ["(2,0,2,0)", "NNSSNNSS", "(1,0)", "(1)", "()", "", "NSX",
                "(+2,0)", "(0_2,0)", "(\u0662,0)", "(-2,2)", "(02,00)",
                "(1%s,0)" % ("0" * 5000), "(%s1)" % ("0" * 4999),
                "(-%s2,0)" % ("0" * 5000), "(%s)" % ("9" * 5000)]


def _fuzz_expression(rng, m, nodes):
    """A random m-ary product of nodes * (m-1) + 1 operands, after one edit
    a third of the time."""
    items = ["x"] * (nodes * (m - 1) + 1)
    while len(items) > 1:
        at = rng.randrange(len(items) - m + 1)
        items[at:at + m] = ["(%s)" % "*".join(items[at:at + m])]
    text = items[0].removeprefix("(").removesuffix(")")
    return edit_once(rng, text, "x*() ,") if rng.random() < 0.3 else text


def _fuzz_text(rng, m):
    if rng.random() < 0.5:
        return _fuzz_expression(rng, m, rng.randrange(8))
    text = rng.choice(_FUZZ_TUPLES)
    return edit_once(rng, text, "(),-0129NS ") if text and rng.random() < 0.3 \
        else text


def _fuzz_argv(rng):
    flag = rng.random

    def number():  # most often a valid arity or degree
        return rng.choice(("2", "3") if flag() < 0.6 else _FUZZ_NUMBERS)

    def span():  # most often a valid range
        return rng.choice(("2", "1..3") if flag() < 0.5 else _FUZZ_RANGES)

    command = rng.choice(("count", "equiv", "canon", "convert", "table",
                          "verify", "other"))
    m = number()
    arity = int(m) if m in ("2", "3") else 2  # of the texts
    if command == "count":
        size = rng.choice(("--length", "--leaves"))
        length = str(rng.randrange(12)) if flag() < 0.6 else number()
        return ["count", "--m", m, "--k", number(), size, length,
                *(["--brute"] if flag() < 0.4 else [])]
    if command == "equiv":
        nodes = rng.randrange(8)
        return ["equiv", "--m", m, "--k", number(),
                _fuzz_expression(rng, arity, nodes),
                _fuzz_expression(rng, arity, nodes)]
    if command == "canon":
        return ["canon", "--m", m, "--k", number(),
                "--in", rng.choice(("expr", "dyck", "ns")),
                "--out", rng.choice(("expr", "tuple", "ns", "dyck")),
                _fuzz_text(rng, arity)]
    if command == "convert":
        return ["convert", "--m", m, "--from", rng.choice(("expr", "dyck")),
                "--to", rng.choice(("expr", "tuple", "ns")),
                _fuzz_text(rng, arity)]
    if command == "table":
        return ["table", "--m-range", span(), "--k-range", span(),
                "--length-range", rng.choice(_FUZZ_LENGTH_RANGES),
                "--format", rng.choice(("csv", "json", "xml"))]
    if command == "verify":
        return ["verify", "--m-range", span(), "--k-range", span(),
                "--max-length", rng.choice(("-2", "0", "1", "4", "6", "x")),
                *(["--classes"] if flag() < 0.5 else [])]
    return rng.choice(([], ["--version"], ["frobnicate"], ["count"],
                       ["table", "--m-range"], ["equiv", "--m", "2"]))


def _fuzz_runs():
    """The fuzz's seeded runs: argv, FUSSCAT_BUDGET (None for unset) and
    the stdin that a "-" operand reads."""
    rng = random.Random(19)
    for _ in range(2500):
        argv = _fuzz_argv(rng)
        budget = rng.choice((None, "50", "x", "-1"))
        yield argv, budget, _fuzz_expression(rng, 2, 3) + "\n"


def _set_budget(monkeypatch, budget):
    if budget is None:
        monkeypatch.delenv("FUSSCAT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("FUSSCAT_BUDGET", budget)


def test_fuzzed_argv_keep_the_exit_code_contract(run, monkeypatch):
    # Random argv over every command, with malformed numbers, ranges and
    # texts: each exit is 0, 1 or 2, and only exit 2 writes to stderr, in
    # one "error:" line.  Exit 3 would be a crash.
    for argv, budget, stdin in _fuzz_runs():
        _set_budget(monkeypatch, budget)
        code, out, err = run(*argv, stdin=stdin)
        shown = [a if len(a) < 40 else "%d chars" % len(a) for a in argv]
        assert code in (0, 1, 2), (shown, err[:200])
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, \
                (shown, err[:200])
        else:
            assert err == "", (shown, err[:200])


def test_the_plain_reader_reads_as_argparse_does(capsys):
    # Seeded argv over every command, half with two tokens swapped: each
    # that the plain reader takes, argparse's full parser reads to the
    # same namespace.  The rest go to argparse in main.
    rng = random.Random(22)
    parser = cli._build_parser()
    taken = tried = 0
    for _ in range(2500):
        argv = _fuzz_argv(rng)
        swapped = list(argv)
        if len(argv) > 1:
            i, j = rng.sample(range(len(argv)), 2)
            swapped[i], swapped[j] = argv[j], argv[i]
        for case in (argv, swapped):
            tried += 1
            plain = cli._plain(case)
            if plain is None:
                continue
            taken += 1
            try:
                full = vars(parser.parse_args(case))
            except SystemExit:
                full = capsys.readouterr().err
            assert vars(plain) == full, case
    assert taken > tried // 4


# ------------------------------------------------------------ frozen outputs

# Per command: how many runs, and the SHA-256 of their (argv, exit code,
# stdout, stderr) in order, over the runs below that the plain reader
# takes, as the CLI printed them before the writer cached its leaf names.
_OUTPUT_DIGESTS = {
    "count": (309, "18af16ab0bcd4531e1e97a852e8d8f60"
                   "6a38920234e7b242cd12e36561b7c80c"),
    "equiv": (352, "1da18e2eb171123bc9f87e37e0415b19"
                   "b679ca0cc66e931eac3d3574044c5899"),
    "canon": (203, "989a2e58bf9cac1dd2c2fc3bba34b33f"
                   "a8ece14ca93f0964d92c8d427bfbf6c0"),
    "convert": (274, "22b70a618831eb134a229fc68cb51766"
                     "f3ea939c025deab399363c283bfc23b2"),
    "table": (156, "b31d5e0f5da7e83dce0e96897753b6b8"
                   "527820582591518c1b7380f8c690f9dc"),
    "verify": (208, "f6ff11feb843ff40b8a13ac42e647056"
                    "0fdb677880fa9082d70db4c92f08866e"),
}


def _oneshot_argv(monkeypatch) -> list[list[str]]:
    """The 300 argv of the cli_oneshot benchmark's seeds 1 to 3, as
    perfbench/workloads.py makes them."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    from workloads import CliOneshot

    return [inp["argv"] for seed in (1, 2, 3)
            for inp in CliOneshot().make(seed)]


def test_every_command_prints_what_it_printed_before(run, monkeypatch):
    # Characterization: the benchmark's command lines with no budget set,
    # then the fuzz's with their budgets and stdin.  Argv that argparse
    # reads print its version-dependent text, so they are left out, as is
    # a number past the 4,300 digits that int() reads from Python 3.11
    # on, which only Python 3.10's plain reader takes.
    start = time.monotonic()
    runs = [(argv, None, None) for argv in _oneshot_argv(monkeypatch)]
    hashes = {}
    for argv, budget, stdin in runs + list(_fuzz_runs()):
        if cli._plain(argv) is None or any(
                a.isdigit() and len(a) > 4300 for a in argv):
            continue
        _set_budget(monkeypatch, budget)
        count, digest = hashes.setdefault(argv[0], [0, hashlib.sha256()])
        digest.update(repr((argv, *run(*argv, stdin=stdin))).encode())
        hashes[argv[0]][0] += 1
    assert {command: (count, digest.hexdigest())
            for command, (count, digest) in hashes.items()} == _OUTPUT_DIGESTS
    assert time.monotonic() - start < 3.0
