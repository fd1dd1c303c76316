"""Command-line behaviour, exercised in-process through cli.main."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

import fusscat.cli as cli
import fusscat.counting
import fusscat.dyck


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


def test_count_requires_exactly_one_size_flag(run):
    code, _, _ = run("count", "--m", "3", "--k", "2",
                     "--length", "6", "--leaves", "7")
    assert code == 2
    code, _, _ = run("count", "--m", "3", "--k", "2")
    assert code == 2


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


def test_convert_has_no_dyck_prefixed_words(run):
    for argv in (("--from", "dyck-ns", "--to", "expr"),
                 ("--from", "dyck-tuple", "--to", "expr"),
                 ("--from", "expr", "--to", "dyck-ns"),
                 ("--from", "expr", "--to", "dyck-tuple")):
        code, out, err = run("convert", "--m", "3", *argv, "x1*x2*x3")
        assert (code, out) == (2, "")
        assert "invalid choice" in err


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


def test_table_skips_lengths_with_no_trees(run):
    code, out, _ = run("table", "--m-range", "3", "--k-range", "1",
                       "--length-range", "1")
    assert (code, out) == (0, "m,k,length,count\n")


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
    assert "m=3 k=2 length=6 formula=10 brute=10 classes=skipped ok" in lines
    assert "m=3 k=2 length=4 formula=3 brute=3 classes=3 ok" in lines


def test_verify_reports_mismatches(run, monkeypatch):
    monkeypatch.setattr(fusscat.counting, "modular_fuss_catalan",
                        lambda params, length: 999)
    code, out, _ = run("verify", "--m-range", "2", "--k-range", "1",
                       "--max-length", "3")
    assert code == 1
    lines = out.splitlines()
    assert all(line.endswith(" MISMATCH") for line in lines[:-1])
    assert lines[-1] == "checked 3 cells, 3 mismatches"


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


def test_unexpected_exception_exits_3(run, monkeypatch):
    def broken(d, params):
        raise ValueError("boom")

    monkeypatch.setattr(fusscat.dyck, "signature", broken)
    code, out, err = run("equiv", "--m", "3", "--k", "2", "x1*x2*x3",
                         "x1*x2*x3")
    assert (code, out) == (3, "")
    assert err == "error: internal: ValueError: boom\n"


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "fusscat.cli", "count", "--m", "3", "--k",
         "2", "--length", "6"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "10\n", "")
