"""What a fresh interpreter loads: `import fusscat` loads none of the
package's modules, the CLI module leaves the layers, json and
dataclasses to the commands that need them, argparse is loaded only for
help, --version and a command line the plain reader leaves to it, and
neither a plain command nor any one module loads typing."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import fusscat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fusscat.__file__)))
MODULES = sorted("fusscat" + ("" if name == "__init__" else "." + name)
                 for name, ext in map(os.path.splitext, os.listdir(
                     os.path.dirname(fusscat.__file__))) if ext == ".py")

WATCHED = ("__future__", "argparse", "dataclasses", "json")


def _fresh(statements: str, *flags: str) -> tuple[list[str], list[str]]:
    """Run `statements` in a new interpreter started with `flags`; return
    the lines they print and the fusscat modules plus WATCHED modules it
    then holds."""
    code = (statements + "\nimport sys\n"
            "loaded = sorted(m for m in sys.modules if m == 'fusscat' or "
            "m.startswith('fusscat.') or m in %r)\n"
            "import json\nprint(json.dumps(loaded))\n" % (WATCHED,))
    done = subprocess.run([sys.executable, *flags, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC, COLUMNS="80"),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *printed, loaded = done.stdout.splitlines()
    return printed, json.loads(loaded)


def test_import_fusscat_loads_no_submodule():
    assert _fresh("import fusscat") == ([], ["fusscat"])


def test_import_cli_leaves_the_layers_json_and_dataclasses_out():
    assert _fresh("import fusscat.cli") == (
        [], ["fusscat", "fusscat.cli", "fusscat.errors", "fusscat.params"])


def test_count_loads_only_the_formula():
    printed, loaded = _fresh(
        "import fusscat.cli\n"
        "code = fusscat.cli.main(['count', '--m', '3', '--k', '2', "
        "'--length', '6'])\n"
        "print(code)")
    assert printed == ["10", "0"]
    assert loaded == ["fusscat", "fusscat.cli", "fusscat.errors",
                      "fusscat.formula", "fusscat.params"]


def test_count_of_one_operand_loads_only_the_formula():
    printed, loaded = _fresh(
        "import fusscat.cli\n"
        "code = fusscat.cli.main(['count', '--m', '3', '--k', '2', "
        "'--leaves', '1'])\n"
        "print(code)")
    assert printed == ["1", "0"]
    assert loaded == ["fusscat", "fusscat.cli", "fusscat.errors",
                      "fusscat.formula", "fusscat.params"]


def test_version_loads_no_layer():
    printed, loaded = _fresh(
        "import fusscat.cli\n"
        "try:\n"
        "    fusscat.cli.main(['--version'])\n"
        "except SystemExit as stop:\n"
        "    print(stop.code)")
    assert printed == ["fusscat 0.1.0", "0"]
    assert loaded == ["argparse", "fusscat", "fusscat.cli", "fusscat.errors",
                      "fusscat.params"]


_COUNT_HELP = """\
usage: fusscat count [-h] --m M --k K (--length LENGTH | --leaves LEAVES)
                     [--brute]

options:
  -h, --help       show this help message and exit
  --m M            arity (>= 2)
  --k K            associativity degree (>= 1)
  --length LENGTH  tuple length L
  --leaves LEAVES  leaf count N (= L + 1)
  --brute          count by enumeration instead of the formula
0""".splitlines()


@pytest.mark.parametrize("argv,printed", [
    (["count", "-h"], _COUNT_HELP),
    (["count", "--m", "3", "--k", "2"], [
        "usage: fusscat count [-h] --m M --k K (--length LENGTH | --leaves "
        "LEAVES)", "                     [--brute]",
        "fusscat count: error: one of the arguments --length --leaves is "
        "required", "2"]),
], ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse_and_no_layer(argv, printed):
    assert _fresh(
        "import sys, fusscat.cli\n"
        "sys.stderr = sys.stdout\n"
        "try:\n"
        "    fusscat.cli.main(%r)\n"
        "except SystemExit as stop:\n"
        "    print(stop.code)" % (argv,)) == (
        printed, ["argparse", "fusscat", "fusscat.cli", "fusscat.errors",
                  "fusscat.params"])


def test_every_public_name_resolves_lazily():
    printed, _ = _fresh(
        "import json, fusscat\n"
        "names = fusscat.__all__\n"
        "unresolved = [n for n in names if getattr(fusscat, n, None) is None]\n"
        "unlisted = sorted(set(names) - set(dir(fusscat)))\n"
        "star = {}\n"
        "exec('from fusscat import *', star)\n"
        "print(json.dumps([unresolved, unlisted, sorted(set(names) - set(star)),"
        " len(names), fusscat.__version__]))")
    assert json.loads(printed[0]) == [[], [], [], 43, "0.1.0"]


def test_unknown_attribute_is_an_attribute_error():
    printed, loaded = _fresh(
        "import fusscat\n"
        "print(hasattr(fusscat, 'no_such_name'))")
    assert (printed, loaded) == (["False"], ["fusscat"])


def test_a_read_that_succeeds_compiles_no_pattern():
    # The reader compiles its patterns on its first error, so importing
    # it and reading valid text, Unicode names included, compiles none.
    printed, _ = _fresh(
        "import re\n"
        "compile_ = re._compile\n"
        "def refuse(*args):\n"
        "    raise AssertionError('compiled %r' % (args[0],))\n"
        "re._compile = refuse\n"
        "from fusscat import Params\n"
        "from fusscat.expr import _read\n"
        "print(_read('(αβ*x٣ ²)*x10*a_b9', Params(3, 2)).entries)\n"
        "re._compile = compile_")
    assert printed == ["(4, 0, 0, 0)"]


_TEXT_LAYERS = ["fusscat", "fusscat.cli", "fusscat.dyck", "fusscat.errors",
                "fusscat.expr", "fusscat.params"]


@pytest.mark.parametrize("argv,printed", [
    (["equiv", "--m", "3", "--k", "2", "(x1*x2*x3)*x4*x5", "x1*x2*x3*x4*x5"],
     ['{"equivalent": true, "signatures": [[0, 0, 0], [0, 0, 0]], '
      '"canonical": "x1*x2*x3*x4*x5"}', "0"]),
    (["canon", "--m", "2", "--k", "2", "x1*(x2*x3)"],
     ['{"canonical": "x1*(x2*x3)", "signature": [1]}', "0"]),
    (["convert", "--m", "3", "--from", "expr", "--to", "tuple",
      "x1*x2*(x3*x4*x5)"], ["(2,0,2,0)", "0"]),
], ids=["equiv", "canon", "convert"])
def test_text_commands_load_the_tuple_and_text_layers_only(argv, printed):
    # No tree, rotation or counting module, and no json: the records are
    # written by hand.
    assert _fresh("import fusscat.cli\n"
                  "code = fusscat.cli.main(%r)\n"
                  "print(code)" % (argv,)) == (printed, _TEXT_LAYERS)


def test_verify_classes_loads_the_walker_and_no_tree():
    printed, loaded = _fresh(
        "import fusscat.cli\n"
        "code = fusscat.cli.main(['verify', '--m-range', '2..3', "
        "'--k-range', '2', '--max-length', '6', '--classes'])\n"
        "print(code)")
    assert printed[-2:] == ["checked 9 cells, 0 mismatches", "0"]
    assert loaded == ["fusscat", "fusscat.cli", "fusscat.counting",
                      "fusscat.dyck", "fusscat.errors", "fusscat.formula",
                      "fusscat.params"]


@pytest.mark.parametrize("argv,printed,layers", [
    (["count", "--m", "2", "--k", "2", "--length", "4", "--brute"],
     ["8", "0"], ["fusscat.counting", "fusscat.formula"]),
    (["table", "--m-range", "2..3", "--k-range", "1..2", "--length-range",
      "4", "--format", "json"],
     ['{"m": 2, "k": 1, "length": 4, "count": "1"}',
      '{"m": 2, "k": 2, "length": 4, "count": "8"}',
      '{"m": 3, "k": 1, "length": 4, "count": "1"}',
      '{"m": 3, "k": 2, "length": 4, "count": "3"}', "0"],
     ["fusscat.formula"]),
    (["verify", "--m-range", "2", "--k-range", "2", "--max-length", "2"],
     ["m=2 k=2 length=1 formula=1 brute=1 ok",
      "m=2 k=2 length=2 formula=2 brute=2 ok",
      "checked 2 cells, 0 mismatches", "0"],
     ["fusscat.counting", "fusscat.formula"]),
], ids=["count-brute", "table", "verify"])
def test_counting_commands_load_the_formula_and_what_else_they_run(
        argv, printed, layers):
    # table loads the formula alone; the brute and verify add counting.
    assert _fresh("import fusscat.cli\n"
                  "code = fusscat.cli.main(%r)\n"
                  "print(code)" % (argv,)) == (printed, sorted(
                      ["fusscat", "fusscat.cli", "fusscat.errors",
                       "fusscat.params"] + layers))


@pytest.mark.parametrize("argv", [
    ["count", "--m", "3", "--k", "2", "--length", "6"],
    ["equiv", "--m", "3", "--k", "2", "(x1*x2*x3)*x4*x5", "x1*x2*x3*x4*x5"],
    ["canon", "--m", "2", "--k", "2", "x1*(x2*x3)"],
    ["table", "--m-range", "2..3", "--k-range", "1..2", "--length-range",
     "4"],
    ["verify", "--m-range", "2..3", "--k-range", "2", "--max-length", "6",
     "--classes"],
], ids=["count", "equiv", "canon", "table", "verify-classes"])
def test_plain_commands_never_import_typing(argv):
    # Under -S, as where start-up loads no site module: some interpreters'
    # site imports typing, which would hide an import of it here.  Before
    # Python 3.13, typing also loads re.
    printed, _ = _fresh("import sys, fusscat.cli\n"
                        "code = fusscat.cli.main(%r)\n"
                        "print(code, 'typing' in sys.modules)" % (argv,), "-S")
    assert printed[-1] == "0 False"


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_typing(module):
    # Each module takes typing's TYPE_CHECKING flag as a plain False, so
    # importing any one of them, under -S as above, loads no typing.
    printed, _ = _fresh("import sys, %s\n"
                        "print('typing' in sys.modules)" % module, "-S")
    assert printed == ["False"]
