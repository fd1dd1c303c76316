"""What a fresh interpreter loads: `import fusscat` loads none of the
package's modules, and the CLI module leaves the layers, json and
dataclasses to the commands that need them."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import fusscat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fusscat.__file__)))

WATCHED = ("dataclasses", "json")


def _fresh(statements: str) -> tuple[list[str], list[str]]:
    """Run `statements` in a new interpreter; return the lines they print
    and the fusscat modules plus WATCHED modules it then holds."""
    code = (statements + "\nimport sys\n"
            "loaded = sorted(m for m in sys.modules if m == 'fusscat' or "
            "m.startswith('fusscat.') or m in %r)\n"
            "import json\nprint(json.dumps(loaded))\n" % (WATCHED,))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
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
    assert loaded == ["fusscat", "fusscat.cli", "fusscat.counting",
                      "fusscat.errors", "fusscat.params"]


def test_count_of_one_operand_loads_only_the_formula():
    printed, loaded = _fresh(
        "import fusscat.cli\n"
        "code = fusscat.cli.main(['count', '--m', '3', '--k', '2', "
        "'--leaves', '1'])\n"
        "print(code)")
    assert printed == ["1", "0"]
    assert loaded == ["fusscat", "fusscat.cli", "fusscat.counting",
                      "fusscat.errors", "fusscat.params"]


def test_version_loads_no_layer():
    printed, loaded = _fresh(
        "import fusscat.cli\n"
        "try:\n"
        "    fusscat.cli.main(['--version'])\n"
        "except SystemExit as stop:\n"
        "    print(stop.code)")
    assert printed == ["fusscat 0.1.0", "0"]
    assert loaded == ["fusscat", "fusscat.cli", "fusscat.errors",
                      "fusscat.params"]


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
    assert json.loads(printed[0]) == [[], [], [], 46, "0.1.0"]


def test_unknown_attribute_is_an_attribute_error():
    printed, loaded = _fresh(
        "import fusscat\n"
        "print(hasattr(fusscat, 'no_such_name'))")
    assert (printed, loaded) == (["False"], ["fusscat"])
