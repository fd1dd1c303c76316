"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import fusscat as fc

SOURCES = sorted(Path(fc.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts; invariant checks raise
    # InternalInvariantError instead, so they run in every mode.
    assert SOURCES
    found = ["%s:%d" % (path.name, node.lineno)
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares Python >= 3.10; a newer syntax fails here
    # on any interpreter that runs the suite.
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_no_record_field_is_set_through_object_setattr():
    # Each record sets its fields through its own slots' setters, bound
    # once at import: the generic object.__setattr__ path cost most of a
    # cold Params(m, k), and count_table builds one per op.  Any mention
    # counts, a call or an alias of it.
    found = ["%s:%d" % (path.name, node.lineno)
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert found == []


def test_the_tree_layer_imports_no_tuple_layer():
    # dyck builds on tree; tree decodes its own roots, so the import runs
    # one way only.
    path = Path(fc.__file__).parent / "tree.py"
    found = [node.lineno
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and any("dyck" in name
                     for name in [getattr(node, "module", None) or ""]
                     + [alias.name for alias in node.names])]
    assert found == []
