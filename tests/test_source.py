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
