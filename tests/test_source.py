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
