"""The text reader against perfbench/reference.py, which reads text into
nested tuples by its own definitions and does not use fusscat.

Random trees are written by the reference writer, with '*' often turned
into runs of whitespace and the parentheses padded, and must read back
as the same path tuple both ways.  Edited ASCII texts must be accepted
or refused by both readers alike, and read alike where accepted.
"""

from __future__ import annotations

import importlib.util
import os
import random

import pytest

import fusscat as fc
from fusscat.expr import _read
from conftest import edit_once


def _load_reference():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "reference.py")
    spec = importlib.util.spec_from_file_location("reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference()

_GAPS = (" ", "  ", "\t", "\n", " \t ", "\n\n", "\t\n ")
_ASCII_EDITS = "*()$1x_ \t\n\x0b\x0c"


def _spread(rng: random.Random, text: str) -> str:
    """text with about half its '*' turned into whitespace runs and about
    a third of its parentheses padded on either side."""
    out = []
    for c in text:
        if c == "*" and rng.random() < 0.5:
            out.append(rng.choice(_GAPS))
        elif c in "()" and rng.random() < 0.3:
            out.append(rng.choice(_GAPS) + c + rng.choice(_GAPS))
        else:
            out.append(c)
    return "".join(out)


def _texts(m: int, count: int, max_leaves: int):
    """(entries, written text) for random trees at arity m."""
    rng = random.Random("differential:%d" % m)
    for _ in range(count):
        leaves = 1 + (m - 1) * rng.randint(0, (max_leaves - 1) // (m - 1))
        entries = ref.random_tuple(rng, m, leaves)
        text = ref.write_text(ref.tuple_to_tree(entries, m))
        yield entries, _spread(rng, text)


def _ours(text: str, params: fc.Params):
    try:
        return _read(text, params).entries
    except (fc.ParseError, fc.ArityError):
        return None


def _theirs(text: str, m: int):
    try:
        return ref.text_to_tuple(text, m)
    except ValueError:
        return None


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_written_texts_read_as_the_reference_reads_them(m):
    params = fc.Params(m, 1)
    for entries, text in _texts(m, 60, 400):
        assert _read(text, params).entries == ref.text_to_tuple(text, m) \
            == entries, text


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_edited_texts_are_refused_as_the_reference_refuses_them(m):
    params = fc.Params(m, 1)
    rng = random.Random("differential edits:%d" % m)
    accepted = 0
    for _, text in _texts(m, 400, 25):
        text = edit_once(rng, text, _ASCII_EDITS)
        ours = _ours(text, params)
        assert ours == _theirs(text, m), text
        accepted += ours is not None
    assert 0 < accepted < 400  # both outcomes are exercised
