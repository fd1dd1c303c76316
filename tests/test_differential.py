"""The text reader, and the classes and moves of a large-arity cell,
against perfbench/reference.py, which reads text into nested tuples and
rotates them by its own definitions and does not use fusscat.

Random trees are written by the reference writer, with '*' often turned
into runs of whitespace, the parentheses padded and the names x1..xN
renamed, and must read back as the same path tuple both ways.  Edited
ASCII texts must be accepted or refused by both readers alike, and read
alike where accepted.  The texts fusscat writes, in both styles, must
read back through the reference reader as the tuples they were written
from.
"""

from __future__ import annotations

import importlib.util
import os
import random
import re
import string
import time

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


_FIRST = string.ascii_letters + "_"
_LATER = _FIRST + string.digits


def _renamed(rng: random.Random, text: str) -> str:
    """text with each name x1..xN replaced by a random ASCII name of two
    to six characters, digits allowed after the first."""
    return re.sub(r"x\d+", lambda _: rng.choice(_FIRST) + "".join(
        rng.choices(_LATER, k=rng.randint(1, 5))), text)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_written_texts_read_as_the_reference_reads_them(m):
    params = fc.Params(m, 1)
    rng = random.Random("differential names:%d" % m)
    for entries, text in _texts(m, 60, 400):
        text = _renamed(rng, text)
        assert _read(text, params).entries == ref.text_to_tuple(text, m) \
            == entries, text


def test_fusscat_texts_read_back_through_the_reference():
    # 200 seeded tuples per arity m = 2..5, of up to 360 leaves, each
    # written in both styles: 1,600 texts within a few seconds.
    start = time.monotonic()
    for m in (2, 3, 4, 5):
        params = fc.Params(m, 1)
        rng = random.Random("differential writer:%d" % m)
        for _ in range(200):
            leaves = 1 + (m - 1) * rng.randint(0, 359 // (m - 1))
            entries = ref.random_tuple(rng, m, leaves)
            t = fc.from_dyck(fc.DyckTuple(entries, m - 1), params)
            for style in ("minimal", "full"):
                text = fc.unparse(t, style)
                assert ref.text_to_tuple(text, m) == entries, (style, text)
    assert time.monotonic() - start < 15.0


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


def _reference_sites(tree, m: int, k: int, direction: str):
    """{site: rotated tuple} for every (address, position) where the
    reference rotation applies."""
    # A leaf heads no chain, so the rotation needs an internal child at
    # position (right) or position + 1 (left).
    shift = direction == "left"
    sites = {}
    todo = [(tree, ())]
    while todo:
        node, address = todo.pop()
        if not node:
            continue
        todo.extend((child, address + (i,))
                    for i, child in enumerate(node, start=1))
        for position in range(1, m):
            if not node[position - 1 + shift]:
                continue
            try:
                turned = ref.rotate(tree, direction, address, position, m, k)
            except ValueError:
                continue
            sites[address, position] = ref.tree_to_tuple(turned, m)
    return sites


@pytest.mark.parametrize("k", [1, 2])
def test_a_large_arity_cell_against_the_reference(k):
    # At m = 300 an entry is 299 times its node count, so the classes,
    # whose runs hold node counts, and the moves, which edit them by k,
    # are checked where counts and entries differ most.
    from test_counting import _reference_classes

    m, leaves = 300, 599
    params = fc.Params(m, k)
    reports = fc.enumerate_classes(params, leaves, with_traces=True)
    assert [(r.representative, r.members, r.traces) for r in reports] \
        == _reference_classes(params, leaves, with_traces=True)
    moves = 0
    for d in fc.enumerate_tuples(params, leaves - 1):
        t = fc.from_dyck(d, params)
        for direction in ("right", "left"):
            sites = _reference_sites(ref.tuple_to_tree(d.entries, m), m, k,
                                     direction)
            assert fc.rotation_sites(t, params, direction) == sorted(sites)
            for site, turned in sites.items():
                assert fc.compress(d, site, params, direction).entries \
                    == turned
            moves += len(sites)
    # k = 1: one class of 300 trees, 299 moves each way; k = 2: two
    # nodes make no chain of two below a child, so 300 singletons.
    assert (len(reports), moves) == ((1, 598) if k == 1 else (300, 0))
