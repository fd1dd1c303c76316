"""The text reader, the tuple codec, signatures, canonical forms and the
equivalence test, and the classes and moves of a large-arity cell,
against perfbench/reference.py, which reads text into nested tuples,
encodes and rotates them by its own definitions and does not use
fusscat.

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
import sys
import threading
import time

import pytest

import fusscat as fc
from fusscat import expr
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


def _case(entries, exact: bool) -> tuple:
    return (fc.from_dyck(fc.DyckTuple(entries, 1), fc.Params(2, 1)),
            entries, ref.write_text(ref.tuple_to_tree(entries, 2)), exact)


def _cap_cases(rng: random.Random) -> list:
    """(tree, path tuple, reference text, whether fusscat's text is the
    same) for binary trees of one less than, as many as and one more than
    the leaf names the writer keeps: the left and right combs, whose
    minimal texts are the reference's, and a random tree of each size."""
    return [_case(entries, exact) for leaves in range(
                expr._NAMES_CAP - 1, expr._NAMES_CAP + 2)
            for entries, exact in (((leaves - 1,) + (0,) * (leaves - 2), True),
                                   ((1,) * (leaves - 1), True),
                                   (ref.random_tuple(rng, 2, leaves), False))]


_NO_PARENS = str.maketrans("", "", "()")


def _as_the_reference(text: str, entries, want: str, exact: bool) -> bool:
    """Whether fusscat's minimal text is the reference text or, where the
    two writers' parentheses differ, has its names and '*'s in order and
    reads back as the tree's tuple."""
    return text == want if exact else (
        text.translate(_NO_PARENS) == want.translate(_NO_PARENS)
        and ref.text_to_tuple(text, 2) == entries)


def test_texts_about_the_name_cache_cap_are_the_reference_texts(monkeypatch):
    # The writer slices its leaf names from a cache of _NAMES_CAP names
    # and formats the rest per call: each text is written once as the
    # cache grows to the cap and once from the full cache.
    for tree, *case in _cap_cases(random.Random("differential cap")):
        monkeypatch.setattr(expr, "_names", [])
        for _ in range(2):
            assert _as_the_reference(fc.unparse(tree), *case)
        assert len(expr._names) == min(len(case[0]) + 1, expr._NAMES_CAP)


def test_concurrent_writers_read_the_reference_names(monkeypatch):
    # Eight threads write small texts and the texts above, each in its
    # own order, from an empty cache and with thread switches as often as
    # the interpreter allows: a writer may lose another's growth of the
    # cache, never read a wrong name.
    cases = _cap_cases(random.Random("differential cap")) + [
        _case((2, 0), True), _case((1, 1, 1), True),
        _case((40,) + (0,) * 39, True)]
    barrier = threading.Barrier(8)
    wrong = []

    def writer(seed: int) -> None:
        order = random.Random(seed).sample(cases, len(cases))
        barrier.wait()
        for tree, *case in order:
            if not _as_the_reference(fc.unparse(tree), *case):
                wrong.append((seed, len(case[0])))

    monkeypatch.setattr(expr, "_names", [])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert len(expr._names) <= expr._NAMES_CAP


def _seeded_tuples(tag: str, count: int):
    """(m, k, entries, rng) for seeded random tuples with m 2..5, k 1..4
    and 3 to 300 leaves (at least two entries)."""
    rng = random.Random("differential %s" % tag)
    for _ in range(count):
        m, k = rng.randint(2, 5), rng.randint(1, 4)
        leaves = 1 + (m - 1) * rng.randint(-(-2 // (m - 1)), 299 // (m - 1))
        yield m, k, ref.random_tuple(rng, m, leaves), rng


def _built(tree) -> fc.Tree:
    """A reference tree as a fusscat tree made with Tree(children), so it
    keeps no tuple and to_dyck walks it."""
    order = [tree]
    for node in order:  # the list grows while it is read: parents first
        order.extend(node)
    made = {}
    for node in reversed(order):
        made[id(node)] = fc.Tree(tuple(made[id(c)] for c in node))
    return made[id(tree)]


def test_the_codec_agrees_with_the_reference_codec():
    # from_dyck's tree read back by the reference encoder, and to_dyck's
    # walk of the reference decoder's tree, give the tuple back.
    start = time.monotonic()
    for m, k, entries, _ in _seeded_tuples("codec", 400):
        params = fc.Params(m, k)
        d = fc.DyckTuple(entries, m - 1)
        decoded = fc.from_dyck(d, params)
        assert ref.tree_to_tuple(decoded, m, lambda t: t.children) == entries
        built = _built(ref.tuple_to_tree(entries, m))
        assert built._dyck is None and built == decoded
        assert fc.to_dyck(built, params).entries == entries
    assert time.monotonic() - start < 15.0


def test_signatures_and_canonical_forms_agree_with_the_reference():
    for m, k, entries, _ in _seeded_tuples("canonical", 400):
        params, modulus = fc.Params(m, k), k * (m - 1)
        d = fc.DyckTuple(entries, m - 1)
        assert fc.signature(d, params) == ref.signature(entries, modulus)
        canonical = fc.canonicalize(d, params)
        assert canonical.entries == ref.canonical(entries, modulus)
        assert fc.is_minimal(canonical, params)


def test_partners_are_equivalent_as_the_reference_made_them():
    # ref.partner moves K between entries, and for a pair it makes
    # inequivalent also moves m-1 so that the signature changes.
    verdicts = {True: 0, False: 0}
    for m, k, entries, rng in _seeded_tuples("partners", 400):
        params = fc.Params(m, k)
        same = k == 1 or rng.random() < 0.5  # at k = 1 every pair is
        try:
            other = ref.partner(rng, entries, m, k, same)
        except ValueError:  # no signature-changing move found
            continue
        a, b = (fc.DyckTuple(e, m - 1) for e in (entries, other))
        assert fc.equivalent(a, b, params) is same
        assert fc.equivalent(fc.from_dyck(a, params), b, params) is same
        verdicts[same] += 1
    assert min(verdicts.values()) > 100


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


def _check_moves(d: fc.DyckTuple, params: fc.Params) -> int:
    """Check the sites of d both ways against the reference's, and
    compress at each against its rotated tuple; return the moves."""
    m, k = params.m, params.k
    t = fc.from_dyck(d, params)
    tree = ref.tuple_to_tree(d.entries, m)
    moves = 0
    for direction in ("right", "left"):
        sites = _reference_sites(tree, m, k, direction)
        assert fc.rotation_sites(t, params, direction) == sorted(sites)
        for site, turned in sites.items():
            assert fc.compress(d, site, params, direction).entries == turned
        moves += len(sites)
    return moves


def test_rotation_sites_and_compress_agree_with_the_reference():
    # 200 seeded tuples with m 2..5, k 1..4 and up to 300 leaves: every
    # site either way, and every move, within a few seconds.
    start = time.monotonic()
    moves = sum(_check_moves(fc.DyckTuple(entries, m - 1), fc.Params(m, k))
                for m, k, entries, _ in _seeded_tuples("rotation", 200))
    assert moves > 5000
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("k", [1, 2])
def test_a_large_arity_cell_against_the_reference(k):
    # At m = 300 an entry is 299 times its node count, so the classes,
    # whose codes hold node counts, and the moves, which edit them by k,
    # are checked where counts and entries differ most.
    from test_counting import _reference_classes

    m, leaves = 300, 599
    params = fc.Params(m, k)
    reports = fc.enumerate_classes(params, leaves, with_traces=True)
    assert [(r.representative, r.members, r.traces) for r in reports] \
        == _reference_classes(params, leaves, with_traces=True)
    moves = sum(_check_moves(d, params)
                for d in fc.enumerate_tuples(params, leaves - 1))
    # k = 1: one class of 300 trees, 299 moves each way; k = 2: two
    # nodes make no chain of two below a child, so 300 singletons.
    assert (len(reports), moves) == ((1, 598) if k == 1 else (300, 0))
