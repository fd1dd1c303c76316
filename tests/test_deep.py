"""Inputs far deeper than the interpreter's recursion limit.

Every walk over a tree, a text or a tuple is a loop, so products of 10^5
operands go through the whole pipeline.  Each test must finish within
BUDGET_S seconds, which a step quadratic in the operand count cannot at
10^5 operands.
"""

from __future__ import annotations

import copy
import functools
import io
import json
import pickle
import random
import time
import tracemalloc
from contextlib import redirect_stdout

import pytest

import fusscat as fc
import fusscat.cli as cli
from fusscat import expr
from conftest import comb

BUDGET_S = 20.0
OPERANDS = 100_000  # leaves of the text-level inputs
COMB_LEAVES = 10_000  # leaves of the tree-level inputs
P = fc.Params(2, 2)


def _names(n: int) -> list[str]:
    return ["x%d" % i for i in range(1, n + 1)]


def _flat(n: int):
    return "*".join(_names(n)), (n - 1,) + (0,) * (n - 2)


def _right_nested(n: int):
    names = _names(n)
    text = "".join(x + "*(" for x in names[:-2]) + "%s*%s" % tuple(names[-2:])
    return text + ")" * (n - 2), (1,) * (n - 1)


def _random(n: int):
    # Scatter n-1 unit up-runs over the n-1 slots, then start the word
    # after its lowest point (cycle lemma), which makes it a valid path.
    rng = random.Random(20201)
    entries = [0] * (n - 1)
    for _ in range(n - 1):
        entries[rng.randrange(n - 1)] += 1
    height = low = cut = 0
    for i, e in enumerate(entries):
        height += e - 1
        if height < low:
            low, cut = height, i + 1
    entries = tuple(entries[cut:] + entries[:cut])
    return fc.unparse(fc.from_dyck(fc.DyckTuple(entries, 1), P)), entries


SHAPES = {"flat": _flat, "right_nested": _right_nested, "random": _random}


@functools.lru_cache(maxsize=None)
def _shape(name: str):
    """(text, path tuple entries) of the named 10^5-operand product."""
    return SHAPES[name](OPERANDS)


@pytest.fixture
def budget():
    start = time.monotonic()
    yield
    assert time.monotonic() - start < BUDGET_S


def _right_comb(params: fc.Params, leaves: int) -> fc.Tree:
    t = fc.leaf()
    for _ in range((leaves - 1) // params.step):
        t = fc.meet([fc.leaf()] * params.step + [t], params)
    return t


# ------------------------------------------------------------- 10^5 operands

@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_library_pipeline_on_1e5_operands(shape, budget):
    text, entries = _shape(shape)
    t = fc.parse(text, P)
    assert t.leaf_count == OPERANDS
    d = fc.to_dyck(t, P)
    assert d.entries == entries
    assert fc.from_dyck(d, P) == t
    assert fc.unparse(t) == text
    canon = fc.canonicalize(d, P)
    assert fc.is_minimal(canon, P)
    assert fc.signature(canon, P) == fc.signature(d, P)
    u = fc.from_dyck(canon, P)
    assert fc.to_dyck(u, P) == canon
    for style in ("minimal", "full"):
        assert fc.parse(fc.unparse(u, style), P) == u


def test_unparse_of_1e5_leaves_keeps_only_the_capped_names(budget,
                                                          monkeypatch):
    # The writer keeps the first _NAMES_CAP leaf names, some 250 kB, and
    # formats the rest per call: all 10^5 would keep about 6 MB.
    text, entries = _shape("random")
    t = fc.from_dyck(fc.DyckTuple(entries, P.step), P)
    monkeypatch.setattr(expr, "_names", [])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert fc.unparse(t) == text
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert expr._names == _names(expr._NAMES_CAP)
    assert kept < 100 * expr._NAMES_CAP


def _cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_cli_equiv_and_canon_on_1e5_operands(shape, budget):
    text, entries = _shape(shape)
    d = fc.DyckTuple(entries, P.step)
    canon = fc.unparse(fc.from_dyck(fc.canonicalize(d, P), P))
    signature = list(fc.signature(d, P))
    code, record = _cli("equiv", "--m", "2", "--k", "2", text, text)
    assert code == 0
    assert record == {"equivalent": True, "signatures": [signature] * 2,
                      "canonical": canon}
    code, record = _cli("canon", "--m", "2", "--k", "2", text)
    assert code == 0
    assert record == {"canonical": canon, "signature": signature}


def test_cli_equiv_of_flat_and_right_nested_products(budget):
    flat, nested = _shape("flat")[0], _shape("right_nested")[0]
    code, record = _cli("equiv", "--m", "2", "--k", "1", flat, nested)
    assert (code, record["equivalent"], record["canonical"]) == (0, True, flat)


# ------------------------------------------------------------ 10^4-leaf combs

def test_deep_comb_equality_and_repr(budget):
    n = COMB_LEAVES
    left, right = comb(P, n), _right_comb(P, n)
    assert left == comb(P, n) and right == _right_comb(P, n)
    assert left != right
    assert repr(left) == "Tree[%s.%s]" % ("(" * (n - 1), ".)" * (n - 1))
    assert repr(right) == "Tree[%s.%s]" % ("(." * (n - 1), ")" * (n - 1))


def test_deep_comb_depth_matrix_and_evaluation(budget):
    n = COMB_LEAVES
    left, right = comb(P, n), _right_comb(P, n)
    dm = fc.depth_matrix(left, P)
    assert dm.rows == ((n - 1,) + tuple(range(n - 2, -1, -1)),
                       (0,) + (1,) * (n - 1))
    for t in (left, right):
        dm = fc.depth_matrix(t, P)
        assert fc.depth_to_tuple(dm, P) == fc.to_dyck(t, P)
        assert fc.eval_recursive(t, P) == fc.eval_by_depth(dm, P)


def test_deep_comb_rotations_invert(budget):
    p = fc.Params(2, 1)
    n = COMB_LEAVES
    left, right = comb(p, n), _right_comb(p, n)
    for address in ((), (1,) * (n // 2), (1,) * (n - 3)):
        turned = fc.rotate_right(left, address, 1, p)
        assert turned != left
        assert fc.rotate_left(turned, address, 1, p) == left
    for address in ((), (2,) * (n // 2), (2,) * (n - 3)):
        turned = fc.rotate_left(right, address, 1, p)
        assert turned != right
        assert fc.rotate_right(turned, address, 1, p) == right


def test_rotation_sites_on_deep_combs(budget):
    # A wide arity keeps the quadratic total length of the addresses small
    # while the combs still run 1,250 nodes deep.
    p = fc.Params(9, 1)
    nodes = 1250
    leaves = 1 + nodes * p.step
    left, right = comb(p, leaves), _right_comb(p, leaves)
    assert fc.rotation_sites(left, p, "right") == [
        ((1,) * depth, 1) for depth in range(nodes - 1)]
    assert fc.rotation_sites(left, p, "left") == []
    assert fc.rotation_sites(right, p, "right") == []
    assert fc.rotation_sites(right, p, "left") == [
        ((9,) * depth, 8) for depth in range(nodes - 1)]


def test_compress_on_a_1e5_leaf_comb(budget):
    # The left comb's tuple is (L, 0, .., 0).  The right move at depth i
    # takes K from the first entry and gives it to the leaf where child 2
    # of the chain's k-th node begins, after its (nodes - i - k - 1) * s + 1
    # leaves; the tree rotation must agree.
    for params in (fc.Params(2, 1), fc.Params(3, 2)):
        s, modulus = params.step, params.modulus
        nodes = (OPERANDS - 1) // s
        length = nodes * s
        d = fc.DyckTuple((length,) + (0,) * (length - 1), s)
        t = comb(params, length + 1)
        for depth in (0, nodes - params.k - 1):  # the root, the deepest site
            site = ((1,) * depth, 1)
            turned = fc.compress(d, site, params, "right")
            hi = (nodes - depth - params.k - 1) * s + 1
            assert turned.entries == ((length - modulus,) + (0,) * (hi - 1)
                                      + (modulus,) + (0,) * (length - hi - 1))
            assert turned == fc.to_dyck(fc.rotate_right(t, *site, params),
                                        params)
            assert fc.compress(turned, site, params, "left") == d


def test_leaf_count_of_a_1e5_leaf_comb(budget):
    for params in (fc.Params(2, 1), fc.Params(3, 1)):
        leaves = 1 + (OPERANDS - 1) // params.step * params.step
        assert comb(params, leaves).leaf_count == leaves
        assert _right_comb(params, leaves).leaf_count == leaves


def test_hash_of_a_1e5_leaf_comb(budget):
    for params in (fc.Params(2, 1), fc.Params(3, 1)):
        leaves = 1 + (OPERANDS - 1) // params.step * params.step
        for build in (comb, _right_comb):
            t = build(params, leaves)
            assert hash(t) == hash(t.children)
            assert hash(build(params, leaves)) == hash(t)


@pytest.mark.parametrize("shape,eager", [("flat", comb),
                                         ("right_nested", _right_comb)])
def test_a_1e5_leaf_decoded_root_fills_hashes_and_compares(shape, eager,
                                                           budget):
    d = fc.DyckTuple(_shape(shape)[1], P.step)
    built = eager(P, OPERANDS)
    t = fc.from_dyck(d, P)
    assert len(t.children) == P.m
    assert hash(t) == hash(t.children) == hash(built)
    assert t == built and built == fc.from_dyck(d, P)
    assert fc.from_dyck(d, P) == t


def _unfilled(t: fc.Tree) -> bool:
    """Whether a decoded root's children slot is still unset."""
    try:
        object.__getattribute__(t, "children")
    except AttributeError:
        return True
    return False


def _copies(t: fc.Tree) -> list:
    return [copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_copies_of_a_1e5_operand_parsed_tree(shape, budget):
    text, entries = _shape(shape)
    t = fc.parse(text, P)
    copies = _copies(t)
    assert all(map(_unfilled, [t] + copies))
    for other in copies:
        assert fc.to_dyck(other, P).entries == entries
        assert other == t
    inner = t.children[-1]  # a plain tree, built by the decoder
    assert inner._dyck is None
    for other in _copies(inner):
        assert other._dyck is None
        assert other == inner


def test_copies_of_1e5_leaf_built_combs(budget):
    for build in (comb, _right_comb):
        t = build(P, OPERANDS)
        for other in _copies(t):
            assert other == t and other is not t
        assert fc.to_dyck(pickle.loads(pickle.dumps(t)), P) == fc.to_dyck(t, P)


def test_first_tuple_of_length_5000(budget):
    assert next(fc.enumerate_tuples(fc.Params(2, 1), 5000)).entries == \
        (1,) * 5000
    assert next(fc.enumerate_tuples(fc.Params(3, 1), 5000)).entries == \
        (2, 0) * 2500
