"""Path encodings, compression, minimality, and canonical forms."""

from __future__ import annotations

import copy
import hashlib
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given

import fusscat as fc
from fusscat.dyck import _coded_trees
from fusscat.expr import _read, _write
from conftest import (GRID_PARAMS, child_env, comb, params_and_tree,
                      valid_leaf_counts)
from test_counting import _oracle_tuples
from test_expr import _random_entries

P32 = fc.Params(3, 2)


def tuple_of(entries, params):
    return fc.DyckTuple(tuple(entries), params.step)


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize("entries", [
    (-2, 2),        # negative entry
    (1, 1),         # not multiples of the step
    (2, 0, 0, 2),   # dips below the axis
    (2, 2),         # ends above the axis
    (2,),           # ends above the axis
])
def test_tuple_validation_rejects_bad_paths(entries):
    with pytest.raises(fc.FormatError):
        fc.DyckTuple(entries, 2)


def test_tuple_validation_accepts_the_empty_path():
    assert len(fc.DyckTuple((), 2)) == 0


def _dips(entries) -> bool:
    return any(p < i for i, p in enumerate(accumulate(entries), start=1))


def _tuple_faults():
    """(fault, entries, step): seeded valid tuples at m 2..4, each with
    one entry made negative, made no integer, moved off the step (for
    m > 2), grown by a multiple of the step (a wrong total), and with a
    multiple of the step moved to a later entry so the path dips."""
    rng = random.Random("tuple faults")
    for _ in range(300):
        m = rng.randint(2, 4)
        s = m - 1
        entries = _random_entries(rng, m, rng.randint(1, 12))
        i = rng.randrange(len(entries))
        e = entries[i]
        changes = {
            "negative": [(i, -rng.randint(1, 2 * s))],
            "no integer": [(i, rng.choice((float(e), str(e), None, True)))],
            "total": [(i, e + s * rng.randint(1, 3))]}
        if s > 1:
            changes["off step"] = [(i, e + rng.randint(1, s - 1))]
        moves = [(a, b) for a in range(len(entries)) if entries[a] >= s
                 for b in range(a + 1, len(entries))]
        rng.shuffle(moves)
        for a, b in moves:
            moved = list(entries)
            moved[a] -= s
            moved[b] += s
            if _dips(moved):
                changes["dip"] = [(a, moved[a]), (b, moved[b])]
                break
        for fault, change in sorted(changes.items()):
            bad = list(entries)
            for at, value in change:
                bad[at] = value
            yield fault, tuple(bad), s


# SHA-256 over the message of every refused tuple of _tuple_faults(), one
# per line, as the entry-by-entry check with enumerate gave them.
_TUPLE_FAULT_DIGEST = (
    1374, "6e90e966bbf9776c2d03a6d57295e599ffb40637fe597ccc17fd5cbd942e9154")


def test_the_first_fault_of_a_tuple_is_reported_as_frozen():
    digest = hashlib.sha256()
    faults = Counter()
    for fault, entries, step in _tuple_faults():
        with pytest.raises(fc.FormatError) as info:
            fc.DyckTuple(entries, step)
        digest.update(str(info.value).encode() + b"\n")
        faults[fault] += 1
    assert min(faults.values()) > 150
    assert (sum(faults.values()), digest.hexdigest()) == _TUPLE_FAULT_DIGEST


# ------------------------------------------------------------------ encoding

def test_to_dyck_of_nested_node():
    t = fc.meet([fc.leaf(), fc.leaf(), fc.meet([fc.leaf()] * 3, P32)], P32)
    assert fc.to_dyck(t, P32).entries == (2, 0, 2, 0)


def test_to_dyck_of_left_comb_and_leaf():
    assert fc.to_dyck(comb(P32, 7), P32).entries == (6, 0, 0, 0, 0, 0)
    assert fc.to_dyck(fc.leaf(), P32).entries == ()
    p2 = fc.Params(2, 1)
    assert fc.to_dyck(comb(p2, 3), p2).entries == (2, 0)


def test_from_dyck_rebuilds_the_tree():
    d = tuple_of((2, 0, 2, 0), P32)
    t = fc.meet([fc.leaf(), fc.leaf(), fc.meet([fc.leaf()] * 3, P32)], P32)
    assert fc.from_dyck(d, P32) == t
    assert fc.from_dyck(tuple_of((), P32), P32) == fc.leaf()


def test_from_dyck_rejects_mismatched_step():
    d = fc.DyckTuple((2, 1, 0), 1)
    with pytest.raises(fc.FormatError):
        fc.from_dyck(d, P32)


_UNVALIDATED_FROM_DYCK = """
import sys
import fusscat as fc
d = object.__new__(fc.DyckTuple)  # bypasses the validity checks
object.__setattr__(d, "entries", (0, 1))
object.__setattr__(d, "step", 1)
try:
    fc.from_dyck(d, fc.Params(2, 1))
except fc.InternalInvariantError:
    print("raised", sys.flags.optimize)
else:
    print("returned", sys.flags.optimize)
"""


def test_from_dyck_invariant_checks_survive_python_O():
    env = child_env()
    for flags, optimize in (([], 0), (["-O"], 1)):
        done = subprocess.run([sys.executable, *flags, "-c",
                               _UNVALIDATED_FROM_DYCK],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["raised", str(optimize)]


@pytest.mark.parametrize("entries", [(0, 1), (0, 2), (1, 0, 2), (2, 0, 0),
                                     (3, -1, 1)])
def test_from_dyck_refuses_a_forged_path_at_the_call(entries):
    # Each dips below the axis, fails to close or has a negative entry,
    # so the decoder's stack would run short, end with more than the root
    # on it, or build a node with too few children.
    d = object.__new__(fc.DyckTuple)  # bypasses the validity checks
    object.__setattr__(d, "entries", entries)
    object.__setattr__(d, "step", 1)
    with pytest.raises(fc.InternalInvariantError,
                       match="^path not fully consumed$"):
        fc.from_dyck(d, fc.Params(2, 1))


@pytest.mark.parametrize("entries, m", [((3, 0), 3), (("1", 0), 2)])
def test_from_dyck_refuses_a_forged_entry_at_the_call(entries, m):
    # An entry that is no multiple of the step, where sum and height fit,
    # or no integer at all: the constructor's check refuses both.
    d = object.__new__(fc.DyckTuple)  # bypasses the validity checks
    object.__setattr__(d, "entries", entries)
    object.__setattr__(d, "step", m - 1)
    with pytest.raises(fc.InternalInvariantError,
                       match="^path not fully consumed$"):
        fc.from_dyck(d, fc.Params(m, 1))


def test_canonicalize_refuses_a_signature_that_makes_no_path(monkeypatch):
    # A forged signature whose residues sum past the length leaves the
    # first entry negative, so the minimal tuple it gives is no path.
    import fusscat.dyck

    monkeypatch.setattr(fusscat.dyck, "signature", lambda d, params: (0, 4))
    with pytest.raises(fc.InternalInvariantError, match=re.escape(
            "minimal tuple of signature (0, 4) is not a valid tuple: ")):
        fc.canonicalize(fc.DyckTuple((3, 0, 0), 1), fc.Params(2, 1))


def test_roundtrip_tree_tuple_tree_small_exhaustive():
    for params in GRID_PARAMS[::3]:
        for leaves in valid_leaf_counts(params, 8):
            for t in fc.enumerate_trees(params, leaves):
                assert fc.from_dyck(fc.to_dyck(t, params), params) == t
            for d in fc.enumerate_tuples(params, leaves - 1):
                assert fc.to_dyck(fc.from_dyck(d, params), params) == d


def test_enumerate_trees_builds_one_tuple_per_tree(tuples_built):
    for params in GRID_PARAMS[::3]:
        for leaves in valid_leaf_counts(params, 8):
            del tuples_built[:]
            trees = list(fc.enumerate_trees(params, leaves))
            assert len(tuples_built) == len(trees), (params, leaves)


def _rebuilt(t):
    """A copy of t built node by node with Tree(children), leaves
    included, so no node of it keeps a tuple."""
    copies = {}
    order = [t]
    for node in order:  # the list grows while it is read: parents first
        order.extend(node.children)
    for node in reversed(order):
        copies[id(node)] = fc.Tree(tuple(copies[id(c)] for c in node.children))
    return copies[id(t)]


def test_the_walk_gives_back_every_decoded_tuple_exhaustive():
    # The round trips above return the tuple from_dyck kept; a copy built
    # bottom-up keeps none, so to_dyck of it runs the walk.
    for m in (2, 3, 4):
        params = fc.Params(m, 1)
        for leaves in range(1, 11, m - 1):
            for d in fc.enumerate_tuples(params, leaves - 1):
                t = _rebuilt(fc.from_dyck(d, params))
                assert t._dyck is None
                assert fc.to_dyck(t, params) == d


# ------------------------------------------------------------ stored tuple

def test_a_decoded_tree_gives_back_its_tuple():
    for params in (P32, fc.Params(2, 1), fc.Params(4, 3)):
        for d in fc.enumerate_tuples(params, 3 * params.step):
            assert fc.to_dyck(fc.from_dyck(d, params), params) is d
    d = tuple_of((2, 0, 2, 0), P32)
    assert fc.to_dyck(fc.from_dyck(d, P32), fc.Params(3, 1)) is d


@pytest.mark.parametrize("text", ["a", "a*b*c", "(a b c) d e", "a (b c d) e",
                                  "(a b c d e) f g", "a b (c d (e f g))"])
def test_a_parsed_tree_encodes_as_the_text_reader(text):
    tree = fc.parse(text, P32)
    assert fc.to_dyck(tree, P32) == _read(text, P32)


def test_a_step_mismatch_still_walks_and_raises():
    # The evaluator and the depth matrix walk the tree as to_dyck does.
    t = fc.from_dyck(tuple_of((2, 0, 2, 0), P32), P32)
    for walk in (fc.to_dyck, fc.eval_recursive, fc.depth_matrix):
        with pytest.raises(fc.ArityError, match="^tree contains a node with "
                           "3 children, expected 2$"):
            walk(t, fc.Params(2, 1))


def test_the_shared_leaf_keeps_no_tuple():
    for s in (1, 2):
        assert fc.from_dyck(fc.DyckTuple((), s), fc.Params(s + 1, 1)) \
            is fc.leaf()
    assert fc.leaf()._dyck is None
    for s in (1, 2, 3):
        d = fc.to_dyck(fc.leaf(), fc.Params(s + 1, 2))
        assert (d.entries, d.step) == ((), s)


def test_built_and_rotated_trees_keep_no_tuple():
    p2 = fc.Params(2, 1)
    decoded = fc.from_dyck(tuple_of((2, 0), p2), p2)
    assert fc.meet([decoded, fc.leaf()], p2)._dyck is None
    assert fc.to_dyck(fc.meet([decoded, fc.leaf()], p2), p2).entries == \
        (3, 0, 0)
    right = fc.rotate_right(decoded, (), 1, p2)
    left = fc.rotate_left(right, (), 1, p2)
    assert (right._dyck, left._dyck) == (None, None)
    assert fc.to_dyck(right, p2).entries == (1, 1)
    assert fc.to_dyck(left, p2).entries == (2, 0)
    for report in fc.enumerate_classes(P32, 7):
        assert all(t._dyck is None for t in report.members)


def test_copies_of_a_decoded_tree_encode_alike():
    d = tuple_of((4, 0, 2, 0, 0, 0), P32)
    t = fc.from_dyck(d, P32)
    for other in (copy.copy(t), copy.deepcopy(t),
                  pickle.loads(pickle.dumps(t))):
        assert other == t
        assert fc.to_dyck(other, P32) == d
        assert fc.to_dyck(_rebuilt(other), P32) == d


# ------------------------------------------------------------ coded trees

def test_coded_runs_are_node_counts_in_tuple_order():
    # A tree's code holds one character per leaf: the nodes that open
    # before it (its entry over s), then the last leaf's closing "\0".
    for params in GRID_PARAMS:
        for leaves in valid_leaf_counts(params, 9):
            codes, trees = _coded_trees(params, leaves - 1)
            assert len(codes) == len(trees)
            tuples = list(fc.enumerate_tuples(params, leaves - 1))
            assert [tuple_of([params.step * ord(c) for c in code[:-1]], params)
                    for code in sorted(codes)] == tuples
            for code, t in zip(codes, trees):
                assert code[-1] == "\0"
                assert tuple(params.step * ord(c) for c in code[:-1]) \
                    == fc.to_dyck(t, params).entries


# ------------------------------------------------------------ lazy decoding

def test_a_lazy_root_equals_the_eager_tree_exhaustive():
    # _coded_trees builds every tree bottom-up with Tree(children), apart
    # from the decoder.  Each check reads a fresh root, so every entry
    # point meets one whose children were never read.
    for params in GRID_PARAMS[::3]:
        for leaves in valid_leaf_counts(params, 8):
            for code, eager in zip(*_coded_trees(params, leaves - 1)):
                # node counts, and a closing "\0"
                d = tuple_of([params.step * ord(c) for c in code[:-1]], params)

                def lazy():
                    return fc.from_dyck(d, params)

                assert lazy().children == eager.children
                assert lazy().is_leaf == eager.is_leaf
                assert lazy().leaf_count == eager.leaf_count == leaves
                assert repr(lazy()) == repr(eager)
                assert fc.depth_matrix(lazy(), params) == \
                    fc.depth_matrix(eager, params)
                assert lazy() == eager and eager == lazy()
                assert hash(lazy()) == hash(eager)
                for direction, rotate in (("right", fc.rotate_right),
                                          ("left", fc.rotate_left)):
                    sites = fc.rotation_sites(eager, params, direction)
                    assert fc.rotation_sites(lazy(), params, direction) \
                        == sites
                    for site in sites:
                        assert rotate(lazy(), *site, params) == \
                            rotate(eager, *site, params)
                for other in (copy.copy(lazy()), copy.deepcopy(lazy()),
                              pickle.loads(pickle.dumps(lazy()))):
                    assert other == eager
                    assert fc.to_dyck(other, params) == d


def test_a_lazy_root_fills_its_children_once():
    d = tuple_of((4, 0, 2, 0, 0, 0), P32)
    t = fc.from_dyck(d, P32)
    with pytest.raises(AttributeError):
        object.__getattribute__(t, "children")  # the slot starts unset
    assert t.leaf_count == 7
    with pytest.raises(AttributeError):
        object.__getattribute__(t, "children")  # counting built nothing
    children = t.children
    assert object.__getattribute__(t, "children") is children is t.children
    assert fc.to_dyck(_rebuilt(t), P32) == d


def test_the_equiv_and_canon_path_builds_no_tree(monkeypatch):
    # parse twice, encode, sign, canonicalize, decode and print: what one
    # equivalence-plus-canonical-form query does through the library.
    def no_trees(self, children=()):
        raise AssertionError("a Tree was built")

    cases = []
    for params in (fc.Params(2, 1), P32, fc.Params(4, 3)):
        tuples = list(fc.enumerate_tuples(params, 6 * params.step))
        for da, db in zip(tuples[::7], tuples[3::11]):
            cases.append((params, _write(da.entries, params.m, "full"),
                          _write(db.entries, params.m, "minimal")))
    monkeypatch.setattr(fc.Tree, "__init__", no_trees)
    roots = []
    for params, left, right in cases:
        ta, tb = fc.parse(left, params), fc.parse(right, params)
        da, db = fc.to_dyck(ta, params), fc.to_dyck(tb, params)
        same = fc.signature(da, params) == fc.signature(db, params)
        canon = fc.canonicalize(da, params)
        assert same == (canon == fc.canonicalize(db, params))
        root = fc.from_dyck(canon, params)
        for style in ("minimal", "full"):
            assert _read(fc.unparse(root, style), params) == canon
        roots.append((params, ((ta, da), (root, canon))))
    monkeypatch.undo()
    for params, decoded in roots:
        for t, d in decoded:
            assert t.children == _rebuilt(t).children
            assert fc.to_dyck(_rebuilt(t), params) == d
            assert fc.unparse(_rebuilt(t)) == fc.unparse(t)


# ----------------------------------------------------------- depth to tuple

def test_depth_to_tuple_matches_known_matrices():
    left_comb = fc.DepthMatrix(((3, 2, 2, 1, 1, 0, 0),
                                (0, 1, 0, 1, 0, 1, 0),
                                (0, 0, 1, 0, 1, 0, 1)))
    assert fc.depth_to_tuple(left_comb, P32).entries == (6, 0, 0, 0, 0, 0)
    nested = fc.DepthMatrix(((2, 2, 1, 1, 1, 0, 0),
                             (0, 1, 2, 1, 0, 1, 0),
                             (0, 0, 0, 1, 1, 0, 1)))
    assert fc.depth_to_tuple(nested, P32).entries == (4, 2, 0, 0, 0, 0)
    single = fc.DepthMatrix(((0,), (0,), (0,)))
    assert fc.depth_to_tuple(single, P32).entries == ()


def test_depth_to_tuple_agrees_with_to_dyck():
    for params in GRID_PARAMS[::3]:
        for leaves in valid_leaf_counts(params, 8):
            for t in fc.enumerate_trees(params, leaves):
                dm = fc.depth_matrix(t, params)
                assert fc.depth_to_tuple(dm, params) == fc.to_dyck(t, params)


def test_depth_to_tuple_rejects_non_tree_matrices():
    p2 = fc.Params(2, 1)
    with pytest.raises(fc.FormatError):
        fc.depth_to_tuple(fc.DepthMatrix(((2, 0), (0, 0))), p2)
    with pytest.raises(fc.FormatError):  # wrong row count for the arity
        fc.depth_to_tuple(fc.DepthMatrix(((0,), (0,))), P32)
    with pytest.raises(fc.FormatError):  # nonzero single column
        fc.depth_to_tuple(fc.DepthMatrix(((1,), (0,), (0,))), P32)


# ------------------------------------------------------------------- textual

def test_parse_dyck_run_form():
    p41 = fc.Params(4, 1)
    assert fc.parse_dyck("NNNSNNNSSSSS", p41).entries == (3, 3, 0, 0, 0, 0)
    assert fc.parse_dyck("NNSSNNSS", P32).entries == (2, 0, 2, 0)
    assert fc.parse_dyck("", P32).entries == ()


def test_parse_dyck_numeric_form():
    assert fc.parse_dyck("(2,0,2,0)", P32).entries == (2, 0, 2, 0)
    assert fc.parse_dyck("2, 0, 2, 0", P32).entries == (2, 0, 2, 0)
    assert fc.parse_dyck("()", P32).entries == ()
    # leading zeros do not count toward an entry's digits
    assert fc.parse_dyck("(02,00,2,0)", P32).entries == (2, 0, 2, 0)
    assert fc.parse_dyck("(%s1)" % ("0" * 4999), fc.Params(2, 1)).entries \
        == (1,)


_UNREADABLE = "cannot read %r as N/S runs or as comma-separated entries"

# Each malformed text with its error message, exactly.
_PARSE_ERRORS = {
    "NSX": _UNREADABLE % "NSX",  # stray character
    "NSN": "path ends with 1 unmatched up-steps",  # trailing up-steps
    "N": "path ends with 1 unmatched up-steps",  # no down-step at all
    "NNSSN": "path ends with 1 unmatched up-steps",
    "NNS": "path ends 1 above the axis",
    "NSS": "entry 1 is 1, not a multiple of 2",  # a run of 1 at step 2
    "S": "path dips below the axis after 1 down-steps",
    "(2,0,x)": _UNREADABLE % "(2,0,x)",  # not an integer
    "2;0": _UNREADABLE % "2;0",  # unreadable
    "(1,1)": "entry 1 is 1, not a multiple of 2",  # not multiples of the step
    # int() reads each of these as 2; an entry is ASCII digits only
    "(+2,0)": _UNREADABLE % "(+2,0)",
    "(0_2,0)": _UNREADABLE % "(0_2,0)",
    "(\u0662,0)": _UNREADABLE % "(\u0662,0)",  # an Arabic-Indic 2
    # a leading "-" survives the leading zeros
    "(-02,4)": "entry 1 is -2, need a non-negative integer",
    # no entry passes the tuple's length, so these are refused before
    # int(), which raises ValueError past 4,300 digits
    "(1%s,0)" % ("0" * 5000): "an entry of 5001 digits passes the tuple's "
                              "length 2",
    "(1%s)" % ("0" * 5000): "an entry of 5001 digits passes the tuple's "
                            "length 1",
    "(2,0,100,0)": "an entry of 3 digits passes the tuple's length 4",
}


def _short_id(text):
    """A long text's test id is its length; a short one keeps its own."""
    return "%d-char text" % len(text) if len(text) > 40 else None


@pytest.mark.parametrize("text", _PARSE_ERRORS, ids=_short_id)
def test_parse_dyck_rejects_malformed_text(text):
    message = _PARSE_ERRORS[text]
    with pytest.raises(fc.FormatError, match="^%s$" % re.escape(message)):
        fc.parse_dyck(text, P32)


def test_print_dyck_both_forms():
    d = tuple_of((2, 0, 2, 0), P32)
    assert fc.print_dyck(d, "ns") == "NNSSNNSS"
    assert fc.print_dyck(d, "tuple") == "(2,0,2,0)"
    assert fc.print_dyck(tuple_of((), P32), "ns") == ""
    assert fc.print_dyck(tuple_of((), P32), "tuple") == "()"
    with pytest.raises(ValueError):
        fc.print_dyck(d, "runs")


def test_print_then_parse_is_identity():
    for d in fc.enumerate_tuples(P32, 6):
        for fmt in ("ns", "tuple"):
            assert fc.parse_dyck(fc.print_dyck(d, fmt), P32) == d


# --------------------------------------------------------------- enumeration

def test_enumerate_tuples_is_lexicographic_and_complete():
    seen = [d.entries for d in fc.enumerate_tuples(P32, 6)]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen)) == 12
    p2 = fc.Params(2, 1)
    assert sum(1 for _ in fc.enumerate_tuples(p2, 4)) == 14
    assert [d.entries for d in fc.enumerate_tuples(p2, 0)] == [()]
    for m in (2, 3, 4):
        for length in range(0, 10, m - 1):
            assert [d.entries for d in fc.enumerate_tuples(
                fc.Params(m, 1), length)] == _oracle_tuples(m - 1, length)


def test_enumerate_tuples_rejects_bad_lengths():
    with pytest.raises(fc.ArityError):
        list(fc.enumerate_tuples(P32, 5))
    with pytest.raises(fc.ArityError):
        list(fc.enumerate_tuples(P32, -2))


# --------------------------------------------------------------- compression

def test_compress_right_shifts_weight_down_and_later():
    d = tuple_of((6, 0, 0, 0, 0, 0), P32)
    assert fc.compress(d, ((), 1), P32, "right").entries == (2, 4, 0, 0, 0, 0)


def test_compress_left_undoes_right():
    d = tuple_of((6, 0, 0, 0, 0, 0), P32)
    d2 = fc.compress(d, ((), 1), P32, "right")
    assert fc.compress(d2, ((), 1), P32, "left") == d


def test_compress_rejects_missing_pattern():
    d = tuple_of((4, 2, 0, 0, 0, 0), P32)
    assert fc.rotation_sites(fc.from_dyck(d, P32), P32, "right") == []
    with pytest.raises(fc.SiteError):
        fc.compress(d, ((), 1), P32, "right")


def test_compress_changes_exactly_two_entries_by_the_modulus():
    for params in (fc.Params(2, 2), P32, fc.Params(3, 1)):
        for leaves in valid_leaf_counts(params, 7):
            for t in fc.enumerate_trees(params, leaves):
                d = fc.to_dyck(t, params)
                for site in fc.rotation_sites(t, params, "right"):
                    d2 = fc.compress(d, site, params, "right")
                    diff = [(i, a, b) for i, (a, b)
                            in enumerate(zip(d.entries, d2.entries)) if a != b]
                    assert len(diff) == 2
                    (i, a1, b1), (j, a2, b2) = diff
                    assert i < j
                    assert b1 == a1 - params.modulus  # earlier entry drops
                    assert b2 == a2 + params.modulus  # later entry grows
                    assert d2.entries < d.entries  # strict lexicographic drop


def _internal_addresses(t):
    todo = [(t, ())]
    while todo:
        node, address = todo.pop()
        if node.children:
            yield address
            todo.extend((child, address + (i,))
                        for i, child in enumerate(node.children, start=1))


def test_rotation_sites_are_the_sites_rotate_accepts():
    for params in GRID_PARAMS:
        for leaves in valid_leaf_counts(params, 10):
            for t in fc.enumerate_trees(params, leaves):
                for direction, rotate in (("right", fc.rotate_right),
                                          ("left", fc.rotate_left)):
                    accepted = []
                    for address in _internal_addresses(t):
                        for j in range(1, params.m):
                            try:
                                rotate(t, address, j, params)
                            except fc.SiteError:
                                continue
                            accepted.append((address, j))
                    assert fc.rotation_sites(t, params, direction) \
                        == sorted(accepted)


def test_address_of_each_node_is_its_address_in_preorder():
    from fusscat.rotation import _address, _move_table

    for params in GRID_PARAMS:
        for leaves in valid_leaf_counts(params, 9):
            for t in fc.enumerate_trees(params, leaves):
                counts = [e // params.step for e in fc.to_dyck(t, params)]
                _, _, runs = _move_table(counts, params)
                addresses = sorted(_internal_addresses(t))  # preorder
                assert [_address(runs, node)
                        for node in range(len(addresses))] == addresses


def _edits(d, params):
    """(direction, site, edited entries) of every move _move_table lists."""
    from fusscat.rotation import _address, _move_table

    right, left, runs = _move_table([e // d.step for e in d], params)
    for direction, moves, shift in (("right", right, params.modulus),
                                    ("left", left, -params.modulus)):
        for node, j, lo, hi in moves:
            edited = list(d.entries)
            edited[lo] -= shift
            edited[hi] += shift
            yield direction, (_address(runs, node), j), tuple(edited)


def test_each_move_is_the_two_entry_edit_of_its_rotation():
    for params in GRID_PARAMS:
        for length in range(0, 10, params.step):
            for d in fc.enumerate_tuples(params, length):
                t = fc.from_dyck(d, params)
                for direction, (address, j), edited in _edits(d, params):
                    rotate = (fc.rotate_right if direction == "right"
                              else fc.rotate_left)
                    turned = rotate(t, address, j, params)
                    assert edited == fc.to_dyck(turned, params).entries


def test_compress_builds_no_tree(monkeypatch):
    import fusscat.dyck
    import fusscat.tree

    def refuse(*args):
        raise AssertionError("compress built or rotated a tree")

    monkeypatch.setattr(fusscat.tree.Tree, "__init__", refuse)
    for name in ("rotate_right", "rotate_left", "_rotate"):
        monkeypatch.setattr(fusscat.tree, name, refuse)
    monkeypatch.setattr(fusscat.dyck, "from_dyck", refuse)
    moves = 0
    for params in GRID_PARAMS:  # P32 among them
        for d in fc.enumerate_tuples(params, 6):  # 7 leaves
            for direction, site, edited in _edits(d, params):
                turned = fc.compress(d, site, params, direction)
                assert turned.entries == edited
                moves += 1
    assert moves == 1014


def _compress_calls(top):
    """The pinned grid: every tuple with m 2..4, k 1..3 and length below
    top; every internal address (the one-leaf tree's root too), its
    children at indices 0..m+1 and its grandchildren; positions 0..m;
    directions right, left and the unknown up."""
    for m in (2, 3, 4):
        for k in (1, 2, 3):
            params = fc.Params(m, k)
            for length in range(0, top, params.step):
                for d in fc.enumerate_tuples(params, length):
                    addresses = set()
                    for a in list(_internal_addresses(
                            fc.from_dyck(d, params))) or [()]:
                        addresses.add(a)
                        addresses.update(a + (i,) for i in range(m + 2))
                        addresses.update(a + (i, j) for i in range(1, m + 1)
                                         for j in range(1, m + 1))
                    for address in sorted(addresses):
                        for position in range(m + 1):
                            for direction in ("right", "left", "up"):
                                yield d, (address, position), params, direction


def _compress_digest(top):
    """SHA-256 over the repr or the error text of every call of the grid."""
    digest = hashlib.sha256()
    calls = 0
    for d, site, params, direction in _compress_calls(top):
        try:
            out = repr(fc.compress(d, site, params, direction))
        except (fc.SiteError, ValueError) as exc:
            out = "%s: %s" % (type(exc).__name__, exc)
        digest.update(out.encode() + b"\n")
        calls += 1
    return calls, digest.hexdigest()


# _compress_digest(7) as the tree route (decode, rotate, encode) gave it.
_COMPRESS_DIGEST = (
    220077, "6082d2b33cf33137ecc82e02e6472530f1e3b57245a375688136f92afff8827f")


def test_compress_output_and_errors_are_frozen():
    assert _compress_digest(7) == _COMPRESS_DIGEST


# ------------------------------------------------- minimality and signatures

def test_is_minimal_examples():
    assert fc.is_minimal(tuple_of((6, 0, 0, 0, 0, 0), P32), P32)
    assert not fc.is_minimal(tuple_of((2, 4, 0, 0, 0, 0), P32), P32)
    assert fc.is_minimal(tuple_of((), P32), P32)


def test_minimal_means_no_left_compression_site():
    for params in (fc.Params(2, 2), P32):
        for length in range(0, 7, params.step):
            for d in fc.enumerate_tuples(params, length):
                t = fc.from_dyck(d, params)
                has_site = bool(fc.rotation_sites(t, params, "left"))
                assert fc.is_minimal(d, params) == (not has_site)


def test_signature_reduces_the_tail():
    assert fc.signature(tuple_of((2, 4, 0, 0, 0, 0), P32), P32) == (0, 0, 0, 0, 0)
    assert fc.signature(tuple_of((4, 2, 0, 0, 0, 0), P32), P32) == (2, 0, 0, 0, 0)
    assert fc.signature(tuple_of((), P32), P32) == ()
    p21 = fc.Params(2, 1)  # modulus 1: everything collapses
    assert fc.signature(fc.DyckTuple((3, 0, 1, 0), 1), p21) == (0, 0, 0)


def test_canonicalize_examples_and_idempotence():
    assert fc.canonicalize(tuple_of((2, 4, 0, 0, 0, 0), P32), P32).entries \
        == (6, 0, 0, 0, 0, 0)
    assert fc.canonicalize(tuple_of((2, 0, 4, 0, 0, 0), P32), P32).entries \
        == (6, 0, 0, 0, 0, 0)
    assert fc.canonicalize(tuple_of((), P32), P32).entries == ()


def _left_compress_to_fixpoint(d, params):
    """Oracle: climb by left compressions until none applies."""
    while True:
        sites = fc.rotation_sites(fc.from_dyck(d, params), params, "left")
        if not sites:
            return d
        d = fc.compress(d, sites[0], params, "left")


def test_canonicalize_matches_iterated_compression():
    for params in (fc.Params(2, 1), fc.Params(2, 2), fc.Params(2, 3),
                   P32, fc.Params(3, 1)):
        for length in range(0, 7, params.step):
            for d in fc.enumerate_tuples(params, length):
                canon = fc.canonicalize(d, params)
                assert canon == _left_compress_to_fixpoint(d, params)
                assert fc.is_minimal(canon, params)
                assert fc.signature(canon, params) == fc.signature(d, params)
                assert fc.canonicalize(canon, params) == canon


# --------------------------------------------------------------- equivalence

def test_equivalent_accepts_trees_and_tuples():
    t1 = comb(P32, 7)
    t2 = fc.rotate_right(t1, (), 1, P32)
    assert fc.equivalent(t1, t2, P32)
    assert fc.equivalent(fc.to_dyck(t1, P32), t2, P32)
    assert fc.equivalent(t1, t1, P32)
    nested = fc.from_dyck(tuple_of((4, 2, 0, 0, 0, 0), P32), P32)
    assert not fc.equivalent(t1, nested, P32)


def test_equivalent_rejects_size_mismatch():
    with pytest.raises(fc.SizeError):
        fc.equivalent(comb(P32, 7), comb(P32, 5), P32)
    with pytest.raises(fc.SizeError):
        fc.equivalent(tuple_of((2, 0), P32), fc.leaf(), P32)


@given(params_and_tree(max_leaves=30))
def test_random_tree_encodings_roundtrip_and_canonicalize(pt):
    params, t = pt
    d = fc.to_dyck(t, params)
    assert fc.from_dyck(d, params) == t
    canon = fc.canonicalize(d, params)
    assert fc.is_minimal(canon, params)
    assert fc.signature(canon, params) == fc.signature(d, params)
