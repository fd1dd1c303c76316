"""Expression parsing and printing."""

from __future__ import annotations

import hashlib
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given

import fusscat as fc
from fusscat.expr import _read
from conftest import (GRID_PARAMS, comb, edit_once, params_and_tree,
                      valid_leaf_counts)

P32 = fc.Params(3, 2)


def _nested_example():
    e = fc.leaf()
    return fc.meet([fc.meet([e, fc.meet([e, e, e], P32), e], P32), e, e], P32)


def test_parse_nested_groups():
    assert fc.parse("(x1*(x2*x3*x4)*x5)*x6*x7", P32) == _nested_example()


def test_parse_single_variable():
    assert fc.parse("x1", P32) == fc.leaf()
    assert fc.parse("  banana  ", P32) == fc.leaf()


def test_parse_star_is_optional_with_whitespace():
    expected = fc.meet([fc.leaf()] * 3, P32)
    assert fc.parse("x1 x2 x3", P32) == expected
    assert fc.parse("a* b *c", P32) == expected
    assert fc.parse("(a b c) d e", P32) == comb(P32, 5)
    assert fc.parse("x1*x2*x3\n", P32) == expected
    assert fc.parse("(a b c)\td e\n", P32) == comb(P32, 5)


def test_parse_adjacent_groups_need_no_separator():
    p2 = fc.Params(2, 1)
    assert fc.parse("(a b)(c d)", p2) == fc.meet(
        [fc.meet([fc.leaf()] * 2, p2)] * 2, p2)


def test_parse_top_level_run_uses_left_associativity():
    assert fc.parse("x1*x2*x3*x4*x5*x6*x7", P32) == comb(P32, 7)
    assert fc.parse("x1*(x2*x3*x4)*x5*x6*x7", P32) == fc.parse(
        "(x1*(x2*x3*x4)*x5)*x6*x7", P32)


@pytest.mark.parametrize("text,operands", [
    ("aé", 1),
    ("αβ", 1),
    ("x1é", 1),
    ("_é9", 1),
    ("α*β", 2),
    ("αβ γ", 2),
])
def test_parse_reads_unicode_names_whole(text, operands):
    assert fc.parse(text, fc.Params(2, 1)).leaf_count == operands


_NAME_PIECES = ("αβ", "ǅ", "Ⅻ", "²", "x٣", "a_b9")


def test_renamed_operands_read_as_the_x_names_do():
    # Letters, a titlecase letter, a letter number, a superscript digit
    # (a word character but no decimal digit), a decimal digit after a
    # letter, and an underscore: each name of one to three pieces is one
    # operand, so any renaming reads as the x-named text.
    rng = random.Random("renamed operands")
    for _ in range(300):
        m = rng.randint(2, 4)
        params = fc.Params(m, 1)
        d = fc.DyckTuple(_random_entries(rng, m, rng.randint(0, 12)), m - 1)
        text = fc.unparse(fc.from_dyck(d, params),
                          rng.choice(("minimal", "full")))
        renamed = re.sub(r"x\d+", lambda _: "".join(
            rng.choice(_NAME_PIECES) for _ in range(rng.randint(1, 3))), text)
        assert _read(renamed, params) == _read(text, params) == d, renamed


@pytest.mark.parametrize("text,offset", [
    ("1x", 0),
    ("٣", 0),
    ("(x)1", 3),
    ("x1 ٣x", 3),
    ("Ⅻ²*x٣ 12", 6),
    ("αβ*(ǅ x 9)", 8),
])
def test_a_token_that_starts_with_a_digit_is_refused_there(text, offset):
    with pytest.raises(fc.ParseError) as info:
        fc.parse(text, P32)
    assert (str(info.value), info.value.offset) == (
        "unexpected character %r (offset %d)" % (text[offset], offset), offset)


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("x1*", 3),
    ("*x1", 0),
    ("x1**x2", 3),
    ("x1)", 2),
    ("(x1*x2*x3", 0),
    ("x1 ? x2", 3),
    ("1", 0),
    ("$", 0),
    ("x1*1", 3),
    ("αβ $", 3),
    ("x1*(x2*)*x3", 7),
    ("x1)$", 3),
    ("x1**$", 4),
    ("(x1 x2 $", 7),
    ("x1*x2)1", 6),
    ("(x1*x2*x3)*(x4*x5*x6)*x7**x8", 25),  # after two closed groups
    ("(a b c)(d e f)(g h i))", 21),
    # an unbalanced '(' after 30 closed groups, with one more inside it
    ("a*b*c*" + "(d e f) " * 30 + "(g*h*(i*j*k)*l*m", 6 + 8 * 30),
])
def test_parse_error_offsets(text, offset):
    with pytest.raises(fc.ParseError) as info:
        fc.parse(text, P32)
    assert info.value.offset == offset


@pytest.mark.parametrize("text,offset", [
    ("(x1)", 0),
    ("x1*x2", 0),
    ("(x1*x2)*x3", 0),
    ("x1*(x2*x3)*x4", 3),
    ("a b c d", 0),
    ("x1*((x2*x3*x4*x5)*x6*x7)*x8", 4),  # a fold error in an inner run
    ("(a b c) " * 20 + "x*(y*(z*u)*v)", 8 * 20 + 5),
])
def test_parse_arity_error_offsets(text, offset):
    with pytest.raises(fc.ArityError) as info:
        fc.parse(text, P32)
    assert info.value.offset == offset


@pytest.mark.parametrize("text", ["a", "a*b*c", "(a b c) d e",
                                  "a b (c d (e f g))"])
def test_parse_checks_the_readers_tuple_once_and_keeps_it(text, monkeypatch,
                                                          tuples_built):
    from fusscat import expr

    read = []

    def reader(text, params):
        read.append(_read(text, params))
        return read[-1]

    monkeypatch.setattr(expr, "_read", reader)
    tree = fc.parse(text, P32)
    assert len(tuples_built) == 1
    if tree.children:  # the one-leaf tree is shared and keeps no tuple
        assert fc.to_dyck(tree, P32) is read[0]


def test_unparse_leaf():
    assert fc.unparse(fc.leaf()) == "x1"
    assert fc.unparse(fc.leaf(), "full") == "x1"


def test_unparse_left_comb_minimal_is_a_bare_chain():
    assert fc.unparse(comb(P32, 7)) == "x1*x2*x3*x4*x5*x6*x7"
    assert fc.unparse(comb(fc.Params(2, 1), 4)) == "x1*x2*x3*x4"


def test_unparse_full_parenthesizes_every_inner_node():
    assert fc.unparse(comb(P32, 7), "full") == "((x1*x2*x3)*x4*x5)*x6*x7"
    assert fc.unparse(_nested_example(), "full") == "(x1*(x2*x3*x4)*x5)*x6*x7"


def test_unparse_minimal_keeps_parens_that_guard_inner_groups():
    assert fc.unparse(_nested_example()) == "(x1*(x2*x3*x4)*x5)*x6*x7"
    e = fc.leaf()
    t3 = fc.meet([e, e, comb(P32, 5)], P32)
    assert fc.unparse(t3) == "x1*x2*(x3*x4*x5*x6*x7)"


def test_unparse_renames_variables_left_to_right():
    assert fc.unparse(fc.parse("q w e", P32)) == "x1*x2*x3"


def test_unparse_rejects_malformed_trees():
    e = fc.leaf()
    binary = fc.Tree((e, e))
    with pytest.raises(fc.ArityError):
        fc.unparse(fc.Tree((e, e, binary)))
    with pytest.raises(fc.ArityError):
        fc.unparse(fc.Tree((e,)))


def test_unparse_rejects_unknown_style():
    with pytest.raises(ValueError):
        fc.unparse(fc.leaf(), "fancy")


def test_roundtrip_both_styles_small_exhaustive():
    for params in GRID_PARAMS[::3]:
        for leaves in valid_leaf_counts(params, 7):
            for t in fc.enumerate_trees(params, leaves):
                assert fc.parse(fc.unparse(t, "minimal"), params) == t
                assert fc.parse(fc.unparse(t, "full"), params) == t


def test_minimal_text_is_injective_per_size():
    for params, leaves in ((fc.Params(2, 1), 6), (P32, 7)):
        texts = [fc.unparse(t) for t in fc.enumerate_trees(params, leaves)]
        assert len(set(texts)) == len(texts)


@given(params_and_tree(max_leaves=30))
def test_roundtrip_random_trees(pt):
    params, t = pt
    assert fc.parse(fc.unparse(t, "minimal"), params) == t
    assert fc.parse(fc.unparse(t, "full"), params) == t


# SHA-256 over the text of every tree with at most 9 leaves, one per line
# in enumeration order: any change to the printed bytes shows here.
_TEXT_DIGESTS = {
    (2, "minimal"):
        "3ad546d76c44ccdf2e2cbd547f0d47594724a980b5cc7c2c06587064e2acd27c",
    (2, "full"):
        "5a208c8c0c5d1b6394ce65c632d89208f8b1f01437836ca37de3ed6e854714ff",
    (3, "minimal"):
        "2521bbddf1ff4e5588959a9e69f455de4709076fde678b4c6d5933fad9128558",
    (3, "full"):
        "0dbd9f39a73d4d8a1df4c7fcd8a6023ffb4488a8f95cbb8cf5d59f12cb768eaa",
    (4, "minimal"):
        "30f638038a708f65b2b202470beb32285a2e421c7f19705d89da4d646baef75a",
    (4, "full"):
        "ab18bfe5af0af97e05886d1f164d37b91e84e981404d7e0c634aaa2e64faa9f1",
}


@pytest.mark.parametrize("m,style", sorted(_TEXT_DIGESTS))
def test_unparse_text_is_frozen(m, style):
    params = fc.Params(m, 1)
    digest = hashlib.sha256()
    for leaves in valid_leaf_counts(params, 9):
        for t in fc.enumerate_trees(params, leaves):
            digest.update(fc.unparse(t, style).encode() + b"\n")
    assert digest.hexdigest() == _TEXT_DIGESTS[m, style]


# ------------------------------------------------------------ error corpus

_EDIT_CHARS = "*()$1\u00e9 \t\x1c\u2028\u00a0"


def _random_entries(rng: random.Random, m: int, nodes: int) -> tuple:
    """A random path tuple with the given node count: a shuffled preorder
    word (+m-1 per node, -1 per leaf) started after its first lowest
    point (cycle lemma), then read as up-runs between leaves."""
    word = [True] * nodes + [False] * (nodes * (m - 1) + 1)
    rng.shuffle(word)
    level = low = cut = 0
    for i, node in enumerate(word):
        level += m - 1 if node else -1
        if level < low:
            low, cut = level, i + 1
    entries, run = [], 0
    for node in word[cut:] + word[:cut]:
        if node:
            run += m - 1
        else:
            entries.append(run)
            run = 0
    return tuple(entries[:-1])  # the last leaf closes no run


def _error_corpus():
    """(text, params) pairs: the text of a random tree with a quarter of
    its '*' written as spaces, then one random edit."""
    rng = random.Random(20201015)
    for _ in range(2000):
        m = rng.randint(2, 4)
        params = fc.Params(m, 1)
        d = fc.DyckTuple(_random_entries(rng, m, rng.randint(0, 8)), m - 1)
        text = fc.unparse(fc.from_dyck(d, params),
                          rng.choice(("minimal", "full")))
        text = "".join(" " if c == "*" and rng.random() < 0.25 else c
                       for c in text)
        yield edit_once(rng, text, _EDIT_CHARS), params


# SHA-256 over the repr of the reader's result on every text of the
# corpus, one per line: the entries, or the error's type, message and
# offset.  Any change to what is accepted, which error wins, its wording
# or its offset shows here.
_ERROR_DIGEST = \
    "796dca37d8495d3ad76a30fe44443ed083e92a3bf089de569a0152fd01f62fac"


def test_reader_results_on_edited_texts_are_frozen():
    digest = hashlib.sha256()
    for text, params in _error_corpus():
        try:
            result = _read(text, params).entries
        except (fc.ParseError, fc.ArityError) as error:
            result = (type(error).__name__, str(error), error.offset)
        digest.update(repr(result).encode() + b"\n")
    assert digest.hexdigest() == _ERROR_DIGEST


def _two_fault_corpus():
    """(text, params, whether the operand fault comes first): the text of
    a random tree, a quarter of its '*' written as spaces, with one
    operand fault ('**', '(*', '*)', '()', or a '*' at either end) and
    one group fault (a one-operand group, a run that cannot fold, a stray
    ')', an open '(') put in at least one token apart."""
    rng = random.Random("two faults")
    made = 0
    while made < 2000:
        group = rng.choice(("one operand", "fold", "stray )", "open ("))
        m = rng.randint(3 if group == "fold" else 2, 4)  # m = 2 folds any run
        params = fc.Params(m, 1)
        d = fc.DyckTuple(_random_entries(rng, m, rng.randint(1, 8)), m - 1)
        text = fc.unparse(fc.from_dyck(d, params),
                          rng.choice(("minimal", "full")))
        tokens = [" " if t == "*" and rng.random() < 0.25 else t
                  for t in re.findall(r"x\d+|[*()]", text)]
        at = {c: [i for i, t in enumerate(tokens) if t[0] == c] for c in "*()x"}
        n = len(tokens)
        # Each fault is a slice of tokens and the text put in its place.
        groups = {"one operand": [(i, i + 1, "(%s)" % tokens[i])
                                  for i in at["x"]],
                  "fold": [(i + 1, i + 1, "*y") for i in at["x"]],
                  "stray )": [(i + 1, i + 1, ")") for i in at["x"]],
                  "open (": [(i, i, "(") for i in at["x"]]}
        operands = {"**": [(i, i, "*") for i in at["*"]],
                    "(*": [(i + 1, i + 1, "*") for i in at["("]],
                    "*)": [(i, i, "*") for i in at[")"]],
                    "()": [(i, i, "()") for i in range(n + 1)],
                    "lead *": [(0, 0, "*")], "end *": [(n, n, "*")]}
        operand = rng.choice(rng.choice([s for s in operands.values() if s]))
        first, second = sorted((operand, rng.choice(groups[group])))
        if first[1] >= second[0]:
            continue
        for start, stop, put in (second, first):
            tokens[start:stop] = [put]
        made += 1
        yield "".join(tokens), params, operand is first


# _ERROR_DIGEST's form over _two_fault_corpus(), as the reader that
# scanned the skeleton character by character gave it.
_TWO_FAULT_DIGEST = \
    "cde31316c04b663f215a0e6b73de76df055ad893954cd55725bc12dbacac8168"


def test_the_error_that_wins_on_two_fault_texts_is_frozen():
    digest = hashlib.sha256()
    orders, winners = Counter(), Counter()
    for text, params, operand_first in _two_fault_corpus():
        try:
            _read(text, params)
        except (fc.ParseError, fc.ArityError) as error:
            result = (type(error).__name__, str(error), error.offset)
        else:
            raise AssertionError("read %r" % text)
        digest.update(repr(result).encode() + b"\n")
        orders[operand_first] += 1
        winners[result[1].startswith("expected an operand")] += 1
    assert min(orders.values()) > 500 and min(winners.values()) > 500
    assert digest.hexdigest() == _TWO_FAULT_DIGEST


def test_str_isspace_agrees_with_re_whitespace():
    # The reader skips what str.isspace() calls whitespace; its error
    # offsets and the bad-character pattern rely on re's \s meaning the
    # same, on every code point.
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert [c for c in everything if c.isspace()] == \
        re.findall(r"\s", everything)


def test_the_reader_classes_agree_with_re_on_every_code_point():
    # The skeleton's classes, character by character: "a" where re's \w
    # matches and \d does not, "d" where \d matches, " " where \s does,
    # '*()' as they are and "?" for anything else.  The classes of code
    # points past ASCII stay in one read's table; the module keeps the
    # 128 ASCII ones alone.
    from fusscat.expr import _ASCII, _Classes

    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    expected = everything
    for pattern, cls in ((r"[^\W\d]", "a"), (r"\d", "d"), (r"\s", " "),
                         (r"[^\w\s*()]", "?")):
        expected = re.sub(pattern, cls, expected)
    ours = everything.translate(_Classes(_ASCII))
    assert ours == expected, next(
        "U+%04X: %r, not %r" % (i, a, b)
        for i, (a, b) in enumerate(zip(ours, expected)) if a != b)
    p2 = fc.Params(2, 1)
    assert _read("αβ*Ⅻ٣ (ǅ²*x٣)", p2) == _read("x1*x2 (x3*x4)", p2)
    assert len(_ASCII) == 128
