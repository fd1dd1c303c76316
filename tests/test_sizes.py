"""The one size rule: some m-ary tree has N = L + 1 leaves iff L >= 0
and m-1 divides L.  Every function that takes a size applies it, with
one message, and the single operand (L = 0) is one class on every
route."""

from __future__ import annotations

import re
import sys
from functools import partial

import pytest

import fusscat as fc
import fusscat.cli as cli

# Each takes (params, length L) and fails unless some tree has L + 1 leaves.
SIZED = {
    "fuss_catalan": lambda p, n: fc.fuss_catalan(p.m, n + 1),
    "modular_fuss_catalan": fc.modular_fuss_catalan,
    "count_minimal_brute": fc.count_minimal_brute,
    "enumerate_classes": lambda p, n: fc.enumerate_classes(p, n + 1),
    "enumerate_tuples": lambda p, n: list(fc.enumerate_tuples(p, n)),
    "enumerate_trees": lambda p, n: list(fc.enumerate_trees(p, n + 1)),
}
# Each takes (params, leaf count N) and fails unless N is an int.
LEAF_COUNTED = {
    "fuss_catalan": lambda p, leaves: fc.fuss_catalan(p.m, leaves),
    "enumerate_classes": fc.enumerate_classes,
    "enumerate_trees": fc.enumerate_trees,
}


def test_fits_is_the_rule():
    for m in (2, 3, 4, 7):
        params = fc.Params(m, 1)
        assert [n for n in range(-5, 20) if params.fits(n)] == \
            list(range(0, 20, m - 1))


@pytest.mark.parametrize("name", sorted(SIZED))
@pytest.mark.parametrize("m,length", [(2, -2), (3, -2), (3, 3), (4, -2),
                                      (4, 4), (4, 5), (2, -1), (5, 3),
                                      (5, 5), (6, 4), (6, 6)])
def test_every_sized_function_gives_the_one_message(name, m, length):
    message = "no %d-ary tree has %d leaves (length %d)" % (
        m, length + 1, length)
    with pytest.raises(fc.ArityError, match="^%s$" % re.escape(message)):
        SIZED[name](fc.Params(m, 2), length)


@pytest.mark.parametrize("name", sorted(SIZED))
@pytest.mark.parametrize("length", [3.5, 4.0])
def test_every_sized_function_refuses_a_length_that_is_not_an_int(
        name, length):
    # A route that takes a leaf count is given length + 1, and names it.
    what, value = (("leaf count", length + 1) if name in LEAF_COUNTED
                   else ("length", length))
    with pytest.raises(fc.DomainError, match="^%s must be an integer, "
                       "got %s$" % (what, re.escape(repr(value)))):
        SIZED[name](fc.Params(2, 2), length)


# A bool is an int subclass, but True is not one leaf; refused at the call,
# before the leaf count is turned into a length.
@pytest.mark.parametrize("name", sorted(LEAF_COUNTED))
@pytest.mark.parametrize("leaves", [True, False, 3.0, 2.5, "3"])
def test_a_leaf_count_that_is_not_an_int_is_refused(name, leaves):
    with pytest.raises(fc.DomainError, match="^leaf count must be an "
                       "integer, got %s$" % re.escape(repr(leaves))):
        LEAF_COUNTED[name](fc.Params(2, 2), leaves)


# The routes that take a leaf count add one to a bool length, which makes
# it an int, so only the routes that take the length itself see a bool
# here; test_a_leaf_count_that_is_not_an_int_is_refused gives the others one.
@pytest.mark.parametrize("name", ["count_minimal_brute", "enumerate_tuples",
                                  "modular_fuss_catalan"])
@pytest.mark.parametrize("length", [True, False])
def test_a_bool_length_is_refused(name, length):
    with pytest.raises(fc.DomainError, match="^length must be an integer, "
                       "got %r$" % length):
        SIZED[name](fc.Params(2, 2), length)


def test_count_gives_the_one_message(capsys):
    assert cli.main(["count", "--m", "4", "--k", "2", "--leaves", "3"]) == 2
    assert capsys.readouterr().err == \
        "error: no 4-ary tree has 3 leaves (length 2)\n"


def test_one_operand_is_one_class_on_every_route():
    for m in (2, 3, 4):
        assert fc.fuss_catalan(m, 1) == 1
        for k in (1, 2, 3):
            params = fc.Params(m, k)
            assert fc.modular_fuss_catalan(params, 0) == 1
            assert fc.count_minimal_brute(params, 0) == 1
            [report] = fc.enumerate_classes(params, 1)
            assert (report.representative.entries, report.members) == \
                ((), (fc.leaf(),))
            assert list(fc.enumerate_trees(params, 1)) == [fc.leaf()]


@pytest.mark.parametrize("operands", [0, 2, 4])
def test_runs_that_do_not_fold_keep_their_own_message(operands):
    params = fc.Params(3, 1)
    with pytest.raises(fc.ArityError, match="^a run of %d operands "
                       "cannot fold at arity 3" % operands):
        fc.left_assoc_meet([fc.leaf()] * operands, params)
    if operands:
        with pytest.raises(fc.ArityError, match=re.escape(
                "run of %d operands cannot fold at arity 3 (offset 0)"
                % operands)):
            fc.parse(" ".join("x" * operands), params)


# sys.maxsize is odd: no ternary tree has that length, and the even length
# past it fits but is too large.  Every length fits at m = 2, so sys.maxsize
# passes the size rule there and a budget refuses it.
PAST_MAXSIZE = "^length 9223372036854775808 "
MAXSIZE_EDGES = [
    ("m3-maxsize", 3, sys.maxsize, fc.ArityError,
     "^no 3-ary tree has %d leaves " % (sys.maxsize + 1)),
    ("m3-past-maxsize", 3, sys.maxsize + 1, fc.DomainError,
     "^length %d is above the largest " % (sys.maxsize + 1)),
    ("m2-maxsize", 2, sys.maxsize, fc.BudgetError,
     "exceed the budget|work limit"),
]


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: fc.fuss_catalan(2, 2**63 + 1),
                 fc.DomainError, PAST_MAXSIZE, id="fuss_catalan"),
    pytest.param(lambda: fc.modular_fuss_catalan(fc.Params(2, 1), 2**63),
                 fc.DomainError, PAST_MAXSIZE, id="modular_fuss_catalan"),
    pytest.param(lambda: fc.enumerate_classes(fc.Params(2, 1), 2**63 + 1),
                 fc.DomainError, PAST_MAXSIZE, id="enumerate_classes"),
] + [
    pytest.param(partial(SIZED[name], fc.Params(m, 1), length), error,
                 match, id="%s-%s" % (name, label))
    for name in ("fuss_catalan", "modular_fuss_catalan", "enumerate_classes")
    for label, m, length, error, match in MAXSIZE_EDGES
])
def test_a_size_past_sys_maxsize_is_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_count_refuses_a_huge_size(capsys):
    assert cli.main(["count", "--m", "2", "--k", "1",
                     "--leaves", "99999999999999999999"]) == 2
    assert capsys.readouterr().err == (
        "error: length 99999999999999999998 is above the largest supported "
        "size %d\n" % sys.maxsize)
