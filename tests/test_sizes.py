"""The one size rule: some m-ary tree has N = L + 1 leaves iff L >= 0
and m-1 divides L.  Every function that takes a size applies it, with
one message, and the single operand (L = 0) is one class on every
route."""

from __future__ import annotations

import re
import sys

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


def test_fits_is_the_rule():
    for m in (2, 3, 4, 7):
        params = fc.Params(m, 1)
        assert [n for n in range(-5, 20) if params.fits(n)] == \
            list(range(0, 20, m - 1))


@pytest.mark.parametrize("name", sorted(SIZED))
@pytest.mark.parametrize("m,length", [(2, -2), (3, -2), (3, 3), (4, -2),
                                      (4, 4), (4, 5)])
def test_every_sized_function_gives_the_one_message(name, m, length):
    message = "no %d-ary tree has %d leaves (length %d)" % (
        m, length + 1, length)
    with pytest.raises(fc.ArityError, match="^%s$" % re.escape(message)):
        SIZED[name](fc.Params(m, 2), length)


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


@pytest.mark.parametrize("call", [
    lambda: fc.fuss_catalan(2, 2**63 + 1),
    lambda: fc.modular_fuss_catalan(fc.Params(2, 1), 2**63),
    lambda: fc.enumerate_classes(fc.Params(2, 1), 2**63 + 1),
], ids=["fuss_catalan", "modular_fuss_catalan", "enumerate_classes"])
def test_a_size_past_sys_maxsize_is_refused(call):
    with pytest.raises(fc.DomainError, match="^length 9223372036854775808 "):
        call()


def test_count_refuses_a_huge_size(capsys):
    assert cli.main(["count", "--m", "2", "--k", "1",
                     "--leaves", "99999999999999999999"]) == 2
    assert capsys.readouterr().err == (
        "error: length 99999999999999999998 is above the largest supported "
        "size %d\n" % sys.maxsize)
