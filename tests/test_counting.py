"""Counting formula, brute-force cross-checks, classes, and cycle words."""

from __future__ import annotations

import hashlib
import random
import re
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager

import pytest

import fusscat as fc
from fusscat import dyck
from conftest import (GRID_PARAMS, cycle_words, dyck_shifts, is_dyck_word,
                      valid_leaf_counts)

P32 = fc.Params(3, 2)
P22 = fc.Params(2, 2)

LARGE_BUDGET_S = 10.0


@pytest.fixture(scope="module")
def large_budget():
    """One wall-clock budget for the cells at lengths near 1000 and 2000
    of every test that takes it; a count quadratic in the length misses
    it."""
    spent = [0.0]

    @contextmanager
    def cells():
        start = time.monotonic()
        yield
        spent[0] += time.monotonic() - start
        assert spent[0] < LARGE_BUDGET_S

    return cells


def _large_lengths(step):
    """Lengths near 1000 and 2000 that step = m-1 divides."""
    return sorted({length - length % step for length in (1000, 2000, 2001)})


# Counts for m=2, k=2 at lengths 1..6, fixed by an enumeration that
# predates this library: list all lattice paths as run tuples and keep
# those whose entries after the first stay below 2.
GOLDEN_M2_K2 = [1, 2, 4, 8, 16, 32]


def _oracle_tuples(step, length):
    """Independent path enumeration; no library calls."""
    out = []

    def rec(acc, sofar):
        i = len(acc)
        if i == length:
            if sofar == length:
                out.append(tuple(acc))
            return
        low = -(-max(0, i + 1 - sofar) // step) * step
        for d in range(low, length - sofar + 1, step):
            rec(acc + [d], sofar + d)

    rec([], 0)
    return out


def _oracle_minimal_count(m, k, length):
    modulus = k * (m - 1)
    return sum(1 for t in _oracle_tuples(m - 1, length)
               if all(e < modulus for e in t[1:]))


def _ballot_minimal_counts(m, k, top):
    """Minimal tuples of every length 0..top by a ballot-style dynamic
    program on (index, prefix sum); no library calls.

    The first entry is any positive multiple of m-1, later entries are
    multiples of m-1 below K, and the prefix sum after i entries is at
    least i.  A tuple of length L ends with prefix sum exactly L, so one
    pass up to `top` counts every length: entry L of the result is the
    number of paths at state (L, L).  Prefix sums above `top` can never
    come back down, so they are dropped.
    """
    step = m - 1
    row = {p: 1 for p in range(step, top + 1, step)}  # after index 1
    counts = [1, row.get(1, 0)]
    for index in range(2, top + 1):
        nxt = {}
        for p, ways in row.items():
            for e in range(0, k * step, step):
                q = p + e
                if index <= q <= top:
                    nxt[q] = nxt.get(q, 0) + ways
        row = nxt
        counts.append(row.get(index, 0))
    return counts


# ------------------------------------------------------------------ numerics

def test_fuss_catalan_values():
    assert fc.fuss_catalan(3, 7) == 12
    assert fc.fuss_catalan(2, 5) == 14
    assert fc.fuss_catalan(4, 10) == 22
    assert fc.fuss_catalan(3, 1) == 1


def test_fuss_catalan_rejects_bad_input():
    with pytest.raises(fc.ArityError):
        fc.fuss_catalan(3, 6)
    with pytest.raises(fc.ArityError):
        fc.fuss_catalan(2, 0)
    with pytest.raises(fc.DomainError):
        fc.fuss_catalan(1, 5)


def test_fuss_catalan_division_is_exact_well_past_the_test_grid():
    for m in range(2, 6):
        for g in range(0, 30):
            assert fc.fuss_catalan(m, 1 + g * (m - 1)) >= 1


# ------------------------------------------------------------------- formula

def test_modular_fuss_catalan_headline_value():
    assert fc.modular_fuss_catalan(P32, 6) == 10


def test_modular_fuss_catalan_golden_m2_k2():
    assert [fc.modular_fuss_catalan(P22, L) for L in range(1, 7)] \
        == GOLDEN_M2_K2
    assert [fc.count_minimal_brute(P22, L) for L in range(1, 7)] \
        == GOLDEN_M2_K2
    assert [_oracle_minimal_count(2, 2, L) for L in range(1, 7)] \
        == GOLDEN_M2_K2


def test_modular_fuss_catalan_rejects_bad_lengths():
    with pytest.raises(fc.ArityError):
        fc.modular_fuss_catalan(P32, 5)
    assert fc.modular_fuss_catalan(P32, 0) == 1  # the bare operand


def test_formula_agrees_with_independent_oracle_on_a_small_grid():
    for params in GRID_PARAMS:
        for length in range(params.step, 9, params.step):
            expected = _oracle_minimal_count(params.m, params.k, length)
            assert fc.modular_fuss_catalan(params, length) == expected
            assert fc.count_minimal_brute(params, length) == expected


def test_ballot_dp_agrees_with_independent_oracle():
    for params in GRID_PARAMS:
        counts = _ballot_minimal_counts(params.m, params.k, 8)
        assert counts == [_oracle_minimal_count(params.m, params.k, length)
                          for length in range(0, 9)]


def test_formula_agrees_with_ballot_dp_up_to_length_200():
    # brute force stops near L = 14; the dynamic program is polynomial.
    # Every valid length meets the formula's running term at each of its
    # steps: 3,360 cells, one DP pass per (m, k).
    for m in (2, 3, 4, 5):
        top = 200 - 200 % (m - 1)
        for k in range(1, 9):
            counts = _ballot_minimal_counts(m, k, top)
            params = fc.Params(m, k)
            for length in range(0, top + 1, m - 1):
                assert fc.modular_fuss_catalan(params, length) \
                    == counts[length], (m, k, length)


def test_formula_agrees_with_ballot_dp_near_length_1000():
    # far past brute force: two polynomial routes, one cell each
    for m, k, length in ((2, 2, 1000), (3, 2, 1000), (2, 5, 1000),
                         (4, 3, 999)):
        counts = _ballot_minimal_counts(m, k, length)
        assert fc.modular_fuss_catalan(fc.Params(m, k), length) \
            == counts[length], (m, k, length)


def test_the_formula_calls_nothing_in_params_on_a_size_that_fits(
        monkeypatch):
    # every cell of perfbench's count_table, and the bare operand
    def refuse(*args):
        raise AssertionError("the formula called into Params")

    monkeypatch.setattr(fc.Params, "check_length", refuse)
    monkeypatch.setattr(fc.Params, "fits", refuse)
    monkeypatch.setattr(fc.Params, "step", property(refuse))
    cells = 0
    for m in (2, 3, 4):
        for k in range(1, 9):
            counts = _ballot_minimal_counts(m, k, 40)
            params = fc.Params(m, k)
            for length in range(0, 41, m - 1):
                assert fc.modular_fuss_catalan(params, length) \
                    == counts[length], (m, k, length)
                cells += length > 0
    assert cells == 584


def test_the_formula_takes_n_over_k_plus_one_terms(monkeypatch):
    # Clock-free: the first term is one binomial, and each next one is
    # one multiply and one division by perm(top - L, k) and perm(top, k).
    from fusscat import formula

    calls = {"comb": 0, "perm": 0}

    def counted(name, call):
        def wrapper(*args):
            calls[name] += 1
            return call(*args)
        return wrapper

    monkeypatch.setattr(formula, "comb", counted("comb", formula.comb))
    monkeypatch.setattr(formula, "perm", counted("perm", formula.perm))
    for m in (2, 3, 4):
        for k in (1, 2, 8):
            for length in (10, 100, 1000):
                length -= length % (m - 1)
                n = length // (m - 1)
                calls.update(comb=0, perm=0)
                fc.modular_fuss_catalan(fc.Params(m, k), length)
                assert calls == {"comb": 1, "perm": 2 * (n // k)}, \
                    (m, k, length)


@pytest.mark.parametrize("call", [
    lambda: fc.fuss_catalan(2, 2**62 + 1),
    lambda: fc.modular_fuss_catalan(fc.Params(2, 1), 10**6),
], ids=["fuss_catalan", "modular_fuss_catalan"])
def test_a_formula_past_its_work_limit_is_refused_at_once(call):
    start = time.monotonic()
    with pytest.raises(fc.BudgetError, match="^length [0-9]+ is past the "
                       "formula's work limit: terms \\* length\\*\\*2 = "):
        call()
    assert time.monotonic() - start < 1.0


def test_the_work_limit_counts_terms_times_length_squared(monkeypatch):
    import fusscat.formula

    # At (2, 8, 8) the sum has n/k + 1 = 2 terms: work 2 * 8**2 = 128.
    monkeypatch.setattr(fusscat.formula, "FORMULA_WORK_LIMIT", 128)
    assert fc.modular_fuss_catalan(fc.Params(2, 8), 8) == \
        fc.fuss_catalan(2, 9) == 1430
    with pytest.raises(fc.BudgetError, match="= 162 > 128$"):
        fc.modular_fuss_catalan(fc.Params(2, 9), 9)
    assert fc.fuss_catalan(2, 12) == 58786  # one term: 11**2 = 121
    with pytest.raises(fc.BudgetError, match="= 144 > 128$"):
        fc.fuss_catalan(2, 13)


def test_the_formula_refuses_a_sum_that_does_not_divide(monkeypatch):
    # Both counts end in an exact division; a binomial off by one, forged
    # here, leaves a remainder, which raises rather than rounding down.
    import fusscat.formula

    comb = fusscat.formula.comb
    monkeypatch.setattr(fusscat.formula, "comb", lambda n, r: comb(n, r) + 1)
    with pytest.raises(fc.InternalInvariantError, match=re.escape(
            "binom(8,4) not divisible by 5")):
        fc.fuss_catalan(2, 5)
    with pytest.raises(fc.InternalInvariantError, match=re.escape(
            "class sum is not divisible by n(L+1) = 20")):
        fc.modular_fuss_catalan(fc.Params(2, 1), 4)


def test_count_minimal_brute_accepts_the_empty_length():
    assert fc.count_minimal_brute(P32, 0) == 1
    with pytest.raises(fc.ArityError):
        fc.count_minimal_brute(P32, 5)


def test_count_minimal_brute_builds_no_tuple(monkeypatch):
    # The brute walks plain entry lists; one DyckTuple would fail.
    def refuse(*args):
        raise AssertionError("count_minimal_brute built a DyckTuple")

    monkeypatch.setattr(fc.DyckTuple, "__init__", refuse)
    for m in (2, 3, 4):
        for k in (1, 2, 3, 4):
            counts = _ballot_minimal_counts(m, k, 12)
            for length in range(0, 13, m - 1):
                assert fc.count_minimal_brute(fc.Params(m, k), length) \
                    == counts[length], (m, k, length)


def test_count_minimal_brute_matches_the_ballot_dp_within_the_budget(
        monkeypatch):
    import fusscat.counting

    budget = fusscat.counting.DEFAULT_BUDGET
    monkeypatch.delenv("FUSSCAT_BUDGET", raising=False)
    for m in range(2, 6):
        lengths = [length for length in range(0, 60, m - 1)
                   if fc.fuss_catalan(m, length + 1) <= budget]
        for k in range(1, 7):
            counts = _ballot_minimal_counts(m, k, lengths[-1])
            for length in lengths:
                assert fc.count_minimal_brute(fc.Params(m, k), length) \
                    == counts[length], (m, k, length)


def test_count_minimal_brute_walks_only_the_minimal_tuples(monkeypatch):
    # Catalan(200), about 10**117 tuples, hold one minimal tuple at k = 1;
    # a walk over every tuple would never finish.
    monkeypatch.setenv("FUSSCAT_BUDGET", str(10**120))
    start = time.monotonic()
    assert fc.count_minimal_brute(fc.Params(2, 1), 200) == 1
    assert time.monotonic() - start < 2.0


def test_count_minimal_brute_budget(monkeypatch):
    # The brute budgets the tuples it may walk, min(trees, k^(L-1)), and
    # the L entries of one: 12 trees at (3, 2, 6), 2^15 tails at
    # (3, 2, 16), which has 43,263 trees, and one tuple at k = 1.
    # (2, 2, 14) has 2,674,440 trees, past the default budget, but 2^13
    # tails.
    monkeypatch.setenv("FUSSCAT_BUDGET", "5")
    with pytest.raises(fc.BudgetError, match="^12 tuples exceed the budget "
                       "of 5$"):
        fc.count_minimal_brute(P32, 6)
    monkeypatch.setenv("FUSSCAT_BUDGET", "12")
    assert fc.count_minimal_brute(P32, 6) == 10
    monkeypatch.setenv("FUSSCAT_BUDGET", "32767")
    with pytest.raises(fc.BudgetError, match="^32768 tuples exceed the "
                       "budget of 32767$"):
        fc.count_minimal_brute(P32, 16)
    monkeypatch.setenv("FUSSCAT_BUDGET", "32768")
    assert fc.count_minimal_brute(P32, 16) == 6435
    monkeypatch.delenv("FUSSCAT_BUDGET")
    assert fc.count_minimal_brute(fc.Params(2, 2), 14) == 8192
    monkeypatch.setenv("FUSSCAT_BUDGET", "9")
    with pytest.raises(fc.BudgetError, match="^tuples of 10 entries exceed "
                       "the budget of 9$"):
        fc.count_minimal_brute(fc.Params(2, 1), 10)
    monkeypatch.setenv("FUSSCAT_BUDGET", "10")
    assert fc.count_minimal_brute(fc.Params(2, 1), 10) == 1


@pytest.mark.parametrize("route,unit", [
    (fc.count_minimal_brute, "tuples"),
    (lambda p, n: fc.enumerate_classes(p, n + 1), "trees"),
], ids=["count_minimal_brute", "enumerate_classes"])
def test_a_huge_size_is_refused_without_counting_its_trees(route, unit,
                                                           monkeypatch):
    # n internal nodes make at least 2^(n-1) trees, and at k >= 2 the L
    # entries after the first at least 2^(L-1) tails, so a size far past
    # the budget is refused before the tree count is computed.
    import fusscat.counting
    import fusscat.dyck

    def refuse(*args):
        raise AssertionError("counted or built trees past the budget")

    monkeypatch.setattr(fusscat.counting, "fuss_catalan", refuse)
    for name in ("_entry_lists", "_coded_trees"):
        monkeypatch.setattr(fusscat.dyck, name, refuse)
    with pytest.raises(fc.BudgetError, match=r"^at least 2\*\*21 %s "
                       "exceed the budget of 1000000$" % unit):
        route(fc.Params(2, 2), 22)
    with pytest.raises(fc.BudgetError):
        route(fc.Params(2, 2), 10**12 - 1)
    monkeypatch.setenv("FUSSCAT_BUDGET", "7")
    with pytest.raises(fc.BudgetError, match=r"^at least 2\*\*3 %s "
                       "exceed the budget of 7$" % unit):
        route(fc.Params(3, 2), 8)


def test_degenerate_k_one_gives_full_associativity(large_budget):
    for m in (2, 3, 4):
        params = fc.Params(m, 1)
        for length in range(m - 1, 11, m - 1):
            assert fc.modular_fuss_catalan(params, length) == 1
    with large_budget():
        for m in (2, 3, 4):
            params = fc.Params(m, 1)
            for length in _large_lengths(m - 1):
                assert fc.modular_fuss_catalan(params, length) == 1, \
                    (m, length)
    # C_{1,n} = 1 at the largest lengths that the work limit admits, sums
    # of L/(m-1) + 1 terms, under a wall-clock bound of their own.
    start = time.monotonic()
    for m, length in ((2, 4095), (3, 5158), (4, 5904)):
        assert fc.modular_fuss_catalan(fc.Params(m, 1), length) == 1, \
            (m, length)
        with pytest.raises(fc.BudgetError):
            fc.modular_fuss_catalan(fc.Params(m, 1), length + m - 1)
    assert time.monotonic() - start < 1.0


def test_saturated_k_counts_every_tree(large_budget):
    for m in (2, 3):
        for k in (1, 2, 3, 4, 5):
            params = fc.Params(m, k)
            for length in range(m - 1, 9, m - 1):
                if params.modulus >= length:
                    assert fc.modular_fuss_catalan(params, length) \
                        == fc.fuss_catalan(m, length + 1)
    with large_budget():
        for m in (2, 3, 4):
            for length in _large_lengths(m - 1):
                n = length // (m - 1)  # internal nodes
                for k in (n, n + 1):
                    assert fc.modular_fuss_catalan(fc.Params(m, k), length) \
                        == fc.fuss_catalan(m, length + 1), (m, k, length)


def test_counts_are_monotone_in_k_and_bounded():
    for m in (2, 3, 4):
        for length in range(m - 1, 11, m - 1):
            counts = [fc.modular_fuss_catalan(fc.Params(m, k), length)
                      for k in range(1, 6)]
            assert counts == sorted(counts)
            assert counts[0] == 1
            assert counts[-1] <= fc.fuss_catalan(m, length + 1)


# ------------------------------------------------------------------- classes

def test_enumerate_classes_headline_cell():
    reports = fc.enumerate_classes(P32, 7)
    assert len(reports) == 10
    assert sorted((r.size for r in reports), reverse=True) == [3] + [1] * 9
    assert sum(r.size for r in reports) == fc.fuss_catalan(3, 7)
    big = max(reports, key=lambda r: r.size)
    assert big.representative.entries == (6, 0, 0, 0, 0, 0)
    expected = {fc.parse("((x1*x2*x3)*x4*x5)*x6*x7", P32),
                fc.parse("x1*((x2*x3*x4)*x5*x6)*x7", P32),
                fc.parse("x1*x2*((x3*x4*x5)*x6*x7)", P32)}
    assert set(big.members) == expected


def test_enumerate_classes_reports_are_sorted_and_minimal():
    reports = fc.enumerate_classes(P32, 7)
    reps = [r.representative for r in reports]
    assert [r.entries for r in reps] == sorted(r.entries for r in reps)
    for report in reports:
        assert fc.is_minimal(report.representative, P32)
        # The minimal member sorts last; enumerate_classes seeds on it.
        assert fc.to_dyck(report.members[-1], P32) == report.representative
        assert report.size == len(report.members)
        for member in report.members:
            assert fc.equivalent(member, report.representative, P32)


def test_enumerate_classes_k1_single_class():
    reports = fc.enumerate_classes(fc.Params(3, 1), 7)
    assert len(reports) == 1 and reports[0].size == 12


def test_enumerate_classes_single_leaf():
    reports = fc.enumerate_classes(P32, 1)
    assert len(reports) == 1
    assert reports[0].representative.entries == ()
    assert reports[0].members == (fc.leaf(),)


def test_enumerate_classes_traces_lead_to_the_representative():
    for params in (P32, fc.Params(2, 2)):
        leaves = 7 if params.m == 3 else 6
        for report in fc.enumerate_classes(params, leaves, with_traces=True):
            rep_tree = fc.from_dyck(report.representative, params)
            for member, trace in zip(report.members, report.traces):
                node = member
                for direction, address, position in trace:
                    rotate = (fc.rotate_right if direction == "right"
                              else fc.rotate_left)
                    node = rotate(node, address, position, params)
                assert node == rep_tree
                if member == rep_tree:
                    assert trace == ()


def test_traced_classes_make_no_tree_rotation(monkeypatch):
    # The closure edits tuples; a call into the tree rotation would fail.
    import fusscat.tree

    def refuse(*args):
        raise AssertionError("enumerate_classes rotated a tree")

    for module in (fc, fusscat.tree):
        monkeypatch.setattr(module, "rotate_right", refuse)
        monkeypatch.setattr(module, "rotate_left", refuse)
    reports = fc.enumerate_classes(P32, 7, with_traces=True)
    singles = [(2, 0, 2, 0, 2, 0), (2, 0, 2, 2, 0, 0), (2, 2, 0, 0, 2, 0),
               (2, 2, 0, 2, 0, 0), (2, 2, 2, 0, 0, 0), (4, 0, 0, 0, 2, 0),
               (4, 0, 0, 2, 0, 0), (4, 0, 2, 0, 0, 0), (4, 2, 0, 0, 0, 0)]
    assert [(r.representative.entries, r.traces) for r in reports] == [
        (entries, ((),)) for entries in singles] + [
        ((6, 0, 0, 0, 0, 0), ((("left", (), 2), ("left", (), 1)),
                              (("left", (), 1),), ()))]


def _code(d):
    """A tuple as the closure reads it: node counts and a closing "\\0"."""
    return "".join([chr(e // d.step) for e in d.entries]) + "\0"


@pytest.mark.parametrize("change", ["one more", "one less"])
def test_a_closure_that_is_not_the_class_is_an_internal_error(change):
    # The closure of the representative must reach exactly the members it
    # is given: here (6,0,0,0,0,0)'s three, with a stray tuple added or a
    # member dropped.
    from fusscat.rotation import _traces

    reports = fc.enumerate_classes(P32, 7)
    rep = _code(reports[-1].representative)
    members = [_code(fc.to_dyck(t, P32)) for t in reports[-1].members]
    if change == "one more":
        members.append(_code(reports[0].representative))
    else:
        members.pop()
    message = ("rotation closure of the representative disagrees with the "
               "signature class (3 reached, %d expected)" % len(members))
    with pytest.raises(fc.InternalInvariantError,
                       match="^%s$" % re.escape(message)):
        _traces(rep, members, P32)


def test_enumerate_classes_builds_one_tuple_per_class(monkeypatch,
                                                     tuples_built):
    # The representative is read off the group key: one DyckTuple per
    # class, and no canonicalize.
    import fusscat.dyck

    def refuse(*args):
        raise AssertionError("enumerate_classes called canonicalize")

    for module in (fc, fusscat.dyck):
        monkeypatch.setattr(module, "canonicalize", refuse)
    for params in GRID_PARAMS:
        for leaves in valid_leaf_counts(params, 9):
            for with_traces in (False, True):
                del tuples_built[:]
                reports = fc.enumerate_classes(params, leaves, with_traces)
                assert sorted(tuples_built) == [
                    r.representative.entries for r in reports], (params, leaves)


# SHA-256 over the repr of every traced class list with at most 9 leaves,
# m 2..4 and k 1..3: the members, the breadth-first traces and so the
# order in which the closure lists its moves.
_TRACE_DIGEST = \
    "3a59839ae8fe791d0982e5f8aafce55e37ab7e8e9c7d9b14a1483b07bb8cb56e"


def test_traced_classes_are_frozen():
    digest = hashlib.sha256()
    for m in (2, 3, 4):
        for k in (1, 2, 3):
            params = fc.Params(m, k)
            for leaves in valid_leaf_counts(params, 9):
                reports = fc.enumerate_classes(params, leaves, with_traces=True)
                digest.update(repr(reports).encode() + b"\n")
    assert digest.hexdigest() == _TRACE_DIGEST


def _reference_classes(params, leaves, with_traces):
    """The route that decodes each member on its own: enumerate the
    tuples, group them by signature, decode the members with from_dyck."""
    from fusscat.rotation import _traces

    groups = {}
    for d in fc.enumerate_tuples(params, leaves - 1):
        groups.setdefault(fc.signature(d, params), []).append(d)
    reports = []
    for members in groups.values():
        rep = fc.canonicalize(members[0], params)
        traces = (_traces(_code(rep), list(map(_code, members)), params)
                  if with_traces else None)
        reports.append((rep, tuple(fc.from_dyck(d, params) for d in members),
                        traces))
    return sorted(reports, key=lambda report: report[0].entries)


def test_enumerate_classes_matches_the_decoding_route():
    for params in GRID_PARAMS:
        for leaves in valid_leaf_counts(params, 10):
            with_traces = fc.fuss_catalan(params.m, leaves) <= 1500
            got = [(r.representative, r.members, r.traces) for r in
                   fc.enumerate_classes(params, leaves, with_traces=with_traces)]
            assert got == _reference_classes(params, leaves, with_traces), \
                (params, leaves)


def test_enumerate_classes_stays_within_its_memory():
    # 58,786 trees in one class.  Each tree's code is one string and its
    # index one int in its group, with no tuple per tree: the peak was
    # 17.8-18.5 MB on Python 3.10-3.13, and 28.5-29.1 MB with a code tuple
    # and a key tuple per tree.  22 MB leaves room for object sizes, which
    # differ a little between the versions CI runs.
    tracemalloc.start()
    try:
        fc.enumerate_classes(fc.Params(2, 1), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22_000_000


@pytest.mark.parametrize("m,leaves,distinct", [(2, 11, 23714), (3, 11, 345),
                                               (4, 10, 28)])
def test_class_members_share_their_subtrees(m, leaves, distinct):
    # One object per distinct tree with at most `leaves` leaves; decoding
    # each member on its own makes one object per node of every member.
    seen = set()
    todo = [t for report in fc.enumerate_classes(fc.Params(m, 1), leaves)
            for t in report.members]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.children)
    assert len(seen) == distinct


# Every class cell of m 2..4 and k 1..3 up to 11 leaves: what the class
# benchmark runs, and at m = 2 sizes up to 10 nodes, all in the store.
_STORE_CELLS = [(params, leaves) for params in GRID_PARAMS
                for leaves in valid_leaf_counts(params, 11)]


def _stored_trees():
    return sum(len(trees) for sizes in dyck._coded.values()
               for _, trees in sizes)


def _cold_reprs(cells, monkeypatch, with_traces=False):
    """repr of each cell's reports, each from an emptied store."""
    reprs = []
    for params, leaves in cells:
        monkeypatch.setattr(dyck, "_coded", {})
        reprs.append(repr(fc.enumerate_classes(params, leaves, with_traces)))
    return reprs


def test_a_warm_store_gives_the_reports_of_a_cold_one(monkeypatch):
    # Largest cell first, so that each arity's later cells read every size
    # from the store, and the arities fill it in turn.
    cells = _STORE_CELLS[::-1]
    cold = _cold_reprs(cells, monkeypatch, with_traces=True)
    monkeypatch.setattr(dyck, "_coded", {})
    assert [repr(fc.enumerate_classes(params, leaves, with_traces=True))
            for params, leaves in cells] == cold
    assert set(dyck._coded) == {2, 3, 4}


def test_calls_share_the_stored_trees(monkeypatch):
    monkeypatch.setattr(dyck, "_coded", {})
    first, second = (fc.enumerate_classes(fc.Params(2, 1), 11)[0].members
                     for _ in range(2))
    assert len(first) == 16796
    assert all(a is b for a, b in zip(first, second))


def test_a_size_past_the_cap_is_built_per_call(monkeypatch):
    # 58,786 trees of 11 nodes would pass the cap; the 23,714 of up to 10
    # nodes that the call builds first are kept.
    monkeypatch.setattr(dyck, "_coded", {})
    fc.enumerate_classes(fc.Params(2, 1), 12)
    assert _stored_trees() <= dyck._CODED_CAP
    assert len(dyck._coded[2]) == 11


def test_the_full_store_stays_within_its_memory(monkeypatch):
    # The largest sizes the cap keeps at m 2..4, in this order, 26,624 trees
    # in all: the next size of each would pass it.  tracemalloc saw the
    # store keep 4.9 to 5.1 MB on Python 3.10 to 3.13; 8 MB leaves room
    # for the object sizes of other versions.
    monkeypatch.setattr(dyck, "_coded", {})
    tracemalloc.start()
    try:
        for m, length in ((2, 10), (3, 12), (4, 15)):
            dyck._coded_trees(fc.Params(m, 1), length)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert {m: len(sizes) for m, sizes in dyck._coded.items()} \
        == {2: 11, 3: 7, 4: 6}
    assert kept < 8_000_000


def test_threads_that_fill_the_store_get_the_cold_reports(monkeypatch):
    # Eight threads, switching every microsecond, grow the store from empty
    # at once; a thread may lose another's growth, but no report may change.
    cells = random.Random(29).choices(_STORE_CELLS, k=24)
    cold = _cold_reprs(cells, monkeypatch)
    monkeypatch.setattr(dyck, "_coded", {})
    got = [None] * len(cells)

    def enumerate_every_eighth(start):
        for i in range(start, len(cells), 8):
            got[i] = repr(fc.enumerate_classes(*cells[i]))

    threads = [threading.Thread(target=enumerate_every_eighth, args=(i,))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == cold
    assert _stored_trees() <= dyck._CODED_CAP


def test_enumerate_classes_budget(monkeypatch):
    monkeypatch.setenv("FUSSCAT_BUDGET", "5")
    with pytest.raises(fc.BudgetError):
        fc.enumerate_classes(P32, 7)
    monkeypatch.setenv("FUSSCAT_BUDGET", "12")
    assert len(fc.enumerate_classes(P32, 7)) == 10


def test_the_classes_route_counts_what_enumerate_classes_lists():
    from fusscat.counting import _count_classes

    for params in GRID_PARAMS:
        for leaves in valid_leaf_counts(params, 11):
            assert _count_classes(params, leaves - 1) == len(
                fc.enumerate_classes(params, leaves)), (params, leaves)


def test_the_classes_route_walks_one_entry_list_per_tree(monkeypatch):
    # Clock-free: on a ladder of 1, 2, 4 and 8 internal nodes the route
    # walks each tuple once, and no more.
    from fusscat.counting import _count_classes

    walked = [0]
    entry_lists = dyck._entry_lists

    def counted(length, s):
        for entries in entry_lists(length, s):
            walked[0] += 1
            yield entries

    monkeypatch.setattr(dyck, "_entry_lists", counted)
    for m in (2, 3):
        for k in (1, 2, 3):
            params = fc.Params(m, k)
            for n in (1, 2, 4, 8):
                length, walked[0] = n * (m - 1), 0
                assert _count_classes(params, length) == \
                    fc.modular_fuss_catalan(params, length)
                assert walked[0] == fc.fuss_catalan(m, length + 1), \
                    (m, k, length)


@pytest.mark.parametrize("length,budget", [(6, 5), (6, 11), (21, None),
                                           (10**12, 10)])
def test_the_classes_route_keeps_the_tree_budget(length, budget, monkeypatch):
    # The same refusal, word for word, before any tuple is walked.
    import fusscat.dyck
    from fusscat.counting import _count_classes

    if budget is None:
        monkeypatch.delenv("FUSSCAT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("FUSSCAT_BUDGET", str(budget))
    with pytest.raises(fc.BudgetError) as expected:
        fc.enumerate_classes(fc.Params(2, 2), length + 1)

    def refuse(*args):
        raise AssertionError("tuples walked past the budget")

    monkeypatch.setattr(fusscat.dyck, "_entry_lists", refuse)
    with pytest.raises(fc.BudgetError, match="^%s$"
                       % re.escape(str(expected.value))):
        _count_classes(fc.Params(2, 2), length)


def test_enumerate_classes_checks_the_budget_before_building(monkeypatch):
    import fusscat.dyck

    def refuse(*args):
        raise AssertionError("trees built before the budget check")

    # Catalan(40) trees: building them first would never finish.
    monkeypatch.setattr(fusscat.dyck, "_coded_trees", refuse)
    monkeypatch.setenv("FUSSCAT_BUDGET", "10")
    with pytest.raises(fc.BudgetError):
        fc.enumerate_classes(fc.Params(2, 1), 41)


def test_budget_env_var(monkeypatch):
    # Every budgeted route reads the one setting.  The right sites of the
    # 13-leaf left comb have addresses of 0 + 1 + 2 + 3 = 6 entries.
    from fusscat.counting import _count_classes

    t = fc.left_assoc_meet([fc.leaf()] * 13, P32)
    routes = [lambda: fc.enumerate_classes(P32, 7),
              lambda: fc.count_minimal_brute(P32, 6),
              lambda: _count_classes(P32, 6),
              lambda: fc.rotation_sites(t, P32)]
    monkeypatch.setenv("FUSSCAT_BUDGET", "5")
    for route in routes:
        with pytest.raises(fc.BudgetError):
            route()
    monkeypatch.setenv("FUSSCAT_BUDGET", "notanumber")
    for route in routes:
        with pytest.raises(fc.DomainError, match="^FUSSCAT_BUDGET must be an "
                           "integer, got 'notanumber'$"):
            route()
    monkeypatch.delenv("FUSSCAT_BUDGET")
    assert len(fc.enumerate_classes(P32, 7)) == 10
    assert fc.count_minimal_brute(P32, 6) == 10
    assert _count_classes(P32, 6) == 10
    assert len(fc.rotation_sites(t, P32)) == 4


def test_enumerate_classes_rejects_bad_leaf_count():
    with pytest.raises(fc.ArityError):
        fc.enumerate_classes(P32, 6)


# --------------------------------------------------------------- cycle words

def test_the_cycle_lemma_holds_for_each_first_entry():
    # The formula is the paper's sum over the first up-run l of l/L times
    # the words with leading run l.  For each l: exactly l of the L shifts
    # of each word are Dyck paths, the Dyck words are the minimal tuples
    # of first entry l, which enumerate_classes reports, and the counts by
    # l sum to the formula.  A bug that moves classes between first
    # entries, keeping the total, fails here.
    cells = 0
    for params in GRID_PARAMS:
        top = 10 if params.m == 2 else 12
        for length in range(params.step, top + 1, params.step):
            if (fc.fuss_catalan(params.m, length + 1) > 60_000
                    or params.k ** length > 200_000):
                continue
            cells += 1
            reps = {}
            for report in fc.enumerate_classes(params, length + 1):
                entries = report.representative.entries
                reps.setdefault(entries[0], set()).add(entries)
            total = 0
            for first, words in cycle_words(params, length).items():
                dyck = set()
                for tail in words:
                    assert dyck_shifts(first, tail) == first, \
                        (params, length, first, tail)
                    if is_dyck_word(first, tail):
                        dyck.add((first, *tail[:-1]))
                assert dyck == reps.get(first, set()), (params, length, first)
                total += len(dyck)
            assert total == fc.modular_fuss_catalan(params, length), \
                (params, length)
    assert cells == 58
