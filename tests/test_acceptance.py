"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single "criterion NN PASS/FAIL" line on the real
terminal (bypassing capture) and enforces a wall-clock budget where the
criterion states one.  Everything here is exact integer arithmetic; no
tolerances are involved.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

import fusscat as fc
from conftest import cycle_words, dyck_shifts, is_dyck_word

P32 = fc.Params(3, 2)

# Counts for m=2, k=2 at lengths 1..6, frozen from an enumeration run
# before this package existed; see also tests/test_counting.py.
GOLDEN_M2_K2 = [1, 2, 4, 8, 16, 32]


@pytest.fixture
def announce(capsys):
    @contextmanager
    def criterion(number, label):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print("criterion %02d %s  %s"
                      % (number, "PASS" if ok else "FAIL", label))

    return criterion


@lru_cache(maxsize=None)
def _trees(m, leaves):
    return tuple(fc.enumerate_trees(fc.Params(m, 1), leaves))


def _component_ids(params, trees):
    """Label each tree with its rotation-connectivity component."""
    ids = {}
    label = 0
    for seed in trees:
        if seed in ids:
            continue
        ids[seed] = label
        stack = [seed]
        while stack:
            t = stack.pop()
            for direction, rotate in (("right", fc.rotate_right),
                                      ("left", fc.rotate_left)):
                for address, position in fc.rotation_sites(t, params,
                                                           direction):
                    u = rotate(t, address, position, params)
                    if u not in ids:
                        ids[u] = label
                        stack.append(u)
        label += 1
    return ids


def test_criterion_01_headline_count(announce):
    with announce(1, "class count at m=3 k=2 length=6 is 10, under 1 s"):
        start = time.monotonic()
        assert fc.modular_fuss_catalan(P32, 6) == 10
        assert time.monotonic() - start < 1.0


def test_criterion_02_class_structure(announce):
    with announce(2, "the 7-leaf ternary classes: ten of sizes 3,1,..,1"):
        start = time.monotonic()
        reports = fc.enumerate_classes(P32, 7)
        assert len(reports) == 10
        assert sorted((r.size for r in reports), reverse=True) \
            == [3] + [1] * 9
        big = max(reports, key=lambda r: r.size)
        spines = {fc.parse(text, P32) for text in (
            "((x1*x2*x3)*x4*x5)*x6*x7",
            "x1*((x2*x3*x4)*x5*x6)*x7",
            "x1*x2*((x3*x4*x5)*x6*x7)")}
        assert set(big.members) == spines
        assert time.monotonic() - start < 1.0


def test_criterion_03_triple_agreement(announce):
    with announce(3, "formula = enumeration = connectivity on the grid"):
        start = time.monotonic()
        for m in (2, 3, 4):
            for length in range(m - 1, 13, m - 1):
                for k in (1, 2, 3):
                    params = fc.Params(m, k)
                    formula = fc.modular_fuss_catalan(params, length)
                    assert formula == fc.count_minimal_brute(params, length)
                    if fc.fuss_catalan(m, length + 1) <= 50_000:
                        trees = _trees(m, length + 1)
                        ids = _component_ids(params, trees)
                        assert formula == len(set(ids.values()))
                        assert formula == len(
                            fc.enumerate_classes(params, length + 1))
        assert time.monotonic() - start < 60.0


def test_criterion_04_degenerate_and_saturated_rows(announce):
    with announce(4, "k=1 gives one class; K >= L counts every tree"):
        for m in (2, 3, 4):
            for length in range(m - 1, 13, m - 1):
                assert fc.modular_fuss_catalan(fc.Params(m, 1), length) == 1
                for k in (1, 2, 3):
                    params = fc.Params(m, k)
                    if params.modulus >= length:
                        assert fc.modular_fuss_catalan(params, length) \
                            == fc.fuss_catalan(m, length + 1)


def test_criterion_05_bijections(announce):
    with announce(5, "tree/tuple/expression/depth roundtrips, exhaustive"):
        for m in (2, 3, 4):
            params = fc.Params(m, 1)
            for leaves in range(1, 11, m - 1):
                for t in _trees(m, leaves):
                    d = fc.to_dyck(t, params)
                    assert fc.from_dyck(d, params) == t
                    assert fc.depth_to_tuple(fc.depth_matrix(t, params),
                                             params) == d
                    for style in ("minimal", "full"):
                        assert fc.parse(fc.unparse(t, style), params) == t
                for d in fc.enumerate_tuples(params, leaves - 1):
                    assert fc.to_dyck(fc.from_dyck(d, params), params) == d
                    for fmt in ("tuple", "ns"):
                        assert fc.parse_dyck(fc.print_dyck(d, fmt),
                                             params) == d


def test_criterion_06_evaluation_invariants(announce):
    with announce(6, "depth evaluation and the equivalence tests agree"):
        start = time.monotonic()
        for m in (2, 3, 4):
            for k in (1, 2, 3):
                params = fc.Params(m, k)
                for leaves in range(1, 11, m - 1):
                    for t in _trees(m, leaves):
                        assert fc.eval_recursive(t, params) == \
                            fc.eval_by_depth(fc.depth_matrix(t, params),
                                             params)
        cells = [(P32, 7)] + [(fc.Params(2, k), n)
                              for k in (1, 2, 3) for n in range(2, 7)]
        for params, leaves in cells:
            trees = _trees(params.m, leaves)
            ids = _component_ids(params, trees)
            sigs = {t: fc.signature(fc.to_dyck(t, params), params)
                    for t in trees}
            for i, a in enumerate(trees):
                for b in trees[i + 1:]:
                    same = fc.equivalent_by_eval(a, b, params)
                    assert same == (sigs[a] == sigs[b])
                    assert same == (ids[a] == ids[b])
        assert time.monotonic() - start < 30.0


def test_criterion_07_rewrite_laws(announce):
    with announce(7, "10^4 random rotations: delta law, lex drop, inverse"):
        rng = random.Random(20260825)
        pools = {}
        for m in (2, 3):
            for length in range(m - 1, 9, m - 1):
                pools[(m, length)] = tuple(
                    fc.enumerate_tuples(fc.Params(m, 1), length))
        lengths = {m: [L for mm, L in pools if mm == m] for m in (2, 3)}
        checked = 0
        while checked < 10_000:
            m = rng.choice((2, 3))
            params = fc.Params(m, rng.choice((1, 2, 3)))
            d = rng.choice(pools[(m, rng.choice(lengths[m]))])
            t = fc.from_dyck(d, params)
            sites = fc.rotation_sites(t, params, "right")
            if not sites:
                continue
            site = rng.choice(sites)
            u = fc.rotate_right(t, site[0], site[1], params)
            du = fc.to_dyck(u, params)
            diffs = [i for i, (a, b) in enumerate(zip(d.entries, du.entries))
                     if a != b]
            assert len(diffs) == 2
            lo, hi = diffs
            assert du.entries[lo] == d.entries[lo] - params.modulus
            assert du.entries[hi] == d.entries[hi] + params.modulus
            assert du.entries < d.entries
            assert fc.rotate_left(u, site[0], site[1], params) == t
            assert fc.compress(d, site, params, "right") == du
            assert fc.compress(du, site, params, "left") == d
            checked += 1


def test_criterion_08_rotation_decomposition(announce):
    with announce(8, "a k-rotation is exactly p rotations at k' = k/p"):
        for k, p, k_small in ((2, 2, 1), (4, 2, 2), (4, 4, 1), (6, 3, 2)):
            for m in (2, 3):
                big = fc.Params(m, k)
                small = fc.Params(m, k_small)
                for leaves in range(1, 10, m - 1):
                    for t in _trees(m, leaves):
                        for address, position in fc.rotation_sites(
                                t, big, "right"):
                            u = fc.rotate_right(t, address, position, big)
                            levels = [{t}]
                            for _ in range(p):
                                nxt = set()
                                for v in levels[-1]:
                                    for a2, j2 in fc.rotation_sites(
                                            v, small, "right"):
                                        nxt.add(fc.rotate_right(
                                            v, a2, j2, small))
                                levels.append(nxt)
                            assert u in levels[p]
                            assert all(u not in lvl for lvl in levels[:p])


def test_criterion_09_cycle_shift_fractions(announce):
    with announce(9, "cycle fractions rebuild the count at m=3 k=2 L=6"):
        total = 0
        by_first = cycle_words(P32, 6)
        for first, expected in ((2, 15), (4, 6), (6, 1)):
            words = by_first[first]
            assert len(words) == expected
            for tail in words:
                assert dyck_shifts(first, tail) == first
            members = [tail for tail in words if is_dyck_word(first, tail)]
            assert len(members) * 6 == first * len(words)
            total += len(members)
        assert total == fc.modular_fuss_catalan(P32, 6) == 10


def test_criterion_10_golden_regression(announce):
    with announce(10, "frozen m=2 k=2 counts for lengths 1..6"):
        params = fc.Params(2, 2)
        assert [fc.modular_fuss_catalan(params, L)
                for L in range(1, 7)] == GOLDEN_M2_K2
        assert [fc.count_minimal_brute(params, L)
                for L in range(1, 7)] == GOLDEN_M2_K2
