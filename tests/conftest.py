"""Shared helpers and hypothesis strategies for the test suite."""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
import pytest

import fusscat as fc

GRID_PARAMS = [fc.Params(m, k) for m in (2, 3, 4) for k in (1, 2, 3)]


def comb(params: fc.Params, leaves: int) -> fc.Tree:
    """The left comb: the fully left-associated tree on `leaves` operands."""
    return fc.left_assoc_meet([fc.leaf()] * leaves, params)


def valid_leaf_counts(params: fc.Params, top: int) -> list[int]:
    return list(range(1, top + 1, params.step))


@pytest.fixture
def tuples_built(monkeypatch) -> list[tuple]:
    """The entries of each DyckTuple constructed while the test runs."""
    built: list[tuple] = []
    init = fc.DyckTuple.__init__

    def counted(self, entries, step):
        built.append(tuple(entries))
        init(self, entries, step)

    monkeypatch.setattr(fc.DyckTuple, "__init__", counted)
    return built


def cycle_words(params: fc.Params, length: int) -> dict[int, list[tuple]]:
    """The cycle lemma's words N^first S N^tail[0] S .. S N^tail[-1] of
    `length` down-steps, by leading run: every tail of `length` runs,
    each a multiple of m-1 below K, that leaves at least m-1 of the
    length to the first run; for each first run in ascending order."""
    words = {first: [] for first in range(params.step, length + 1,
                                          params.step)}
    runs = range(0, params.modulus, params.step)
    for tail in itertools.product(runs, repeat=length):
        first = length - sum(tail)
        if first in words:
            words[first].append(tail)
    return words


def is_dyck_word(first: int, tail: tuple) -> bool:
    """Whether the word N^first S N^tail[0] S .. S N^tail[-1], read as a
    lattice path, stays on or above the axis and ends on it."""
    height = first
    for run in tail:
        height -= 1
        if height < 0:
            return False
        height += run
    return height == 0


def dyck_shifts(first: int, tail: tuple) -> int:
    """How many of the cyclic shifts of the tail, the first run kept,
    make a Dyck word."""
    return sum(is_dyck_word(first, tail[j:] + tail[:j])
               for j in range(len(tail)))


def edit_once(rng, text: str, chars: str) -> str:
    """text after one random edit: insert, delete or replace a character,
    any new one drawn from chars, or drop a '*' (if it has one)."""
    edit = rng.choice(("insert", "delete", "replace", "drop *"))
    at = rng.randrange(len(text) + (edit == "insert"))
    if edit == "insert":
        return text[:at] + rng.choice(chars) + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    if edit == "replace":
        return text[:at] + rng.choice(chars) + text[at + 1:]
    stars = [i for i, c in enumerate(text) if c == "*"]
    if not stars:
        return text
    at = rng.choice(stars)
    return text[:at] + text[at + 1:]


def tree_strategy(params: fc.Params, max_leaves: int = 40):
    return st.recursive(
        st.just(fc.leaf()),
        lambda sub: st.tuples(*([sub] * params.m)).map(
            lambda cs: fc.meet(cs, params)),
        max_leaves=max_leaves)


def params_strategy():
    return st.builds(fc.Params, st.integers(2, 4), st.integers(1, 3))


def params_and_tree(max_leaves: int = 40):
    return params_strategy().flatmap(
        lambda p: st.tuples(st.just(p), tree_strategy(p, max_leaves)))
