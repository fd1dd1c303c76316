"""Exact counting of k-equivalence classes, with brute-force cross-checks.

The number of classes of parenthesizations with L = N-1 down-steps is

    sum over runs l in {m-1, 2(m-1), .., L} of  (l / L) * S_l

where S_l is the number of words made of an up-run of l followed by L
single down-steps each carrying a trailing up-run that is a multiple of
m-1 smaller than K = k(m-1), the runs summing to L.  Dividing the runs
by m-1, S_l counts L parts in 0..k-1 with sum w = (L-l)/(m-1), so by
inclusion-exclusion on the parts that reach k

    S_l = sum over i in 0..floor(w/k) of
          (-1)^i * C(L, i) * C(L-1+w-ik, L-1).

The l/L factor is the cycle-counting fraction, and each l * S_l is
exactly divisible by L.

Everything here is exact integer arithmetic; the brute-force routines
exist so the formula is never the only route to a number.
"""

from __future__ import annotations

import os
from math import comb
from typing import TYPE_CHECKING, Iterator, Optional

from .errors import (ArityError, BudgetError, DomainError, FormatError,
                     InternalInvariantError)
from .params import Params, _Record

# The functions that walk trees or tuples import the tree and tuple
# layers when they run, so the formula alone loads neither; here they
# are imported for type checkers only.
if TYPE_CHECKING:
    from .dyck import DyckTuple
    from .tree import Tree

RotationStep = tuple[str, tuple[int, ...], int]  # (direction, address, position)

DEFAULT_BUDGET = 1_000_000
BUDGET_ENV_VAR = "FUSSCAT_BUDGET"


def _resolve_budget(budget: Optional[int]) -> int:
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise DomainError("%s must be an integer, got %r"
                          % (BUDGET_ENV_VAR, raw)) from None


def fuss_catalan(m: int, leaves: int) -> int:
    """Number of m-ary trees with the given leaf count."""
    if not (isinstance(m, int) and m >= 2):
        raise DomainError("arity m must be an integer >= 2, got %r" % (m,))
    if leaves < 1 or (leaves - 1) % (m - 1) != 0:
        raise ArityError("no %d-ary tree has %d leaves" % (m, leaves))
    n = (leaves - 1) // (m - 1)  # internal nodes
    q, r = divmod(comb(m * n, n), (m - 1) * n + 1)
    if r:
        raise InternalInvariantError("binom(%d,%d) not divisible by %d"
                                     % (m * n, n, (m - 1) * n + 1))
    return q


def modular_fuss_catalan(params: Params, length: int) -> int:
    """Number of k-equivalence classes of tuples of the given length."""
    s, k = params.step, params.k
    if length < 1 or length % s != 0:
        raise ArityError("length must be a positive multiple of %d, got %d"
                         % (s, length))
    total = 0
    for run in range(s, length + 1, s):
        weight = (length - run) // s
        inner = sum((-1) ** i * comb(length, i)
                    * comb(length - 1 + weight - i * k, length - 1)
                    for i in range(weight // k + 1))
        q, r = divmod(run * inner, length)
        if r:
            raise InternalInvariantError(
                "cycle fraction %d * %d / %d is not integral"
                % (run, inner, length))
        total += q
    return total


def count_minimal_brute(params: Params, length: int) -> int:
    """Count the minimal tuples directly, one class each: enumerate all
    valid tuples and keep those whose tail entries are < K."""
    from .dyck import enumerate_tuples, is_minimal

    if length < 0 or length % params.step != 0:
        raise ArityError("length must be a non-negative multiple of %d, got %d"
                         % (params.step, length))
    return sum(1 for d in enumerate_tuples(params, length)
               if is_minimal(d, params))


class ClassReport(_Record):
    """One k-equivalence class: its minimal tuple, the member trees in
    enumeration order, and (optionally) a rotation sequence taking each
    member to the tree of the minimal tuple."""

    __slots__ = ("representative", "size", "members", "traces")

    def __init__(self, representative: DyckTuple, size: int,
                 members: tuple[Tree, ...],
                 traces: Optional[tuple[tuple[RotationStep, ...], ...]] = None):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "traces", traces)


def _closure_parents(seeds: list[Tree], params: Params):
    """For each seed, the breadth-first closure of {seed} under both
    rotation directions; maps each reached tree to (previous tree, step
    that produced it).  Taking every seed in one call keeps the import
    below out of the per-class loop."""
    from .tree import rotate_left, rotate_right, rotation_sites

    closures = []
    for seed in seeds:
        parents: dict[Tree, Optional[tuple[Tree, RotationStep]]] = {seed: None}
        frontier = [seed]
        while frontier:
            nxt = []
            for t in frontier:
                for direction, rotate in (("right", rotate_right),
                                          ("left", rotate_left)):
                    for address, position in rotation_sites(t, params,
                                                            direction):
                        u = rotate(t, address, position, params)
                        if u not in parents:
                            parents[u] = (t, (direction, address, position))
                            nxt.append(u)
            frontier = nxt
        closures.append(parents)
    return closures


def _traces_to_seed(members, parents):
    if set(parents) != set(members):
        raise InternalInvariantError(
            "rotation closure of the representative disagrees with the "
            "signature class (%d reached, %d expected)"
            % (len(parents), len(members)))
    inverse = {"right": "left", "left": "right"}
    traces = []
    for t in members:
        steps = []
        node = t
        while parents[node] is not None:
            prev, (direction, address, position) = parents[node]
            steps.append((inverse[direction], address, position))
            node = prev
        traces.append(tuple(steps))
    return tuple(traces)


def enumerate_classes(params: Params, leaves: int, with_traces: bool = False,
                      budget: Optional[int] = None) -> list[ClassReport]:
    """Group every tree with the given leaf count into k-equivalence
    classes, reported in ascending order of minimal tuple.

    Refuses to start when the tree count exceeds the budget (argument,
    else the FUSSCAT_BUDGET environment variable, else one million).
    """
    from .dyck import canonicalize, enumerate_tuples, from_dyck, signature

    if leaves < 1 or (leaves - 1) % params.step != 0:
        raise ArityError("no %d-ary tree has %d leaves" % (params.m, leaves))
    limit = _resolve_budget(budget)
    total = fuss_catalan(params.m, leaves)
    if total > limit:
        raise BudgetError("%d trees exceed the budget of %d" % (total, limit))

    groups: dict[tuple[int, ...], tuple[DyckTuple, list[Tree]]] = {}
    for d in enumerate_tuples(params, leaves - 1):
        key = signature(d, params)
        if key not in groups:
            groups[key] = (canonicalize(d, params), [])
        groups[key][1].append(from_dyck(d, params))

    classes = list(groups.values())
    closures = [None] * len(classes)
    if with_traces:
        closures = _closure_parents(
            [from_dyck(rep, params) for rep, _ in classes], params)
    reports = [ClassReport(rep, len(members), tuple(members),
                           None if parents is None
                           else _traces_to_seed(members, parents))
               for (rep, members), parents in zip(classes, closures)]
    reports.sort(key=lambda r: r.representative.entries)
    return reports


class PrefixedWord(_Record):
    """A word of one leading up-run and trailing down-steps: reading is
    N^first S N^tail[0] S N^tail[1] .. S N^tail[-1]."""

    __slots__ = ("first", "tail")

    def __init__(self, first: int, tail: tuple[int, ...]):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "tail", tail)

    def is_dyck_path(self) -> bool:
        """Whether the word, read as a lattice path, stays on or above
        the axis."""
        runs = (self.first, *self.tail)
        partial = 0
        for q in range(1, len(runs)):
            partial += runs[q - 1]
            if partial < q:
                return False
        return True

    def to_dyck_tuple(self, params: Params) -> DyckTuple:
        """The word as a path tuple; only Dyck words convert (the last
        tail run must be empty)."""
        from .dyck import DyckTuple

        if not self.tail or self.tail[-1] != 0:
            raise FormatError("word ends with unmatched up-steps")
        return DyckTuple((self.first, *self.tail[:-1]), params.step)


def cyclic_shift(word: PrefixedWord, j: int) -> PrefixedWord:
    """Rotate the tail runs left by j places, keeping the leading run;
    j may be anything from 0 to the tail length (a full cycle)."""
    n = len(word.tail)
    if not 0 <= j <= n:
        raise DomainError("shift must be in [0, %d], got %d" % (n, j))
    return PrefixedWord(word.first, word.tail[j:] + word.tail[:j])


def enumerate_prefixed_words(params: Params, length: int,
                             first_run: int) -> Iterator[PrefixedWord]:
    """All words with the given leading run, `length` down-steps, and
    tail runs that are multiples of m-1 below K, in ascending
    lexicographic order of tail."""
    s, top = params.step, params.modulus - params.step
    if length < 1 or length % s != 0:
        raise ArityError("length must be a positive multiple of %d, got %d"
                         % (s, length))
    if not s <= first_run <= length or first_run % s != 0:
        raise ArityError("leading run must be a multiple of %d in [%d, %d], "
                         "got %d" % (s, s, length, first_run))
    return _prefixed_words(first_run, length, s, top)


def _prefixed_words(first_run: int, length: int, s: int,
                    top: int) -> Iterator[PrefixedWord]:
    tail = [0] * length
    rest = length - first_run  # still to place in tail[start:]
    start = 0
    while True:
        # The least tail[start:] summing to rest: packed to the right.
        for i in range(length - 1, start - 1, -1):
            tail[i] = min(top, rest)
            rest -= tail[i]
        if rest:
            return  # the tails cannot hold the whole word
        yield PrefixedWord(first_run, tuple(tail))
        # The successor grows the rightmost entry that can take s from
        # the entries after it.
        start = length - 1
        while start >= 0 and (tail[start] == top or rest < s):
            rest += tail[start]
            start -= 1
        if start < 0:
            return
        tail[start] += s
        rest -= s
        start += 1
