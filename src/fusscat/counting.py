"""Exact counting of k-equivalence classes, with brute-force cross-checks.

With L = N-1 >= 1 down-steps and n = L/(m-1) internal nodes, the class
count is one alternating sum with one exact division:

    [sum over i in 0..floor(n/k) of (-1)^i (n-ik) C(L,i) C(mn-ik, L)]
    / (n (L+1))

This is the paper's sum, over the first up-run l, of the cycle fraction
l/L times the words with that run, in closed form; for k >= n only the
i = 0 term is left, fuss_catalan(m, L+1).  The words stay the proof
device: `enumerate_prefixed_words` lists them for criterion 09, with
the one lexicographic walker that dyck lists path tuples with.
At L = 0 (a single operand) the count is 1.

Everything here is exact integer arithmetic; the brute-force routines
exist so the formula is never the only route to a number, and refuse to
start over budget.  `count_minimal_brute` walks only the minimal tuples,
tail entries below K from the last one back.  `enumerate_classes` builds
every tree once, over the smaller trees it holds, so the members of its
classes share their subtrees, and reads each minimal tuple off its key.
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
    from .dyck import DyckTuple, Tree

RotationStep = tuple[str, tuple[int, ...], int]  # (direction, address, position)

DEFAULT_BUDGET = 1_000_000
BUDGET_ENV_VAR = "FUSSCAT_BUDGET"

# The most work the formulas take on, in units of terms * L^2: a sum of
# T terms at length L multiplies binomials of about L bits, which costs
# about L^2 bit operations each.  At the limit a count takes some
# seconds: (2, 1, 4000) ran in 5.6 s and fuss_catalan at L = 3 * 10^5
# in 6.1 s on a 2-core VM, with Python 3.11.
FORMULA_WORK_LIMIT = 2**36


def _check_work(length: int, terms: int) -> None:
    """Refuse a formula whose estimated work passes FORMULA_WORK_LIMIT;
    integer arithmetic only, before any binomial."""
    work = terms * length * length
    if work > FORMULA_WORK_LIMIT:
        raise DomainError("length %d is past the formula's work limit: "
                          "terms * length**2 = %d > %d"
                          % (length, work, FORMULA_WORK_LIMIT))


def fuss_catalan(m: int, leaves: int) -> int:
    """Number of m-ary trees with the given leaf count; refuses a count
    past FORMULA_WORK_LIMIT."""
    Params(m, 1).check_length(leaves - 1)
    _check_work(leaves - 1, 1)
    n = (leaves - 1) // (m - 1)  # internal nodes
    q, r = divmod(comb(m * n, n), (m - 1) * n + 1)
    if r:
        raise InternalInvariantError("binom(%d,%d) not divisible by %d"
                                     % (m * n, n, (m - 1) * n + 1))
    return q


def modular_fuss_catalan(params: Params, length: int) -> int:
    """Number of k-equivalence classes of tuples of the given length;
    refuses a sum past FORMULA_WORK_LIMIT."""
    params.check_length(length)
    if length == 0:
        return 1  # the bare operand
    k, n = params.k, length // params.step  # n internal nodes
    _check_work(length, n // k + 1)
    total = sum((-1) ** i * (n - i * k) * comb(length, i)
                * comb(params.m * n - i * k, length)
                for i in range(n // k + 1))
    q, r = divmod(total, n * (length + 1))
    if r:
        raise InternalInvariantError("class sum is not divisible by "
                                     "n(L+1) = %d" % (n * (length + 1)))
    return q


def _check_budget(params: Params, length: int, budget: Optional[int]) -> None:
    """Refuse a length that params does not allow, then refuse when the
    m-ary trees of this length outnumber the budget; n internal nodes make
    at least 2^(n-1) trees, so a large n needs no count."""
    params.check_length(length)
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET)
        try:
            budget = int(raw)
        except ValueError:
            raise DomainError("%s must be an integer, got %r"
                              % (BUDGET_ENV_VAR, raw)) from None
    n = length // params.step
    if n > int(budget).bit_length():
        raise BudgetError("at least 2**%d trees exceed the budget of %d"
                          % (n - 1, budget))
    total = fuss_catalan(params.m, length + 1)
    if total > budget:
        raise BudgetError("%d trees exceed the budget of %d" % (total, budget))


def count_minimal_brute(params: Params, length: int,
                        budget: Optional[int] = None) -> int:
    """Count the minimal tuples, one class each, in about count * L steps:
    walk only their tails, from the last entry back, each entry a multiple
    of s below K, with the entries from index i on summing to at most L-i
    (the path condition).  Refuses over budget like enumerate_classes."""
    _check_budget(params, length, budget)
    if length < 2:
        return 1  # () or (1,): no entry after the first
    s, top = params.step, params.modulus - params.step
    count, todo = 0, [(length - 1, 0)]  # (index, sum of the entries after)
    while todo:
        i, total = todo.pop()
        room = length - i - total  # the most entries[i] can be
        if room > top:
            room = top
        if i == 1:
            count += room // s + 1  # one complete tail per choice
        else:
            i -= 1
            todo += [(i, total + e) for e in range(0, room + 1, s)]
    return count


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


def _traces(seed: tuple[int, ...], members: list[tuple[int, ...]],
            params: Params) -> tuple[tuple[RotationStep, ...], ...]:
    """For each member tuple, a rotation sequence taking it to the seed.

    A breadth-first closure of {seed} under both directions records each
    tuple's trace when it first reaches the tuple: the step back along
    that move, then the trace of the tuple the move started from.  A move
    rewrites two entries by K.  The closure must be exactly the members."""
    from .dyck import _address, _move_table

    modulus = params.modulus
    traces: dict[tuple[int, ...], tuple[RotationStep, ...]] = {seed: ()}
    reached = [seed]
    for d in reached:  # the list grows while it is read: breadth-first
        right, left, runs = _move_table(d, params)
        for moves, back, shift in ((right, "left", modulus),
                                   (left, "right", -modulus)):
            for node, position, lo, hi in moves:
                edited = list(d)
                edited[lo] -= shift
                edited[hi] += shift
                u = tuple(edited)
                if u not in traces:
                    traces[u] = ((back, _address(runs, node), position),
                                 *traces[d])
                    reached.append(u)
    if traces.keys() != set(members):
        raise InternalInvariantError(
            "rotation closure of the representative disagrees with the "
            "signature class (%d reached, %d expected)"
            % (len(traces), len(members)))
    return tuple(map(traces.__getitem__, members))


def enumerate_classes(params: Params, leaves: int, with_traces: bool = False,
                      budget: Optional[int] = None) -> list[ClassReport]:
    """Group every tree with the given leaf count into k-equivalence
    classes, reported in ascending order of minimal tuple.

    Refuses to start when the tree count exceeds the budget (argument,
    else the FUSSCAT_BUDGET environment variable, else one million).
    """
    from .dyck import _coded_trees, _minimal

    length = leaves - 1
    _check_budget(params, length, budget)

    # All runs' residues mod K: signature's, and two that follow from them
    residue = [e % params.modulus for e in range(length + 1)]
    groups: dict[tuple[int, ...], list] = {}  # key: runs, tree, runs, ..
    for runs, t in _coded_trees(params, length):
        key = tuple([residue[e] for e in runs])
        groups.setdefault(key, []).extend((runs, t))

    reports = []
    for key, group in groups.items():
        rep = _minimal(key[1:-1], length, params.step)
        reports.append(ClassReport(
            rep, len(group) // 2, tuple(group[1::2]),
            _traces(rep.entries, [runs[:-1] for runs in group[::2]], params)
            if with_traces else None))
    reports.sort(key=lambda r: r.representative.entries)
    return reports


class PrefixedWord(_Record):
    """A word of one leading up-run and trailing down-steps: reading is
    N^first S N^tail[0] S N^tail[1] .. S N^tail[-1]."""

    __slots__ = ("first", "tail")

    def __init__(self, first: int, tail: tuple[int, ...]):
        tail = tuple(tail)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "tail", tail)
        for run in (first, *tail):
            if type(run) is not int or run < 0:
                raise FormatError("word run %r is not a non-negative integer"
                                  % (run,))

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
    lexicographic order of tail: the lists of dyck._entry_lists whose
    first i+1 runs hold what the later ones cannot of the rest."""
    from .dyck import _entry_lists

    params.check_length(length)
    s, top = params.step, params.modulus - params.step
    if not s <= first_run <= length or first_run % s != 0:
        raise ArityError("leading run must be a multiple of %d in [%d, %d], "
                         "got %d" % (s, s, length, first_run))
    rest = length - first_run
    if rest > top * length:
        return iter(())  # the tails cannot hold the whole word
    floors = [rest - top * (length - 1 - i) for i in range(length)]
    return (PrefixedWord(first_run, tuple(tail))
            for tail in _entry_lists(floors, top, s))
