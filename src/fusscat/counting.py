"""Brute-force class counts and class enumeration, the cross-checks of
the closed formula in `formula`.

The formula is the paper's sum, over the first up-run l, of the cycle
fraction l/L times the words with that run.  The words stay the proof
device: `enumerate_prefixed_words` lists them for criterion 09, with
the one lexicographic walker that dyck lists path tuples with.

Everything here is exact integer arithmetic; the brute-force routines
exist so the formula is never the only route to a number, and refuse to
start over budget.  `count_minimal_brute` walks only the minimal tuples,
tail entries below K from the last one back, and budgets those tuples;
the classes routes budget trees.  `enumerate_classes` builds every tree
once, over the smaller trees it holds, so the members of its classes
share their subtrees; it keys each tree by one `translate` of its
node-count string, and reads each minimal tuple off that key.
`verify --classes` needs only the number of classes, so it keys the
walker's tuples by their residues instead and builds no tree.
"""

import os
from typing import TYPE_CHECKING, Iterator, Optional

from .errors import ArityError, BudgetError, DomainError, FormatError
from .formula import fuss_catalan, modular_fuss_catalan  # verify's route
from .params import Params, _Record

# The functions that walk trees or tuples import the tree and tuple
# layers when they run, so verify's formula and brute load neither; here
# they are imported for type checkers only.
if TYPE_CHECKING:
    from .dyck import DyckTuple
    from .tree import Tree

RotationStep = tuple[str, tuple[int, ...], int]  # (direction, address, position)

DEFAULT_BUDGET = 1_000_000
BUDGET_ENV_VAR = "FUSSCAT_BUDGET"


def _budget(params: Params, length: int, budget: Optional[int]) -> int:
    """Refuse a length that params does not allow, then give the budget:
    the argument, else the FUSSCAT_BUDGET environment variable, else
    DEFAULT_BUDGET."""
    params.check_length(length)
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET)
        try:
            budget = int(raw)
        except ValueError:
            raise DomainError("%s must be an integer, got %r"
                              % (BUDGET_ENV_VAR, raw)) from None
    return int(budget)


def _check_budget(params: Params, length: int, budget: Optional[int]) -> None:
    """Refuse a length that params does not allow, then refuse when the
    m-ary trees of this length outnumber the budget; n internal nodes make
    at least 2^(n-1) trees, so a large n needs no count."""
    budget = _budget(params, length, budget)
    n = length // params.step
    if n > budget.bit_length():
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
    (the path condition).  Refuses to start when the tuples it may walk,
    at most min(trees, k^(L-1)), or the L entries of one, outnumber the
    budget (argument, else FUSSCAT_BUDGET, else one million)."""
    budget = _budget(params, length, budget)
    n, k = length // params.step, params.k
    if k > 1 and n > budget.bit_length():  # both bounds are 2^(n-1) or more
        raise BudgetError("at least 2**%d tuples exceed the budget of %d"
                          % (n - 1, budget))
    tuples = 1 if k == 1 else fuss_catalan(params.m, length + 1)
    if length <= tuples.bit_length():  # else k^(L-1) > trees, or k = 1
        tuples = min(tuples, k ** max(length - 1, 0))
    if tuples > budget:
        raise BudgetError("%d tuples exceed the budget of %d"
                          % (tuples, budget))
    if length > budget:
        raise BudgetError("tuples of %d entries exceed the budget of %d"
                          % (length, budget))
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

    def __init__(self, representative: "DyckTuple", size: int,
                 members: "tuple[Tree, ...]",
                 traces: Optional[tuple[tuple[RotationStep, ...], ...]] = None):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "traces", traces)


def enumerate_classes(params: Params, leaves: int, with_traces: bool = False,
                      budget: Optional[int] = None) -> list[ClassReport]:
    """Group every tree with the given leaf count into k-equivalence
    classes, reported in ascending order of minimal tuple.

    Refuses to start when the tree count exceeds the budget (argument,
    else the FUSSCAT_BUDGET environment variable, else one million).
    """
    from .dyck import _coded_trees, _minimal
    from .rotation import _traces

    length = leaves - 1
    _check_budget(params, length, budget)

    # A node count mod k is its entry's residue mod K, over s
    s, k = params.step, params.k
    residue = [c % k for c in range(length // s + 1)]
    runs, trees = _coded_trees(params, length)
    groups: dict[str, list[int]] = {}  # key: residues of the runs
    for i in sorted(range(len(runs)), key=runs.__getitem__):
        groups.setdefault(runs[i].translate(residue), []).append(i)

    reports = []
    for key, group in groups.items():
        rep = _minimal([s * ord(c) for c in key[1:-1]], length, s)
        # The closure starts from rep's runs: the key with rep's first count
        reports.append(ClassReport(
            rep, len(group), tuple(map(trees.__getitem__, group)),
            _traces(chr(rep.entries[0] // s) + key[1:] if length else key,
                    list(map(runs.__getitem__, group)), params)
            if with_traces else None))
    reports.sort(key=lambda r: r.representative.entries)
    return reports


def _count_classes(params: Params, length: int,
                   budget: Optional[int] = None) -> int:
    """len(enumerate_classes(params, length + 1)), under the same budget,
    with no tree: the distinct residue keys of every tuple, one held per
    class.  verify's classes route."""
    from .dyck import _entry_lists

    _check_budget(params, length, budget)
    s, modulus = params.step, params.modulus
    floors = [(i // s + 1) * s for i in range(length)]  # as enumerate_tuples
    return len({tuple([e % modulus for e in entries[1:]])
                for entries in _entry_lists(floors, length, s)})


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

    def to_dyck_tuple(self, params: Params) -> "DyckTuple":
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
