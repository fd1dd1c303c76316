"""Brute-force class counts and class enumeration, the cross-checks of
the closed formula in `formula`.

The paper proves that formula with the cycle lemma, over words of one
leading up-run; those words are built in the tests, for criterion 09,
not here.

Everything here is exact integer arithmetic; the brute-force routines
exist so the formula is never the only route to a number, and refuse to
start over budget.  `count_minimal_brute` walks only the minimal tuples,
tail entries below K from the last one back, and budgets those tuples;
the classes routes budget trees.  `enumerate_classes` builds every tree
once per process, up to the cap of the trees `dyck._coded_trees` keeps,
over the smaller trees it holds, so the members of its classes share
their subtrees, also with those of later calls; it keys each tree by
one `translate` of its node-count string.  Each representative is its
seed's own tuple, the seed being its group's last code in sorted order.
`verify --classes` needs only the number of classes, so it keys the
walker's tuples by their residues instead and builds no tree.
"""

import os

from .errors import BudgetError, DomainError
from .formula import fuss_catalan, modular_fuss_catalan  # verify's route
from .params import Params, _Record

# The functions that walk trees or tuples import the tree and tuple
# layers when they run, so verify's formula and brute load neither.

RotationStep = tuple[str, tuple[int, ...], int]  # (direction, address, position)

DEFAULT_BUDGET = 1_000_000
BUDGET_ENV_VAR = "FUSSCAT_BUDGET"


def _budget(params: Params, length: int) -> int:
    """Refuse a length that params does not allow, then give the budget
    of every budgeted route: the FUSSCAT_BUDGET environment variable,
    else DEFAULT_BUDGET."""
    params.check_length(length)
    raw = os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET)
    try:
        return int(raw)
    except ValueError:
        raise DomainError("%s must be an integer, got %r"
                          % (BUDGET_ENV_VAR, raw)) from None


def _check_budget(params: Params, length: int) -> None:
    """Refuse a length that params does not allow, then refuse when the
    m-ary trees of this length outnumber the budget; n internal nodes make
    at least 2^(n-1) trees, so a large n needs no count."""
    budget = _budget(params, length)
    n = length // params.step
    if n > budget.bit_length():
        raise BudgetError("at least 2**%d trees exceed the budget of %d"
                          % (n - 1, budget))
    total = fuss_catalan(params.m, length + 1)
    if total > budget:
        raise BudgetError("%d trees exceed the budget of %d" % (total, budget))


def count_minimal_brute(params: Params, length: int) -> int:
    """Count the minimal tuples, one class each, in about count * L steps:
    walk only their tails, from the last entry back, each entry a multiple
    of s below K, with the entries from index i on summing to at most L-i
    (the path condition).  Refuses to start when the tuples it may walk,
    at most min(trees, k^(L-1)), or the L entries of one, outnumber the
    budget (FUSSCAT_BUDGET, else one million)."""
    budget = _budget(params, length)
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
                 traces: tuple[tuple[RotationStep, ...], ...] | None = None):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "traces", traces)


def enumerate_classes(params: Params, leaves: int,
                      with_traces: bool = False) -> list[ClassReport]:
    """Group every tree with the given leaf count into k-equivalence
    classes, reported in ascending order of minimal tuple.

    Refuses to start when the tree count exceeds the budget (the
    FUSSCAT_BUDGET environment variable, else one million).
    """
    from .dyck import DyckTuple, _coded_trees
    from .rotation import _traces

    length = leaves - 1
    _check_budget(params, length)

    # A node count mod k is its entry's residue mod K, over s
    s, k = params.step, params.k
    residue = [c % k for c in range(length // s + 1)]
    codes, trees = _coded_trees(params, length)
    groups: dict[str, list[int]] = {}  # key: residues of the codes
    for i in sorted(range(len(codes)), key=codes.__getitem__):
        groups.setdefault(codes[i].translate(residue), []).append(i)

    reports = []
    for group in groups.values():
        # The minimal member sorts last: its later counts are the residues,
        # the least they can be, so any other member's first is smaller.
        seed = codes[group[-1]]
        reports.append(ClassReport(
            DyckTuple([s * ord(c) for c in seed[:-1]], s), len(group),
            tuple(map(trees.__getitem__, group)),
            _traces(seed, list(map(codes.__getitem__, group)), params)
            if with_traces else None))
    reports.sort(key=lambda r: r.representative.entries)
    return reports


def _count_classes(params: Params, length: int) -> int:
    """len(enumerate_classes(params, length + 1)), under the same budget,
    with no tree: the distinct residue keys of every tuple, one held per
    class.  verify's classes route."""
    from .dyck import _entry_lists

    _check_budget(params, length)
    modulus = params.modulus
    return len({tuple([e % modulus for e in entries[1:]])
                for entries in _entry_lists(length, params.step)})
