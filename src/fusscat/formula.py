"""The closed formulas for the tree and class counts.

With L = N-1 >= 1 down-steps and n = L/(m-1) internal nodes, the class
count is one alternating sum with one exact division:

    [sum over i in 0..floor(n/k) of (-1)^i (n-ik) C(L,i) C(mn-ik, L)]
    / (n (L+1))

This is the paper's sum, over the first up-run l, of the cycle fraction
l/L times the words with that run, in closed form; for k >= n only the
i = 0 term is left, fuss_catalan(m, L+1).  At L = 0 (a single operand)
the count is 1.  `count` and `table` load this module alone; the
enumerating routes in `counting` check their budgets with
`fuss_catalan`.
"""

from math import comb

from .errors import BudgetError, InternalInvariantError
from .params import Params

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
        raise BudgetError("length %d is past the formula's work limit: "
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
