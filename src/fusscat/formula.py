"""The closed formulas for the tree and class counts.

With L = N-1 >= 1 down-steps and n = L/(m-1) internal nodes, the class
count is one alternating sum with one exact division:

    [sum over i in 0..floor(n/k) of (-1)^i (n-ik) C(L,i) C(mn-ik, L)]
    / (n (L+1))

This is the paper's sum, over the first up-run l, of the cycle fraction
l/L times the words with that run, in closed form; for k >= n only the
i = 0 term is left, fuss_catalan(m, L+1).  At L = 0 (a single operand)
the count is 1.

The terms are hypergeometric (Petkovsek, Wilf and Zeilberger, A=B, 1996,
ch. 3), so the sum keeps one signed running term (-1)^i C(L,i)
C(mn-ik, L), from C(mn, L), and takes each next one with one multiply
and one exact division.  `count` and `table` load this module alone;
the enumerating routes in `counting` check their budgets with
`fuss_catalan`.
"""

from math import comb, perm

from .errors import BudgetError, InternalInvariantError
from .params import Params

# The most work the formulas take on, in units of terms * L^2: the
# estimate prices each of T terms at length L as a product of binomials
# of about L bits.  The running term costs far less: (2, 1, 4095), the
# largest k = 1 sum at m = 2 that the limit admits, ran in 0.016 s and
# (3, 2, 2000) in 0.001 s, while fuss_catalan's one binomial at L = 2^18,
# its largest admitted length, took 2.8 s (best of three on a 2-core VM,
# Python 3.11).
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
    # The term at i-1 times -(L-i+1) perm(top-L,k), with top = mn-(i-1)k,
    # is the term at i times i perm(top,k), so the division is exact.
    top = params.m * n
    term = comb(top, length)
    total = n * term
    for i in range(1, n // k + 1):
        term = term * ((i - length - 1) * perm(top - length, k)) \
            // (i * perm(top, k))
        top -= k
        total += (top - length) * term
    q, r = divmod(total, n * (length + 1))
    if r:
        raise InternalInvariantError("class sum is not divisible by "
                                     "n(L+1) = %d" % (n * (length + 1)))
    return q
