"""Exponent-vector evaluation of parenthesizations.

Interpret the m-ary operation on formal symbols as

    a1 o .. o am  =  w^(m-1) a1 + w^(m-2) a2 + .. + w a_{m-1} + am

where w is an abstract unit whose K-th power is 1, K = k(m-1).  Any
parenthesization then evaluates to a sum with one w-power per leaf, so
its value is the vector of exponents mod K.  Equal vectors characterize
k-equivalence of trees.  Only residue arithmetic is performed; w is
never given a numeric value.
"""

from .errors import FormatError, SizeError
from .params import Params, _Record
from .tree import DepthMatrix, Tree, _arity_error


class ExponentVector(_Record):
    """Per-leaf exponents of w, each reduced mod the modulus."""

    __slots__ = ("modulus", "entries")

    def __init__(self, modulus: int, entries: tuple[int, ...]):
        entries = tuple(entries)
        _set_modulus(self, modulus)
        _set_entries(self, entries)
        if type(modulus) is not int:
            raise FormatError("modulus must be a positive integer, got %r"
                              % (modulus,))
        if modulus < 1:
            raise FormatError("modulus must be positive, got %r" % (modulus,))
        if any(type(e) is not int or not 0 <= e < modulus
               for e in entries):
            raise FormatError("entries must be residues in [0, %d)"
                              % modulus)


_set_modulus = ExponentVector.modulus.__set__
_set_entries = ExponentVector.entries.__set__


def eval_recursive(t: Tree, params: Params) -> ExponentVector:
    """Evaluate top-down: each step into the child in position i shifts
    the exponent of every leaf below it by m - i."""
    m, modulus = params.m, params.modulus
    out: list[int] = []
    todo = [(t, 0)]  # (node, exponent gathered on its root path), preorder
    while todo:
        node, exponent = todo.pop()
        if node.is_leaf:
            out.append(exponent)
            continue
        if len(node.children) != m:
            raise _arity_error(node, params)
        for i in range(m, 0, -1):
            todo.append((node.children[i - 1], (exponent + m - i) % modulus))
    return ExponentVector(modulus, out)


def eval_by_depth(dm: DepthMatrix, params: Params) -> ExponentVector:
    """Evaluate from the depth matrix alone: the exponent of leaf j is
    the (m-i)-weighted sum of its label depths."""
    modulus = params.modulus
    return ExponentVector(modulus, [w % modulus for w in dm._weights(params)])


def equivalent_by_eval(a: Tree, b: Tree, params: Params) -> bool:
    """Whether two trees evaluate identically, i.e. are k-equivalent."""
    if a.leaf_count != b.leaf_count:
        raise SizeError("cannot compare trees with %d and %d leaves"
                        % (a.leaf_count, b.leaf_count))
    return eval_recursive(a, params) == eval_recursive(b, params)
