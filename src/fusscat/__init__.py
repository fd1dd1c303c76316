"""Trees, Dyck paths, and exact counting for k-associative m-ary operations.

An m-ary operation is k-associative when regrouping a window of
k(m-1)+1 consecutive operands one slot to the right leaves the value
unchanged.  This package models parenthesizations as full m-ary trees,
rewrites them by k-rotations, encodes them as Dyck-path tuples where
the rewrite becomes a two-entry shift by K = k(m-1), and counts the
resulting equivalence classes exactly.
"""

from .algebra import (ExponentVector, equivalent_by_eval, eval_by_depth,
                      eval_recursive)
from .counting import (ClassReport, PrefixedWord, count_minimal_brute,
                       cyclic_shift, enumerate_classes,
                       enumerate_prefixed_words, fuss_catalan,
                       modular_fuss_catalan)
from .dyck import (DyckTuple, canonicalize, compress, depth_to_tuple,
                   enumerate_tuples, equivalent, from_dyck, is_minimal,
                   parse_dyck, print_dyck, signature, to_dyck)
from .errors import (ArityError, BudgetError, DomainError, FormatError,
                     FusscatError, InternalInvariantError, ParseError,
                     SiteError, SizeError)
from .expr import parse, unparse
from .params import Params
from .tree import (DepthMatrix, Tree, depth_matrix, enumerate_trees, leaf,
                   left_assoc_meet, meet, rotate_left, rotate_right,
                   rotation_sites)

__version__ = "0.1.0"

__all__ = [
    "ArityError", "BudgetError", "ClassReport", "DepthMatrix", "DomainError",
    "DyckTuple", "ExponentVector", "FormatError", "FusscatError",
    "InternalInvariantError", "Params", "ParseError", "PrefixedWord",
    "SiteError", "SizeError", "Tree", "canonicalize", "compress",
    "count_minimal_brute", "cyclic_shift", "depth_matrix", "depth_to_tuple",
    "enumerate_classes", "enumerate_prefixed_words", "enumerate_trees",
    "enumerate_tuples", "equivalent", "equivalent_by_eval", "eval_by_depth",
    "eval_recursive", "from_dyck", "fuss_catalan", "is_minimal", "leaf",
    "left_assoc_meet", "meet", "modular_fuss_catalan", "parse", "parse_dyck",
    "print_dyck", "rotate_left", "rotate_right", "rotation_sites",
    "signature", "to_dyck", "unparse",
]
