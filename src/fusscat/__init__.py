"""Trees, Dyck paths, and exact counting for k-associative m-ary operations.

An m-ary operation is k-associative when regrouping a window of
k(m-1)+1 consecutive operands one slot to the right leaves the value
unchanged.  This package models parenthesizations as full m-ary trees,
rewrites them by k-rotations, encodes them as Dyck-path tuples where
the rewrite becomes a two-entry shift by K = k(m-1), and counts the
resulting equivalence classes exactly.

Importing the package loads none of its modules: each public name is
imported from its module on first use.
"""

__version__ = "0.1.0"

_HOMES = {name: module for module, names in (
    ("algebra", ("ExponentVector", "equivalent_by_eval", "eval_by_depth",
                 "eval_recursive")),
    ("counting", ("ClassReport", "count_minimal_brute", "enumerate_classes")),
    ("dyck", ("DyckTuple", "canonicalize", "depth_to_tuple", "enumerate_trees",
              "enumerate_tuples", "equivalent", "from_dyck", "is_minimal",
              "parse_dyck", "print_dyck", "signature", "to_dyck")),
    ("errors", ("ArityError", "BudgetError", "DomainError", "FormatError",
                "FusscatError", "InternalInvariantError", "ParseError",
                "SiteError", "SizeError")),
    ("expr", ("parse", "unparse")),
    ("formula", ("fuss_catalan", "modular_fuss_catalan")),
    ("params", ("Params",)),
    ("rotation", ("compress", "rotation_sites")),
    ("tree", ("DepthMatrix", "Tree", "depth_matrix", "leaf", "left_assoc_meet",
              "meet", "rotate_left", "rotate_right")),
) for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    from importlib import import_module

    home = _HOMES.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + home, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
