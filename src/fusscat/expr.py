"""Concrete syntax for parenthesized operand runs.

An expression is a run of operands joined by optional '*' (whitespace
alone also separates); an operand is a variable name or a parenthesized
run of at least two operands.  Every run folds by the left-associative
convention, so its operand count must be 1 or m + g(m-1).

unparse() names the leaves x1..xN from the left.  The "full" style
parenthesizes every internal node below the root; the "minimal" style
additionally inlines a first child whose subtree is a plain chain of
leaves, which is exactly the paren omission the left-associative
reading recovers without consulting the rest of the run.

The text lists the leaves in preorder, as the path tuple does: the
i-th up-run is m-1 times the number of groups, written or implied by
the left-associative reading, that open after leaf i-1 and before leaf
i.  Parser and printer are single loops over explicit stacks, so the
nesting depth is bounded by memory alone.
"""

from __future__ import annotations

import re

from .errors import ArityError, ParseError
from .params import Params
from .tree import Tree, leaf, left_assoc_meet

# A name is a word character other than a decimal digit, then word
# characters (Unicode included); any other visible character is an error.
_TOKEN = re.compile(r"[^\W\d]\w*|[*()]|(\S)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        if match.group(1):
            raise ParseError("unexpected character %r" % match.group(1),
                             match.start())
        tokens.append((match.group(), match.start()))
    return tokens


def parse(text: str, params: Params) -> Tree:
    """Parse an expression into its tree; variable names are discarded
    (only the shape matters)."""
    m = params.m
    groups: list[tuple[int, list[Tree]]] = []  # the enclosing open groups
    start, operands = 0, []  # offset and operands of the run being read
    need = True  # an operand must come next
    for tok, at in _tokenize(text) + [(None, len(text))]:
        if tok == "*" and not need:
            need = True
        elif tok == "(":
            groups.append((start, operands))
            start, operands = at, []
            need = True
        elif tok not in (None, "*", ")"):
            operands.append(leaf())
            need = False
        elif need:
            raise ParseError("expected an operand", at)
        else:  # the run ends
            p = len(operands)
            if groups and p == 1:
                raise ArityError(
                    "parenthesized group needs at least two operands", start)
            if not params.fits(p - 1):
                raise ArityError(
                    "run of %d operands cannot fold at arity %d" % (p, m),
                    start)
            tree = left_assoc_meet(operands, params)
            if not groups:
                if tok is not None:
                    raise ParseError("unexpected %r" % tok, at)
                return tree
            if tok is None:
                raise ParseError("unbalanced '('", start)
            start, operands = groups.pop()
            operands.append(tree)


def unparse(t: Tree, style: str = "minimal") -> str:
    """Render a tree with leaves named x1..xN left to right.

    Both styles parse back to the same tree; the minimal style is
    injective on trees of a fixed leaf count."""
    if style not in ("minimal", "full"):
        raise ValueError("style must be 'minimal' or 'full', got %r" % (style,))
    out: list[str] = []
    names = 0
    todo: list = [t]  # what is still to write, the next piece last
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        # Write the first-child chain s0 = item, s1, .. down to its leaf:
        # "(" for each wrapped si (i >= 1), the leaf, then from the bottom
        # up the other children of each si followed by si's ")".  The
        # minimal style wraps si only when si, or a node below it on the
        # chain, has an inner node among its other children.
        spine = []
        while not item.is_leaf:
            spine.append(item)
            item = item.children[0]
        rest: list = []
        opens = 0
        wrap = style == "full"
        for i in range(len(spine) - 1, -1, -1):
            for child in spine[i].children[1:]:
                rest.append("*")
                if child.is_leaf:
                    rest.append(child)
                else:
                    rest += ("(", child, ")")
                    wrap = True
            if wrap and i:
                rest.append(")")
                opens += 1
        names += 1
        out.append("(" * opens + "x%d" % names)
        todo.extend(reversed(rest))
    return "".join(out)
