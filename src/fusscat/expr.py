"""Concrete syntax for parenthesized operand runs.

An expression is a run of operands joined by optional '*' (whitespace
alone also separates); an operand is a variable name or a parenthesized
run of at least two operands.  Every run folds by the left-associative
convention, so its operand count must be 1 or m + g(m-1).

The text lists the leaves in preorder, as the path tuple does, so text
and tuple convert in one pass each with no tree in between; the command
line uses these passes alone.  A run of P operands folds into
(P-1)/(m-1) nodes that all open just before its first leaf, so the
reader adds P-1 to that leaf's up-run when the run closes.

unparse() names the leaves x1..xN from the left.  The "full" style
parenthesizes every internal node below the root; the "minimal" style
also inlines a first child whose subtree is a plain chain of leaves,
the paren omission the left-associative reading recovers by itself.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import TYPE_CHECKING

from .dyck import DyckTuple, from_dyck, to_dyck
from .errors import ArityError, ParseError
from .params import Params

if TYPE_CHECKING:
    from .tree import Tree

# A name is a non-digit word character, then word characters (Unicode
# included).  Any other visible character is an error, reported first.
# The empty match at \Z (not $, which also matches before a final "\n")
# ends the last run.
_TOKEN = re.compile(r"[^\W\d]\w*|[*()]|\Z")
_BAD = re.compile(r"(?<!\w)\d|[^\w\s*()]")


def _offset(text: str, index: int) -> int:
    """Where the index-th token of text starts; index -1 is the text."""
    return (next(islice(_TOKEN.finditer(text), index, None)).start()
            if index >= 0 else 0)


def _read(text: str, params: Params) -> DyckTuple:
    """The path tuple of an expression, read in one scan of its tokens;
    an error looks up its character offset only when it is raised."""
    if bad := _BAD.search(text):
        raise ParseError("unexpected character %r" % bad.group(), bad.start())
    ups: list[int] = []  # per leaf read: m-1 times the groups opening before it
    groups: list[tuple[int, int, int]] = []  # the enclosing runs, as below
    start, count, first = -1, 0, 0  # '(' token, operands, first leaf of the run
    need = True  # an operand must come next
    for i, tok in enumerate(_TOKEN.findall(text)):
        if tok == "*" and not need:
            need = True
        elif tok == "(":
            groups.append((start, count, first))
            start, count, first = i, 0, len(ups)
            need = True
        elif tok not in ("", "*", ")"):
            ups.append(0)
            count += 1
            need = False
        elif need:
            raise ParseError("expected an operand", _offset(text, i))
        else:  # the run ends
            if groups and count == 1:
                raise ArityError(
                    "parenthesized group needs at least two operands",
                    _offset(text, start))
            if not params.fits(count - 1):
                raise ArityError(
                    "run of %d operands cannot fold at arity %d"
                    % (count, params.m), _offset(text, start))
            ups[first] += count - 1
            if not groups:
                if tok:
                    raise ParseError("unexpected %r" % tok, _offset(text, i))
                ups.pop()  # the last leaf closes no run
                return DyckTuple(ups, params.step)
            if not tok:
                raise ParseError("unbalanced '('", _offset(text, start))
            start, count, first = groups.pop()
            count += 1


def _write(entries: tuple[int, ...], m: int, style: str) -> str:
    """The text of a path tuple, in one pass over its leaves: the
    entries[j]/(m-1) nodes opening before leaf j form a first-child chain
    whose top is wrapped unless it is the root.  A node below the top is
    wrapped in the full style, and in the minimal style when the next
    nonzero entry falls among the operands of it and the chain below it."""
    s = m - 1
    n = len(entries)  # the last leaf has no entry
    out: list[str] = []  # the text of each leaf with its parens
    stack: list[list] = []  # [children left, wrapped] per open node
    for j in range(n + 1):
        c = entries[j] // s if j < n else 0
        text = "x%d" % (j + 1)
        if c:
            below = c - 1  # wrapped nodes below the chain's top
            if style == "minimal":
                z = j + 1  # the next nonzero entry, or n
                while z < n and not entries[z]:
                    z += 1
                below = max(0, c + (j - z) // s)  # c - ceil((z-j)/s)
            stack.append([m, j > 0])
            for i in range(1, c):
                stack.append([m, i <= below])
            text = "(" * (below + (j > 0)) + text
        while stack:  # the leaf ends a child; close the nodes it completes
            node = stack[-1]
            node[0] -= 1
            if node[0]:
                break
            text += ")" * stack.pop()[1]
        out.append(text)
    return "*".join(out)


def parse(text: str, params: Params) -> Tree:
    """Parse an expression into its tree; variable names are discarded
    (only the shape matters)."""
    return from_dyck(_read(text, params), params)


def unparse(t: Tree, style: str = "minimal") -> str:
    """Render a tree with leaves named x1..xN left to right.

    Both styles parse back to the same tree; the minimal style is
    injective on trees of a fixed leaf count.  A tree that from_dyck
    decoded is printed from the tuple it keeps, with no walk."""
    if style not in ("minimal", "full"):
        raise ValueError("style must be 'minimal' or 'full', got %r" % (style,))
    m = max(2, len(t.children)) if t._dyck is None else t._dyck.step + 1
    return _write(to_dyck(t, Params(m, 1)).entries, m, style)
